(* -1 is the nil link; the [member] array is the source of truth for
   membership so that id 0 with nil links is unambiguous. *)
type t = {
  name : string;
  prev : int array;
  next : int array;
  member : bool array;
  mutable first : int;
  mutable last : int;
  mutable length : int;
}

let nil = -1

let create ~capacity ~name =
  if capacity <= 0 then invalid_arg "Dll.create: capacity <= 0";
  {
    name;
    prev = Array.make capacity nil;
    next = Array.make capacity nil;
    member = Array.make capacity false;
    first = nil;
    last = nil;
    length = 0;
  }

let name t = t.name
let capacity t = Array.length t.prev
let length t = t.length
let is_empty t = t.length = 0

let check_id t id op =
  if id < 0 || id >= capacity t then
    invalid_arg (Printf.sprintf "Dll.%s(%s): id %d out of range" op t.name id)

let mem t id =
  check_id t id "mem";
  t.member.(id)

let push_front t id =
  check_id t id "push_front";
  if t.member.(id) then
    invalid_arg (Printf.sprintf "Dll.push_front(%s): %d already a member" t.name id);
  t.member.(id) <- true;
  t.prev.(id) <- nil;
  t.next.(id) <- t.first;
  if t.first <> nil then t.prev.(t.first) <- id else t.last <- id;
  t.first <- id;
  t.length <- t.length + 1

let push_back t id =
  check_id t id "push_back";
  if t.member.(id) then
    invalid_arg (Printf.sprintf "Dll.push_back(%s): %d already a member" t.name id);
  t.member.(id) <- true;
  t.next.(id) <- nil;
  t.prev.(id) <- t.last;
  if t.last <> nil then t.next.(t.last) <- id else t.first <- id;
  t.last <- id;
  t.length <- t.length + 1

let remove t id =
  check_id t id "remove";
  if not t.member.(id) then
    invalid_arg (Printf.sprintf "Dll.remove(%s): %d not a member" t.name id);
  let p = t.prev.(id) and n = t.next.(id) in
  if p <> nil then t.next.(p) <- n else t.first <- n;
  if n <> nil then t.prev.(n) <- p else t.last <- p;
  t.member.(id) <- false;
  t.prev.(id) <- nil;
  t.next.(id) <- nil;
  t.length <- t.length - 1

let pop_front t =
  if t.first = nil then None
  else begin
    let id = t.first in
    remove t id;
    Some id
  end

let pop_back t =
  if t.last = nil then None
  else begin
    let id = t.last in
    remove t id;
    Some id
  end

let peek_front t = if t.first = nil then None else Some t.first

let iter t f =
  let rec go id = if id <> nil then begin f id; go t.next.(id) end in
  go t.first

let to_list t =
  let acc = ref [] in
  iter t (fun id -> acc := id :: !acc);
  List.rev !acc

let find t p =
  let rec go id = if id = nil then None else if p id then Some id else go t.next.(id) in
  go t.first

(* One forward pass checks membership, the length and every back link;
   the backward traversal runs only when a back link is wrong, to name
   the fault (a cycle, or a disagreement with the forward order). *)
let wf t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let cap = capacity t in
  (* Bounded by capacity to detect cycles; [linked] says every back link
     so far mirrors the forward order. *)
  let rec forward id prev count linked =
    if id = nil then Ok (count, linked && prev = t.last)
    else if count > cap then err "%s: forward traversal exceeds capacity (cycle)" t.name
    else if not t.member.(id) then err "%s: %d linked but not a member" t.name id
    else forward t.next.(id) id (count + 1) (linked && t.prev.(id) = prev)
  in
  let rec backward id count =
    if id = nil then err "%s: forward/backward traversals disagree" t.name
    else if count > cap then err "%s: backward traversal exceeds capacity" t.name
    else backward t.prev.(id) (count + 1)
  in
  match forward t.first nil 0 true with
  | Error _ as e -> e
  | Ok (n, linked) ->
    if n <> t.length then err "%s: length %d but traversal found %d" t.name t.length n
    else if not linked then backward t.last 0
    else begin
      (* Membership flags must match exactly the traversed ids. *)
      let members = ref 0 in
      for id = 0 to cap - 1 do
        if t.member.(id) then incr members
      done;
      if !members <> t.length then
        err "%s: %d member flags but length %d" t.name !members t.length
      else Ok ()
    end
