(* -1 is the nil link.  Membership is a bitmap, 32 ids per [bits]
   word (bit [id land 31] of word [id lsr 5]), and is the source of
   truth, so that id 0 with nil links is unambiguous.  Bits past the
   capacity are always clear.  [version] advances on every membership
   write and every backdoor link write; each push and remove makes
   exactly one membership write, so it also covers their link and
   length writes. *)
type t = {
  name : string;
  prev : int array;
  next : int array;
  bits : int array;
  mutable first : int;
  mutable last : int;
  mutable length : int;
  mutable version : int;
}

let nil = -1
let word_bits = 32
let full = (1 lsl word_bits) - 1

let create ~capacity ~name =
  if capacity <= 0 then invalid_arg "Dll.create: capacity <= 0";
  {
    name;
    prev = Array.make capacity nil;
    next = Array.make capacity nil;
    bits = Array.make ((capacity + word_bits - 1) / word_bits) 0;
    first = nil;
    last = nil;
    length = 0;
    version = 0;
  }

let name t = t.name
let capacity t = Array.length t.prev
let length t = t.length
let is_empty t = t.length = 0
let version t = t.version
let stamp t = t.version <- t.version + 1

let check_id t id op =
  if id < 0 || id >= capacity t then
    invalid_arg (Printf.sprintf "Dll.%s(%s): id %d out of range" op t.name id)

let member t id = t.bits.(id lsr 5) land (1 lsl (id land 31)) <> 0

let set_member t id v =
  let w = id lsr 5 and bit = 1 lsl (id land 31) in
  t.bits.(w) <- (if v then t.bits.(w) lor bit else t.bits.(w) land lnot bit);
  stamp t

let mem t id =
  check_id t id "mem";
  member t id

(* Whole words of members are compared with [full]; only the partial
   words at either end are masked. *)
let mem_range t ~lo ~hi =
  if lo < 0 || hi > capacity t then
    invalid_arg (Printf.sprintf "Dll.mem_range(%s): [%d, %d) out of range" t.name lo hi);
  let covers w mask = t.bits.(w) land mask = mask in
  if hi <= lo then true
  else
    let wlo = lo lsr 5 and whi = (hi - 1) lsr 5 in
    let head = full land lnot ((1 lsl (lo land 31)) - 1)
    and tail = full lsr (word_bits - 1 - ((hi - 1) land 31)) in
    if wlo = whi then covers wlo (head land tail)
    else
      covers wlo head
      && covers whi tail
      &&
      let rec middle w = w >= whi || (t.bits.(w) = full && middle (w + 1)) in
      middle (wlo + 1)

let push_front t id =
  check_id t id "push_front";
  if member t id then
    invalid_arg (Printf.sprintf "Dll.push_front(%s): %d already a member" t.name id);
  set_member t id true;
  t.prev.(id) <- nil;
  t.next.(id) <- t.first;
  if t.first <> nil then t.prev.(t.first) <- id else t.last <- id;
  t.first <- id;
  t.length <- t.length + 1

let push_back t id =
  check_id t id "push_back";
  if member t id then
    invalid_arg (Printf.sprintf "Dll.push_back(%s): %d already a member" t.name id);
  set_member t id true;
  t.next.(id) <- nil;
  t.prev.(id) <- t.last;
  if t.last <> nil then t.next.(t.last) <- id else t.first <- id;
  t.last <- id;
  t.length <- t.length + 1

let remove t id =
  check_id t id "remove";
  if not (member t id) then
    invalid_arg (Printf.sprintf "Dll.remove(%s): %d not a member" t.name id);
  let p = t.prev.(id) and n = t.next.(id) in
  if p <> nil then t.next.(p) <- n else t.first <- n;
  if n <> nil then t.prev.(n) <- p else t.last <- p;
  set_member t id false;
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

(* Set bits of a word of [word_bits] bits. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

(* One forward pass checks membership, the length and every back link;
   the backward traversal runs only when a back link is wrong, to name
   the fault (a cycle, or a disagreement with the forward order). *)
let wf t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let cap = capacity t in
  let next = t.next and prev = t.prev and bits = t.bits in
  (* Bounded by capacity to detect cycles; [linked] says every back link
     so far mirrors the forward order.  One range test per id covers
     the three array reads; a wild link stops the traversal. *)
  let id = ref t.first and back = ref nil and count = ref 0 and linked = ref true in
  let cycle = ref false and stray = ref nil and outside = ref nil in
  while !id <> nil do
    let i = !id in
    if i lor (cap - 1 - i) < 0 then begin
      outside := i;
      id := nil
    end
    else if !count > cap then begin
      cycle := true;
      id := nil
    end
    else if Array.unsafe_get bits (i lsr 5) land (1 lsl (i land 31)) = 0 then begin
      stray := i;
      id := nil
    end
    else begin
      if Array.unsafe_get prev i <> !back then linked := false;
      back := i;
      incr count;
      id := Array.unsafe_get next i
    end
  done;
  let link_outside i = err "%s: link to %d outside [0, %d)" t.name i cap in
  let rec backward id count =
    if id = nil then err "%s: forward/backward traversals disagree" t.name
    else if id lor (cap - 1 - id) < 0 then link_outside id
    else if count > cap then err "%s: backward traversal exceeds capacity" t.name
    else backward t.prev.(id) (count + 1)
  in
  if !outside <> nil then link_outside !outside
  else if !cycle then err "%s: forward traversal exceeds capacity (cycle)" t.name
  else if !stray <> nil then err "%s: %d linked but not a member" t.name !stray
  else if !count <> t.length then
    err "%s: length %d but traversal found %d" t.name t.length !count
  else if not (!linked && !back = t.last) then backward t.last 0
  else begin
    (* Membership flags must match exactly the traversed ids: every
       traversed id is a member, so equal counts mean equal sets. *)
    let members = ref 0 in
    for w = 0 to Array.length bits - 1 do
      let b = bits.(w) in
      if b = full then members := !members + word_bits
      else if b <> 0 then members := !members + popcount b
    done;
    if !members <> t.length then
      err "%s: %d member flags but length %d" t.name !members t.length
    else Ok ()
  end

module Backdoor = struct
  let set_next t id n =
    t.next.(id) <- n;
    stamp t

  let set_prev t id p =
    t.prev.(id) <- p;
    stamp t

  let set_member = set_member
end
