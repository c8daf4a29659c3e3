(* -1 is the nil link.  Membership is a bitmap, 32 ids per [bits]
   word (bit [id land 31] of word [id lsr 5]), and is the source of
   truth, so that id 0 with nil links is unambiguous.  Bits past the
   capacity are always clear; [members] counts the set bits.

   Every write (a push, a remove, a backdoor setter) advances
   [version].  Once a reader has started the log ([start_log]), each
   write is also logged before it is made, in slot [version mod
   log_length] of [log], which covers the versions from [logged_from]
   on.  A slot holds [width] ids of four bytes each: the ids whose
   links or membership the write changes, and the old target of every
   link it writes, [first] and [last] included ([nil] pads).  The new
   targets are among the changed ids. *)
type t = {
  name : string;
  prev : int array;
  next : int array;
  bits : int array;
  mutable first : int;
  mutable last : int;
  mutable length : int;
  mutable members : int;
  mutable version : int;
  mutable log : Bytes.t;
  mutable logged_from : int;
}

let nil = -1
let word_bits = 32
let full = (1 lsl word_bits) - 1
let log_length = 64
let width = 5

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
    members = 0;
    version = 0;
    log = Bytes.empty;
    logged_from = max_int;
  }

let name t = t.name
let capacity t = Array.length t.prev
let length t = t.length
let is_empty t = t.length = 0
let version t = t.version

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let logging t = Bytes.length t.log > 0

(* Log the write about to be made, under the version it will take. *)
let note t a b c d e =
  let log = t.log and s = t.version land (log_length - 1) * width * 4 in
  set32u log s (Int32.of_int a);
  set32u log (s + 4) (Int32.of_int b);
  set32u log (s + 8) (Int32.of_int c);
  set32u log (s + 12) (Int32.of_int d);
  set32u log (s + 16) (Int32.of_int e)

let stamp t = t.version <- t.version + 1

let start_log t =
  if Bytes.length t.log = 0 then begin
    t.log <- Bytes.make (log_length * width * 4) '\255';
    t.logged_from <- t.version
  end

let check_id t id op =
  if id < 0 || id >= capacity t then
    invalid_arg (Printf.sprintf "Dll.%s(%s): id %d out of range" op t.name id)

let member t id = t.bits.(id lsr 5) land (1 lsl (id land 31)) <> 0

let set_member t id v =
  let w = id lsr 5 and bit = 1 lsl (id land 31) in
  let b = t.bits.(w) in
  if v && b land bit = 0 then begin
    t.bits.(w) <- b lor bit;
    t.members <- t.members + 1
  end
  else if (not v) && b land bit <> 0 then begin
    t.bits.(w) <- b land lnot bit;
    t.members <- t.members - 1
  end

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
  let f = t.first in
  if logging t then note t id f t.prev.(id) t.next.(id) (if f <> nil then t.prev.(f) else t.last);
  stamp t;
  set_member t id true;
  t.prev.(id) <- nil;
  t.next.(id) <- f;
  if f <> nil then t.prev.(f) <- id else t.last <- id;
  t.first <- id;
  t.length <- t.length + 1

let push_back t id =
  check_id t id "push_back";
  if member t id then
    invalid_arg (Printf.sprintf "Dll.push_back(%s): %d already a member" t.name id);
  let l = t.last in
  if logging t then note t id l t.next.(id) t.prev.(id) (if l <> nil then t.next.(l) else t.first);
  stamp t;
  set_member t id true;
  t.next.(id) <- nil;
  t.prev.(id) <- l;
  if l <> nil then t.next.(l) <- id else t.first <- id;
  t.last <- id;
  t.length <- t.length + 1

let remove t id =
  check_id t id "remove";
  if not (member t id) then
    invalid_arg (Printf.sprintf "Dll.remove(%s): %d not a member" t.name id);
  let p = t.prev.(id) and n = t.next.(id) in
  if logging t then
    note t id p n (if p <> nil then t.next.(p) else t.first) (if n <> nil then t.prev.(n) else t.last);
  stamp t;
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

let walks = Atomic.make 0
let full_walks () = Atomic.get walks

(* One forward pass checks membership, the length and every back link;
   the backward traversal runs only when a back link is wrong, to name
   the fault (a cycle, or a disagreement with the forward order). *)
let wf t =
  Atomic.incr walks;
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

(* The per-range check.  Given a clean [wf] at [v], a member's links
   are mirrored by its neighbours, a nil link makes it the end
   ([first] or [last]) and every member is on the chain between the
   ends, unless a write since [v] changed it, and each such write
   logged the ids on both sides of every link it moved, the old ends
   included.  So a member that was not logged is still mirrored, an
   end that moved was logged, and checking the logged ids' back links
   and the ends leaves the members on one chain from [first] to [last]
   plus, maybe, detached cycles.  Counting the members against the
   length catches a member spliced in or lost; a detached cycle keeps
   the count, but it must hold a logged member, so a walk from each
   logged member to either end rules it out.  The walks share a budget of one list
   length; past it, or past [max_walks] walks, the full check
   decides. *)

let in_range t i = i lor (capacity t - 1 - i) >= 0

(* Walks from more logged members than this cost more than the full
   check's one pass. *)
let max_walks = 32

(* A logged id's links: a member's back link is mirrored by its
   predecessor (or it is [first]); a non-member is linked by neither of
   its old neighbours.  Forward links need no rule of their own: once
   every member's back link is mirrored, each member is the successor
   of its predecessor, so the members form one chain from [first] plus
   cycles, and [ends_ok] makes [last], whose forward link is nil, that
   chain's tail. *)
let links_ok t i =
  let n = t.next.(i) and p = t.prev.(i) in
  if member t i then if p = nil then t.first = i else in_range t p && member t p && t.next.(p) = i
  else
    let names x = in_range t x && member t x && (t.next.(x) = i || t.prev.(x) = i) in
    not (names n || names p)

(* The ends: both nil, or members with nil outer links.  A remove
   through a corrupted link can leave either end naming a non-member,
   which no logged id's links show. *)
let ends_ok t =
  if t.first = nil || t.last = nil then t.first = nil && t.last = nil
  else
    in_range t t.first && in_range t t.last && member t t.first && member t t.last
    && t.prev.(t.first) = nil
    && t.next.(t.last) = nil

(* From [fwd] and [back], a step forward and a step back in turn until
   either link is nil: the budget left then, or [-1] when the budget
   runs out first, or [-2] at a link outside the ids. *)
let rec reach t fwd back budget =
  if budget <= 0 then -1
  else
    let fwd = t.next.(fwd) and back = t.prev.(back) in
    if fwd = nil || back = nil then budget - 1
    else if in_range t fwd && in_range t back then reach t fwd back (budget - 1)
    else -2

(* The logged id in place [j] of write [w]. *)
let logged t w j = Int32.to_int (get32u t.log (((w land (log_length - 1) * width) + j) * 4))

(* Every logged id of the writes from [w] on is visited and its links
   hold. *)
let rec links_from t visit w j =
  if w = t.version then true
  else if j = width then links_from t visit (w + 1) 0
  else
    let i = logged t w j in
    (i = nil || (not (in_range t i)) || (visit i && links_ok t i)) && links_from t visit w (j + 1)

(* The walks from every logged member of the writes from [w] on, none
   twice, sharing [budget]. *)
let rec walks_from t w j budget walked =
  if w = t.version then `Clean
  else if j = width then walks_from t (w + 1) 0 budget walked
  else
    let i = logged t w j in
    if i = nil || (not (in_range t i)) || (not (member t i)) || List.mem i walked then
      walks_from t w (j + 1) budget walked
    else if List.compare_length_with walked max_walks >= 0 then `Costly
    else
      match reach t i i budget with
      | -1 -> `Costly
      | -2 -> `Broken
      | budget -> walks_from t w (j + 1) budget (i :: walked)

let wf_since t v visit =
  v >= t.logged_from
  && t.version - v <= log_length
  && links_from t visit v 0
  && t.members = t.length
  && ends_ok t
  &&
  match walks_from t v 0 (t.length + 2) [] with
  | `Clean -> true
  | `Broken -> false
  | `Costly -> Result.is_ok (wf t)

module Backdoor = struct
  let set_next t id n =
    if logging t then note t id t.next.(id) n nil nil;
    stamp t;
    t.next.(id) <- n

  let set_prev t id p =
    if logging t then note t id t.prev.(id) p nil nil;
    stamp t;
    t.prev.(id) <- p

  let set_member t id v =
    if logging t then note t id nil nil nil nil;
    stamp t;
    set_member t id v
end
