open Atmo_util

exception Permission_violation of string

(* A mutation attempt, on the mutation stream (kind [Perm]). *)
type op = Alloc | Consume | Update

type Mutation.event += Perm of { name : string; op : op; ptr : int }

let id name = "pm/" ^ name
let dom_id name = "pm/" ^ name ^ "/dom"

type 'a t = {
  name : string;
  mutable map : 'a Imap.t;
  borrows : Atmo_obs.Metrics.Counter.t;
      (* borrows/updates, under [pm/borrows/<name>] in the obs registry
         so benches and the CLI see them next to every other metric *)
  muts : Mutation.counter;  (* intrinsic [id name] counter, shared per name *)
}

let create ~name =
  {
    name;
    map = Imap.empty;
    borrows = Atmo_obs.Metrics.counter ("pm/borrows/" ^ name);
    muts = Mutation.counter Mutation.Perm (id name);
  }

let name t = t.name

(* One intrinsic count and, when a [Perm] subscriber exists, one event
   per mutation attempt — before the linearity guard, matching the
   sanitizer's long-standing view that a double alloc is still an
   observable mutation attempt.  Borrows are reads and are not
   reported. *)
let note t op ~ptr =
  if Mutation.tick t.muts then Mutation.emit Mutation.Perm (Perm { name = t.name; op; ptr })

let violation t fmt =
  Format.kasprintf (fun s -> raise (Permission_violation (t.name ^ ": " ^ s))) fmt

let alloc t ~ptr v =
  note t Alloc ~ptr;
  if Imap.mem ptr t.map then violation t "double allocation at 0x%x" ptr;
  t.map <- Imap.add ptr v t.map

let consume t ~ptr =
  note t Consume ~ptr;
  match Imap.find_opt ptr t.map with
  | None -> violation t "consume of absent permission 0x%x" ptr
  | Some v ->
    t.map <- Imap.remove ptr t.map;
    v

let borrow t ~ptr =
  Atmo_obs.Metrics.Counter.incr t.borrows;
  match Imap.find_opt ptr t.map with
  | None -> violation t "borrow of absent permission 0x%x" ptr
  | Some v -> v

let borrow_opt t ~ptr =
  Atmo_obs.Metrics.Counter.incr t.borrows;
  Imap.find_opt ptr t.map

let update t ~ptr f =
  Atmo_obs.Metrics.Counter.incr t.borrows;
  note t Update ~ptr;
  match Imap.find_opt ptr t.map with
  | None -> violation t "update of absent permission 0x%x" ptr
  | Some v -> t.map <- Imap.add ptr (f v) t.map

let map t = t.map
let mem t ~ptr = Imap.mem ptr t.map
let dom t = Imap.dom t.map
let cardinal t = Imap.cardinal t.map
let iter f t = Imap.iter f t.map
let fold f t acc = Imap.fold f t.map acc
let bindings t = Imap.bindings t.map
let for_all f t = Imap.for_all f t.map
