type event = ..

type kind = Access | Alloc | Perm | Pt | Devices

let bit = function Access -> 1 | Alloc -> 2 | Perm -> 4 | Pt -> 8 | Devices -> 16

type subscriber = { key : string; mask : int; f : event -> unit }

let subscribers : subscriber list ref = ref []

(* The union of the subscribers' masks, recomputed on every
   (un)subscribe so the emit-site guard never walks the list. *)
let interest = ref 0

let set subs =
  subscribers := subs;
  interest := List.fold_left (fun m s -> m lor s.mask) 0 subs

let unsubscribe ~key = set (List.filter (fun s -> s.key <> key) !subscribers)

let subscribe ~key ~kinds f =
  let mask = List.fold_left (fun m k -> m lor bit k) 0 kinds in
  set (List.filter (fun s -> s.key <> key) !subscribers @ [ { key; mask; f } ])

let wants k = !interest land bit k <> 0

let emit k ev =
  let b = bit k in
  List.iter (fun s -> if s.mask land b <> 0 then s.f ev) !subscribers

(* A counter carries its kind's bit, so [tick] is one call: the count
   and the guard together. *)
type counter = { n : int Atomic.t; bit : int }

(* Interning is rare (state creation) and guarded by a mutex; ticks are
   atomic, so parallel discharge domains building scratch worlds stay
   safe. *)
let counters : (string, counter) Hashtbl.t = Hashtbl.create 16
let counters_mu = Mutex.create ()

let counter k id =
  Mutex.protect counters_mu (fun () ->
      match Hashtbl.find_opt counters id with
      | Some c -> c
      | None ->
        let c = { n = Atomic.make 0; bit = bit k } in
        Hashtbl.add counters id c;
        c)

let tick c =
  Atomic.incr c.n;
  !interest land c.bit <> 0

let count id =
  Mutex.protect counters_mu (fun () ->
      match Hashtbl.find_opt counters id with Some c -> Atomic.get c.n | None -> 0)

let ids () =
  Mutex.protect counters_mu (fun () ->
      List.sort String.compare (Hashtbl.fold (fun id _ acc -> id :: acc) counters []))
