module Mutation = Atmo_util.Mutation
module Perm_map = Atmo_pm.Perm_map
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table
module Kernel = Atmo_core.Kernel

(* ------------------------------------------------------------------ *)
(* The tracker                                                         *)

type counter = { mutable seen : int; mutable acked : int }

type t = {
  table : (string, counter) Hashtbl.t;  (* map id -> counts observed on the stream *)
  baselines : (string, int) Hashtbl.t;  (* audited id -> intrinsic at sync *)
  cache : (string, Obligation.result) Hashtbl.t;  (* obligation name -> verdict *)
  mutable suspended : bool;  (* discharge in progress: ignore scratch worlds *)
  mutable planted : bool;  (* stale-proof plant: drop marks on the floor *)
}

let active : t option ref = ref None
let stream_key = "verif-incremental"

let counter_of t id =
  match Hashtbl.find_opt t.table id with
  | Some c -> c
  | None ->
    let c = { seen = 0; acked = 0 } in
    Hashtbl.add t.table id c;
    c

let bump t id =
  let c = counter_of t id in
  c.seen <- c.seen + 1

let mark t id = if not (t.suspended || t.planted) then bump t id

(* Invariant audited by atmo_san's stale-proof lint: for every id with
   an intrinsic counter, intrinsic_now = baseline + seen.  [arm]
   snapshots the baselines; a counter interned later has counted only
   since then, so its baseline is 0. *)
let counts () = List.map (fun id -> (id, Mutation.count id)) (Mutation.ids ())

(* Run [f] with dirty marking off.  A discharge builds scratch worlds
   whose mutations bump the intrinsic counters but must not dirty the
   tracked kernel's maps, so each baseline moves by exactly the
   mutations [f] performed: a miss from before [f] still breaks the
   equation.  [arm] hands this to [Runner], which runs every discharge
   under it. *)
let suspend t f =
  let before = counts () in
  t.suspended <- true;
  Fun.protect
    ~finally:(fun () ->
      t.suspended <- false;
      List.iter
        (fun (id, now) ->
          let was = Option.value ~default:0 (List.assoc_opt id before) in
          let base = Option.value ~default:0 (Hashtbl.find_opt t.baselines id) in
          Hashtbl.replace t.baselines id (base + now - was))
        (counts ()))
    f

let arm () =
  let t =
    {
      table = Hashtbl.create 16;
      baselines = Hashtbl.create 8;
      cache = Hashtbl.create 64;
      suspended = false;
      planted = false;
    }
  in
  List.iter (fun (id, n) -> Hashtbl.replace t.baselines id n) (counts ());
  Mutation.subscribe ~key:stream_key ~kinds:Mutation.[ Alloc; Perm; Pt; Devices ] (function
    | Perm_map.Perm { name; op; _ } ->
      mark t (Perm_map.id name);
      if op <> Perm_map.Update then mark t (Perm_map.dom_id name)
    | Page_alloc.Alloc _ -> mark t Page_alloc.map_id
    | Page_table.Pt_changed -> mark t Page_table.map_id
    | Kernel.Devices_changed -> mark t Kernel.devices_id
    | _ -> ());
  Runner.set_suspend (Some (suspend t));
  active := Some t

let disarm () =
  Mutation.unsubscribe ~key:stream_key;
  Runner.set_suspend None;
  active := None

let is_armed () = !active <> None

let set_miss_plant on =
  match !active with Some t -> t.planted <- on | None -> ()

let is_dirty_in t id =
  match Hashtbl.find_opt t.table id with
  | None -> false
  | Some c -> c.seen > c.acked

let is_dirty id = match !active with None -> true | Some t -> is_dirty_in t id

let dirty_ids () =
  match !active with
  | None -> []
  | Some t ->
    Hashtbl.fold (fun id c acc -> if c.seen > c.acked then id :: acc else acc) t.table []
    |> List.sort compare

(* Audit for the stale-proof lint: ids whose intrinsic mutation count
   moved past what the tracker observed.  [(id, expected, observed)]
   where expected = intrinsic_now - baseline. *)
let audit () =
  match !active with
  | None -> []
  | Some t ->
    List.filter_map
      (fun id ->
        let base = Option.value ~default:0 (Hashtbl.find_opt t.baselines id) in
        let expected = Mutation.count id - base in
        let observed = (counter_of t id).seen in
        if expected <> observed then Some (id, expected, observed) else None)
      (Mutation.ids ())

let run ?(threads = 1) obls =
  match !active with
  | None -> Runner.run ~threads obls
  | Some t ->
    let ctx =
      { Runner.is_dirty = is_dirty_in t; cached = Hashtbl.find_opt t.cache }
    in
    let report = Runner.run ~threads ~incremental:ctx obls in
    List.iter
      (fun (r : Obligation.result) ->
        Hashtbl.replace t.cache r.Obligation.name { r with Obligation.cached = false })
      report.Runner.results;
    Hashtbl.iter (fun _ c -> c.acked <- c.seen) t.table;
    report
