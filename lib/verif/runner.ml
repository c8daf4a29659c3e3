type report = {
  results : Obligation.result list;
  wall_s : float;
  threads : int;
  rechecked : int;
  reused : int;
}

type incremental = {
  is_dirty : string -> bool;
  cached : string -> Obligation.result option;
}

(* Duplicate names silently shadow each other in grouped reports and in
   the incremental verdict cache, so a suite with duplicates is a bug
   in the catalog, not a property of the kernel. *)
let duplicate_name obls =
  let seen = Hashtbl.create (max 8 (List.length obls)) in
  List.find_map
    (fun (o : Obligation.t) ->
      if Hashtbl.mem seen o.Obligation.name then Some o.Obligation.name
      else (Hashtbl.add seen o.Obligation.name (); None))
    obls

let check_unique obls =
  match duplicate_name obls with
  | Some n -> invalid_arg ("Runner.run: duplicate obligation name " ^ n)
  | None -> ()

(* Every discharge runs under this wrapper; [Incremental.arm] installs
   its suspension here, so the scratch worlds a discharge builds never
   dirty the maps of the kernel it tracks, whoever called [run]. *)
let suspend : ((unit -> unit) -> unit) ref = ref (fun f -> f ())
let set_suspend wrap = suspend := Option.value wrap ~default:(fun f -> f ())

let run_sequential obls = List.map Obligation.discharge obls

(* Static round-robin partition over domains: obligations are
   independent, so any split is sound; round-robin balances the heavy
   kernel-wide checks across domains.  Domain [d] discharges inputs
   [d], [d + threads], ... and writes each result into that input's
   slot, so the results come back in input order. *)
let run_parallel ~threads obls =
  let obls = Array.of_list obls in
  let results = Array.make (Array.length obls) None in
  let domain d =
    Domain.spawn (fun () ->
        let i = ref d in
        while !i < Array.length obls do
          results.(!i) <- Some (Obligation.discharge obls.(!i));
          i := !i + threads
        done)
  in
  List.iter Domain.join (List.init threads domain);
  Array.to_list (Array.map Option.get results)

(* An obligation may be skipped only when it is annotated, has a cached
   verdict, and none of its declared reads is dirty.  Unannotated
   obligations ([reads = None]) are always re-discharged. *)
let reusable incr (o : Obligation.t) =
  match o.Obligation.reads with
  | None -> None
  | Some reads -> (
    match incr.cached o.Obligation.name with
    | None -> None
    | Some r -> if List.exists incr.is_dirty reads then None else Some r)

let run ?(threads = 1) ?incremental obls =
  Printexc.record_backtrace true;
  check_unique obls;
  let t0 = Obligation.now () in
  let plan =
    List.map
      (fun o ->
        match incremental with
        | None -> Either.Left o
        | Some incr -> (
          match reusable incr o with
          | Some r -> Either.Right { r with Obligation.cached = true }
          | None -> Either.Left o))
      obls
  in
  let to_run = List.filter_map (function Either.Left o -> Some o | _ -> None) plan in
  let fresh = ref [] in
  !suspend (fun () ->
      fresh := if threads <= 1 then run_sequential to_run else run_parallel ~threads to_run);
  (* splice fresh results back into suite order *)
  let results =
    List.map
      (function
        | Either.Right r -> r
        | Either.Left _ -> (
          match !fresh with
          | r :: rest ->
            fresh := rest;
            r
          | [] -> assert false))
      plan
  in
  let rechecked = List.length to_run in
  { results;
    wall_s = Obligation.now () -. t0;
    threads;
    rechecked;
    reused = List.length results - rechecked }

let all_ok r = List.for_all (fun (x : Obligation.result) -> x.Obligation.ok) r.results
let failures r = List.filter (fun (x : Obligation.result) -> not x.Obligation.ok) r.results

let total_check_time r =
  List.fold_left (fun acc (x : Obligation.result) -> acc +. x.Obligation.elapsed_s) 0. r.results

let by_group obls =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (o : Obligation.t) ->
      if not (Hashtbl.mem tbl o.Obligation.group) then order := o.Obligation.group :: !order;
      Hashtbl.replace tbl o.Obligation.group
        (o :: Option.value ~default:[] (Hashtbl.find_opt tbl o.Obligation.group)))
    obls;
  List.rev_map (fun g -> (g, List.rev (Hashtbl.find tbl g))) !order

let pp ppf r =
  Format.fprintf ppf
    "@[<v>%d obligations on %d thread(s), wall %.3f s, check %.3f s%s@,"
    (List.length r.results) r.threads r.wall_s (total_check_time r)
    (if r.reused > 0 then Printf.sprintf " (%d rechecked, %d reused)" r.rechecked r.reused
     else "");
  List.iter (fun x -> Format.fprintf ppf "%a@," Obligation.pp_result x) r.results;
  Format.fprintf ppf "@]"
