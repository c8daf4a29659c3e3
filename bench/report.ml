(* report: merge BENCH_*.json, enforce floors, diff the last summary. *)

open Common

let files =
  [ "obs"; "san"; "tlb"; "ipc"; "span"; "dev"; "verif"; "smp"; "slo" ]
  |> List.map (fun key -> (key, Printf.sprintf "BENCH_%s.json" key))

(* Numeric leaves as (dotted path, value, spread): a host-time field's
   spread is its [_iqr] sibling; a field without one is deterministic
   (a cycle-model value or a count) and has none.  The [_iqr] fields
   themselves are spreads, not results. *)
let rec leaves prefix v acc =
  match v with
  | J.Obj kvs ->
    List.fold_left
      (fun acc (k, x) ->
        match x with
        | J.Num n when not (String.ends_with ~suffix:"_iqr" k) ->
          let spread = J.to_float (List.assoc_opt (k ^ "_iqr") kvs) in
          ((prefix ^ "." ^ k, n, spread) :: acc)
        | _ -> leaves (prefix ^ "." ^ k) x acc)
      acc kvs
  | _ -> acc

(* Advisory deltas against the previous summary: a host-time field
   moved by more than its recorded IQR, or a deterministic field that
   changed at all. *)
let deltas ~prev summary =
  let old = List.map (fun (k, n, _) -> (k, n)) (leaves "" prev []) in
  let shown = ref 0 in
  List.iter
    (fun (k, n, spread) ->
      match List.assoc_opt k old with
      | None -> ()
      | Some o ->
        let pct =
          if o = 0. then "" else Printf.sprintf "  (%+.1f%%)" (100. *. (n -. o) /. Float.abs o)
        in
        (match spread with
         | Some iqr when Float.abs (n -. o) > iqr ->
           incr shown;
           line "  delta host  %-46s %12.3f -> %12.3f%s, IQR %.3f" k o n pct iqr
         | None when n <> o ->
           incr shown;
           line "  delta model %-46s %12.3f -> %12.3f%s" k o n pct
         | _ -> ()))
    (List.rev (leaves "" summary []));
  if !shown = 0 then
    line "  no host-time field moved past its IQR and no deterministic field changed"
  else
    line "  (%d field(s) moved; deltas are advisory, the floors below gate)" !shown

let run () =
  section "Bench report: merge BENCH_*.json, enforce floors, diff the last summary";
  let loaded =
    List.filter_map
      (fun (key, f) ->
        if Sys.file_exists f then (
          match J.of_file f with
          | Ok v -> Some (key, v)
          | Error m ->
            line "  %s: unreadable (%s); skipped" f m;
            None)
        else begin
          line "  %s: missing (run its bench to regenerate); skipped" f;
          None
        end)
      files
  in
  let summary = J.Obj loaded in
  (match
     if Sys.file_exists "BENCH_summary.json" then Result.to_option (J.of_file "BENCH_summary.json")
     else None
   with
   | None -> line "  no previous BENCH_summary.json; skipping deltas"
   | Some prev -> deltas ~prev summary);
  J.to_file "BENCH_summary.json" summary;
  line "  wrote BENCH_summary.json (%d bench file(s) merged)" (List.length loaded);
  (* hard floors: a regression here fails the gate.  A floor whose
     bench file is missing was reported above and is skipped; a floor
     whose field is absent from a file that exists (or cannot be read)
     fails, so a field lost from a bench cannot pass as held. *)
  let failures = ref 0 in
  let floor name p read check =
    let fail why =
      incr failures;
      line "  floor %-42s FAIL  (%s)" name why
    in
    let file = List.assoc (List.hd p) files in
    if not (Sys.file_exists file) then line "  floor %-42s SKIP (%s missing)" name file
    else
      match read (J.path p summary) with
      | None -> fail (String.concat "." p ^ " absent")
      | Some v -> check fail v
  in
  let floor_num name p ~min_v =
    floor name p J.to_float (fun fail v ->
        if v >= min_v then line "  floor %-42s ok    (%.3f >= %.3f)" name v min_v
        else fail (Printf.sprintf "%.3f < %.3f" v min_v))
  in
  let floor_max name p ~max_v =
    floor name p J.to_float (fun fail v ->
        if v <= max_v then line "  floor %-42s ok    (%.3f <= %.3f)" name v max_v
        else fail (Printf.sprintf "%.3f > %.3f" v max_v))
  in
  let floor_true name p =
    floor name p J.to_bool (fun fail v -> if v then line "  floor %-42s ok" name else fail "false")
  in
  floor_true "obs cycle identity" [ "obs"; "cycle_identity" ];
  floor_max "obs traced overhead <= 100%" [ "obs"; "overhead_pct" ] ~max_v:100.0;
  floor_max "obs zero drops" [ "obs"; "events_dropped" ] ~max_v:0.0;
  floor_true "obs lossless accounting" [ "obs"; "accounting_exact" ];
  floor_true "san cycle identity" [ "san"; "cycle_identity" ];
  floor_true "span cycle identity" [ "span"; "cycle_identity" ];
  floor_true "tlb replay identity" [ "tlb"; "replay_identity" ];
  floor_num "tlb load reduction >= 5x" [ "tlb"; "load_reduction" ] ~min_v:5.0;
  floor_num "ipc map-op reduction >= 2x"
    [ "ipc"; "rendezvous_machinery_map_op_reduction" ]
    ~min_v:2.0;
  floor_true "dev virtio/ixgbe delivery identity" [ "dev"; "virtio_ixgbe_delivery_identity" ];
  floor_true "dev kv blk identity" [ "dev"; "kv_blk_identity" ];
  floor_true "dev kv nic identity" [ "dev"; "kv_nic_identity" ];
  floor_num "dev hostile delivery >= 0.9" [ "dev"; "hostile_delivery_ratio" ] ~min_v:0.9;
  floor_true "dev hostile lint clean" [ "dev"; "hostile_lint_clean" ];
  floor_true "verif incremental verdict identity" [ "verif"; "verdicts_identical" ];
  floor_true "verif incremental all ok" [ "verif"; "all_ok" ];
  floor_true "verif re-check within 20% budget" [ "verif"; "recheck_within_budget" ];
  floor_num "verif incremental speedup >= 5x" [ "verif"; "speedup" ] ~min_v:5.0;
  floor_true "smp big-vs-fine oracle identity" [ "smp"; "oracle_identity" ];
  floor_num "smp fine-grained 8-cpu speedup >= 2.5x"
    [ "smp"; "fine_speedup_8cpu" ] ~min_v:2.5;
  floor_true "slo cycle identity" [ "slo"; "cycle_identity" ];
  floor_max "slo monitor delta <= 15 points" [ "slo"; "overhead_delta_pts" ] ~max_v:15.0;
  floor_max "slo zero drops" [ "slo"; "events_dropped" ] ~max_v:0.0;
  floor_true "slo rollup accounting exact" [ "slo"; "rollup_exact" ];
  floor_true "slo online/post-mortem quantile agreement" [ "slo"; "quantile_agreement" ];
  floor_true "slo exemplar coverage of injected slow" [ "slo"; "exemplar_coverage" ];
  floor_true "slo injected breach detected" [ "slo"; "slo_violated_as_expected" ];
  if !failures > 0 then begin
    line "  %d floor(s) FAILED" !failures;
    exit 1
  end
  else line "  all floors hold"
