(* Paired comparison of the repo benchmark between a base revision and
   the working tree.

     perf_pairs.exe --base REV --pairs N --workload W --seed S

   Exports REV's committed files ([git archive REV | tar -x]) into a
   directory under the temporary directory ($TMPDIR), so nothing is
   written under .git, builds both trees, then runs the command of
   BENCHMARK.json with its run_seconds N times on each side, alternating
   which side goes first.  Only the JSON summary on the last line of
   each run's output is read.  For every end-to-end metric it prints
   each side's median and quartiles (Python's statistics.quantiles,
   n=4), the change's wins out of N pairs, whether the change is worse
   than the base by more than the metric's bound, and whether it is a
   gain: a win in at least 9 of every 10 pairs and a median better by
   more than the base's inter-quartile range.  A metric whose base
   spread (inter-quartile range over median) exceeds its bound is
   "unresolved" unless every change run beats every base run
   ([Pair_verdict.judge]).  Last, for each simulated ([sim_*]) metric,
   it prints whether all 2N runs gave one value.  The exported tree is removed
   on exit; each run's output stays beside it, in
   $TMPDIR/atmo-perf-pairs-*/.  Run from the repo root
   (`make perf-pairs`). *)

module J = Atmo_util.Minijson
module H = Perfbench.Harness

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf-pairs: " ^ s); exit 2) fmt

let sh ?(quiet = false) fmt =
  Printf.ksprintf
    (fun cmd ->
      let cmd = if quiet then cmd ^ " > /dev/null 2>&1" else cmd in
      Sys.command cmd)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let last_line s =
  match List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s) with
  | [] -> ""
  | ls -> List.nth ls (List.length ls - 1)

type metric = { name : string; unit_ : string; higher : bool; bound : float }

let benchmark () =
  let j = match J.of_file "BENCHMARK.json" with Ok j -> j | Error e -> die "BENCHMARK.json: %s" e in
  let command =
    match J.member "command" j with
    | Some (J.Arr parts) ->
      List.map (function J.Str s -> Filename.quote s | _ -> die "command: not a string list") parts
      |> String.concat " "
    | _ -> die "BENCHMARK.json has no command"
  in
  let seconds =
    match J.to_float (J.member "run_seconds" j) with
    | Some s -> s
    | None -> die "BENCHMARK.json has no run_seconds"
  in
  let metrics =
    match J.member "end_to_end" j with
    | Some (J.Arr ms) ->
      List.map
        (fun m ->
          let str k = Option.value ~default:"" (J.to_string (J.member k m)) in
          {
            name = str "name";
            unit_ = str "unit";
            higher = str "better" = "higher";
            bound = Option.value ~default:0. (J.to_float (J.member "bound" m));
          })
        ms
    | _ -> die "BENCHMARK.json has no end_to_end list"
  in
  (command, seconds, metrics)

(* One run in [dir]: the metric values of its JSON last line. *)
let run ~dir ~command ~args ~log =
  let status = sh "cd %s && %s %s > %s" (Filename.quote dir) command args (Filename.quote log) in
  let line = last_line (read_file log) in
  if status <> 0 then die "run in %s exited %d (output in %s)" dir status log;
  match J.of_string line with
  | Error e -> die "run in %s: last line is not JSON (%s)" dir e
  | Ok j ->
    if J.to_bool (J.member "correct" j) <> Some true then
      die "run in %s reported correct = false (output in %s)" dir log;
    fun name -> J.to_float (J.path [ "metrics"; name; "value" ] j)

let report metrics pairs =
  let n = List.length pairs in
  let stat xs =
    let q1, q3 = H.quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g]" (H.median xs) q1 q3
  in
  Printf.printf "\n%-16s %-4s  %-30s %-30s %-7s %-8s %s\n" "metric" "unit"
    "base median [q1, q3]" "change median [q1, q3]" "wins" "delta" "verdict";
  List.iter
    (fun m ->
      let base = List.filter_map (fun (b, _) -> b m.name) pairs
      and change = List.filter_map (fun (_, c) -> c m.name) pairs in
      if List.length base <> n || List.length change <> n then
        Printf.printf "%-16s missing from some runs\n" m.name
      else begin
        let v = Pair_verdict.judge ~higher:m.higher ~bound:m.bound ~base ~change in
        Printf.printf "%-16s %-4s  %-30s %-30s %-7s %+7.1f%% %s%s\n" m.name m.unit_ (stat base)
          (stat change)
          (Printf.sprintf "%d/%d" v.wins n)
          (100. *. v.delta)
          (if v.gain then "gain" else "no gain")
          (match v.outcome with
           | Pair_verdict.Within_bound -> ""
           | Worse -> Printf.sprintf ", WORSE than its %.0f%% bound" (100. *. m.bound)
           | Unresolved ->
             Printf.sprintf ", unresolved (base IQR %.0f%% of its median, bound %.0f%%)"
               (100. *. v.spread) (100. *. m.bound))
      end)
    metrics;
  Printf.printf
    "\ngain = the change won at least %d of %d pairs and its median beats the base's by \
     more than the base's inter-quartile range.\n\
     unresolved = the base's inter-quartile range exceeds the metric's bound and not every \
     change run beats every base run.\n"
    (Pair_verdict.wins_needed n) n;
  (* The cycle model is deterministic: a simulated metric is the same
     number in every run of both sides, or the change moved it. *)
  Printf.printf "\n";
  List.iter
    (fun m ->
      if String.starts_with ~prefix:"sim_" m.name then
        let side f = List.sort_uniq compare (List.filter_map (fun p -> (f p) m.name) pairs) in
        match (side fst, side snd) with
        | _ when List.exists (fun (b, c) -> b m.name = None || c m.name = None) pairs ->
          Printf.printf "%-16s missing from some runs\n" m.name
        | [ b ], [ c ] when b = c -> Printf.printf "%-16s identical in all %d runs (%.10g)\n" m.name (2 * n) b
        | b, c ->
          let show vs = String.concat ", " (List.map (Printf.sprintf "%.10g") vs) in
          Printf.printf "%-16s NOT identical over the %d runs: base {%s}, change {%s}\n" m.name
            (2 * n) (show b) (show c))
    metrics

let () =
  let base = ref "HEAD~1" and pairs = ref 10 and workload = ref "mm" and seed = ref 1 in
  Arg.parse
    [
      ("--base", Arg.Set_string base, "REV  base revision (default HEAD~1)");
      ("--pairs", Arg.Set_int pairs, "N  pairs of runs (default 10)");
      ("--workload", Arg.Set_string workload, "W  benchmark workload (default mm)");
      ("--seed", Arg.Set_int seed, "S  benchmark seed (default 1)");
    ]
    (fun a -> die "unexpected argument %s" a)
    "perf_pairs.exe [--base REV] [--pairs N] [--workload W] [--seed S]";
  if !pairs < 1 then die "--pairs must be positive";
  if not (Sys.file_exists "BENCHMARK.json") then die "run from the repo root";
  let command, seconds, metrics = benchmark () in
  let work = Filename.temp_dir "atmo-perf-pairs-" "" in
  let tree = Filename.concat work "base" in
  let cleanup () = ignore (sh ~quiet:true "rm -rf %s" (Filename.quote tree)) in
  at_exit cleanup;
  if
    sh ~quiet:true "mkdir %s && git archive %s | tar -x -C %s" (Filename.quote tree)
      (Filename.quote !base) (Filename.quote tree)
    <> 0
  then die "cannot export %s into %s" !base tree;
  Printf.printf "base %s in %s; change = the working tree\n%!" !base tree;
  List.iter
    (fun dir ->
      Printf.printf "building %s\n%!" dir;
      if sh "cd %s && dune build --display quiet" (Filename.quote dir) <> 0
      then die "build failed in %s" dir)
    [ tree; Sys.getcwd () ];
  let args =
    Printf.sprintf "--workload %s --seed %d --seconds %g" (Filename.quote !workload) !seed seconds
  in
  let side name dir i =
    let log = Filename.concat work (Printf.sprintf "%s-%d.out" name i) in
    run ~dir ~command ~args ~log
  in
  let results =
    List.init !pairs (fun i ->
        (* alternate which side runs first *)
        let b, c =
          if i mod 2 = 0 then
            let b = side "base" tree i in
            (b, side "change" (Sys.getcwd ()) i)
          else
            let c = side "change" (Sys.getcwd ()) i in
            (side "base" tree i, c)
        in
        Printf.printf "pair %d/%d done (%s first)\n%!" (i + 1) !pairs
          (if i mod 2 = 0 then "base" else "change");
        (b, c))
  in
  Printf.printf "\n%s seed %d, %d pairs of %g s runs: %s vs the working tree\n" !workload !seed
    !pairs seconds !base;
  report metrics results
