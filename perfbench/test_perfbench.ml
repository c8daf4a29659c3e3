(* Seeds pin the benchmark: the same seed gives bit-identical simulated
   results, and different seeds give different request and op streams.
   Each workload runs one short block per seed. *)

open Perfbench

let kv seed =
  let w = Kv.setup ~seed () in
  Fun.protect ~finally:Kv.teardown (fun () ->
      Kv.prepare w;
      ignore (Kv.block w (Harness.meter ()));
      (w.Kv.stream, Kv.sim_digest w, Atmo_hw.Clock.now w.Kv.clock, w.Kv.bad, w.Kv.layer_mismatch))

let mm seed =
  let w = Mm.setup ~seed () in
  ignore (Mm.block w (Harness.meter ()));
  (w.Mm.stream, w.Mm.stats_digest, Mm.digest_abstract w.Mm.k, w.Mm.bad)

let verify seed =
  let w = Verify.setup ~seed () in
  ignore (Verify.block w (Harness.meter ()));
  (w.Verify.stream, w.Verify.bad)

let test_kv () =
  let s1, lat1, end1, bad1, mis1 = kv 1 in
  let s1', lat1', end1', _, _ = kv 1 in
  let s2, _, _, bad2, _ = kv 2 in
  Alcotest.(check int) "same seed, same latency digest" lat1 lat1';
  Alcotest.(check int) "same seed, same end cycle" end1 end1';
  Alcotest.(check int) "same seed, same request stream" s1 s1';
  Alcotest.(check bool) "different seeds, different request streams" true (s1 <> s2);
  Alcotest.(check int) "every reply matches the shadow store" 0 (bad1 + bad2);
  Alcotest.(check int) "layers sum to every round trip" 0 mis1

let test_mm () =
  let s1, st1, abs1, bad1 = mm 1 in
  let s1', st1', abs1', _ = mm 1 in
  let s2, _, _, bad2 = mm 2 in
  Alcotest.(check int) "same seed, same Smp stats" st1 st1';
  Alcotest.(check int) "same seed, same abstract state" abs1 abs1';
  Alcotest.(check int) "same seed, same op stream" s1 s1';
  Alcotest.(check bool) "different seeds, different op streams" true (s1 <> s2);
  Alcotest.(check int) "every return matches the shadow" 0 (bad1 + bad2)

let test_verify () =
  let s1, bad1 = verify 1 in
  let s1', _ = verify 1 in
  let s2, bad2 = verify 2 in
  Alcotest.(check int) "same seed, same transitions" s1 s1';
  Alcotest.(check bool) "different seeds, different transitions" true (s1 <> s2);
  Alcotest.(check int) "every transition checks" 0 (bad1 + bad2)

let test_quartiles () =
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q3 = Harness.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-9)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-9)) "q3" 8.25 q3

let () =
  Alcotest.run "perfbench"
    [
      ( "seeds",
        [
          Alcotest.test_case "kv" `Quick test_kv;
          Alcotest.test_case "mm" `Quick test_mm;
          Alcotest.test_case "verify" `Quick test_verify;
        ] );
      ("harness", [ Alcotest.test_case "quartiles match Python" `Quick test_quartiles ]);
    ]
