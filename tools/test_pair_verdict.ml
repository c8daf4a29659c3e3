(* The verdict `make perf-pairs` prints per metric: gain, worse than
   its bound, or unresolved when the base's own spread is wider than
   the bound. *)

module V = Pair_verdict

let outcome =
  Alcotest.testable
    (fun ppf o ->
      Format.pp_print_string ppf
        (match o with V.Within_bound -> "within bound" | Worse -> "worse" | Unresolved -> "unresolved"))
    ( = )

let check what ~higher ~bound ~base ~change ~gain ~expect =
  let v = V.judge ~higher ~bound ~base ~change in
  Alcotest.(check bool) (what ^ ": gain") gain v.V.gain;
  Alcotest.check outcome (what ^ ": outcome") expect v.V.outcome

(* ten base runs around 100 with an inter-quartile range of about 2 *)
let tight = [ 99.; 101.; 100.; 98.; 102.; 100.; 99.; 101.; 100.5; 99.5 ]

let test_gain () =
  check "1.5x throughput, every pair won" ~higher:true ~bound:0.2 ~base:tight
    ~change:(List.map (fun x -> 1.5 *. x) tight) ~gain:true ~expect:V.Within_bound;
  check "8 of 10 pairs won" ~higher:true ~bound:0.2 ~base:tight
    ~change:(List.mapi (fun i x -> if i < 2 then x -. 5. else x +. 5.) tight)
    ~gain:false ~expect:V.Within_bound;
  check "every pair won by less than the base's IQR" ~higher:true ~bound:0.2 ~base:tight
    ~change:(List.map (fun x -> x +. 0.5) tight) ~gain:false ~expect:V.Within_bound

let test_worse () =
  check "throughput 30% down" ~higher:true ~bound:0.2 ~base:tight
    ~change:(List.map (fun x -> 0.7 *. x) tight) ~gain:false ~expect:V.Worse;
  check "time 30% up" ~higher:false ~bound:0.25 ~base:tight
    ~change:(List.map (fun x -> 1.3 *. x) tight) ~gain:false ~expect:V.Worse;
  check "time 10% up" ~higher:false ~bound:0.25 ~base:tight
    ~change:(List.map (fun x -> 1.1 *. x) tight) ~gain:false ~expect:V.Within_bound

(* kv verify_s: the base's IQR is a third of its median, over the 25 %
   bound *)
let wide = [ 5.0; 6.1; 8.2; 6.0; 4.9; 6.3; 8.0; 6.2; 5.1; 7.9 ]

let test_unresolved () =
  let v = V.judge ~higher:false ~bound:0.25 ~base:wide ~change:wide in
  Alcotest.(check bool) "spread over the bound" true (v.V.spread > 0.25);
  check "the same runs again" ~higher:false ~bound:0.25 ~base:wide ~change:wide ~gain:false
    ~expect:V.Unresolved;
  check "a 40% rise inside the spread" ~higher:false ~bound:0.25 ~base:wide
    ~change:(List.map (fun x -> 1.4 *. x) wide) ~gain:false ~expect:V.Unresolved;
  check "every change run faster than every base run" ~higher:false ~bound:0.25 ~base:wide
    ~change:(List.map (fun x -> x /. 3.) [ 8.; 9.; 9.5; 8.5; 9.; 9.8; 8.1; 9.2; 9.; 8.8 ])
    ~gain:true ~expect:V.Within_bound

let () =
  Alcotest.run "pair_verdict"
    [
      ( "verdict",
        [
          Alcotest.test_case "gain" `Quick test_gain;
          Alcotest.test_case "worse than the bound" `Quick test_worse;
          Alcotest.test_case "unresolved" `Quick test_unresolved;
        ] );
    ]
