module H = Perfbench.Harness

type outcome = Within_bound | Worse | Unresolved

let wins_needed n = ((9 * n) + 9) / 10

type t = {
  wins : int;
  delta : float;
  spread : float;
  gain : bool;
  outcome : outcome;
}

let judge ~higher ~bound ~base ~change =
  let better x y = if higher then x > y else x < y in
  let wins = List.length (List.filter (fun (b, c) -> better c b) (List.combine base change)) in
  let mb = H.median base and mc = H.median change in
  let b1, b3 = H.quartiles base in
  let relative x = if mb = 0. then 0. else x /. Float.abs mb in
  let delta = relative (mc -. mb) in
  let spread = relative (b3 -. b1) in
  let gain =
    wins >= wins_needed (List.length base) && better mc mb && Float.abs (mc -. mb) > b3 -. b1
  in
  let every_run_better = List.for_all (fun c -> List.for_all (better c) base) change in
  let outcome =
    if spread > bound && not every_run_better then Unresolved
    else if (if higher then -.delta else delta) > bound then Worse
    else Within_bound
  in
  { wins; delta; spread; gain; outcome }
