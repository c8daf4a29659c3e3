(* Stale-proof lint: compare each layer's always-on intrinsic mutation
   counter (Atmo_util.Mutation) against what the incremental verifier's dirty
   tracker observed.  If a container was mutated more times than the
   tracker saw, some mutation bypassed the dirty set — every cached
   verdict that reads the container is a stale proof.  No-op when no
   tracker is armed (nothing claims cached verdicts then). *)

module Incremental = Atmo_verif.Incremental

let lint (_k : Atmo_core.Kernel.t) =
  let misses = Incremental.audit () in
  List.iter
    (fun (id, expected, observed) ->
      Report.record Report.Stale_proof ~site:"proof_lint" ~page:(-1)
        ~detail:
          (Printf.sprintf
             "map %s: %d mutation(s) since baseline but tracker observed %d — %d \
              unmarked; cached verdicts reading %s are stale"
             id expected observed (expected - observed) id))
    misses;
  List.length misses
