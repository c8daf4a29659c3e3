(* Heap words a piece of code allocates.  [Gc.minor_words] is exact at
   any point (it reads the allocation pointer), unlike [Gc.quick_stat],
   whose counters only advance at collections.  Blocks above the
   minor-heap size limit (256 words) would bypass it; the code measured
   here allocates nothing that large per call. *)

let words () = Gc.minor_words ()

(* What one reading costs (the boxed float it returns), measured once
   and subtracted. *)
let probe_cost =
  let w0 = words () in
  words () -. w0

(* Mean words per call of [f] over [n] calls. *)
let per_call ?(n = 200) f =
  let w0 = words () in
  for _ = 1 to n do
    f ()
  done;
  (words () -. w0 -. probe_cost) /. float_of_int n

let check_at_most what ~limit words =
  if words > limit then
    Alcotest.failf "%s allocates %.1f words per call (limit %.0f)" what words limit
