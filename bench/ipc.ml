(* IPC fastpath: ping-pong with the fastpath on vs off.

   One round = the receiver parks in Recv, the sender rendezvous-sends
   and the CPU switches to the receiver.  The park is identical work in
   both configurations; the rendezvous send is the operation the
   fastpath rebuilds, so the bench reports it separately: total map
   operations (permission-map borrows/updates, each one host-level
   Imap traffic), the same past the 2-operation capability decode both
   paths share (thread borrow + endpoint borrow), allocation, and the
   host time of a round.  The oracle test proves the two configurations
   leave bit-identical kernels, so every delta here is pure mechanism
   cost. *)

open Common

(* Ping-pong rounds in the counting pass, and in each timed sample. *)
let pingpongs = 20000
let batch = 2000
let decode_ops = 2 (* thread borrow + endpoint borrow, both paths *)

let counter name = O.Metrics.Counter.value (O.Metrics.counter name)

type side = {
  ns : float list;  (** host ns per round, one sample per timing round *)
  fast : int;
  slow : int;
  round_ops : int;
  send_ops : int;
  send_words : float;
}

(* Map-operation and allocation accounting over [pingpongs] rounds of
   the world left by the timed samples. *)
let count (w : Scenario.pair) ns =
  let fast0 = counter "ipc/fastpath" and slow0 = counter "ipc/slowpath" in
  let round0 = H.pm_borrows () in
  let send_ops = ref 0 and send_words = ref 0. in
  for i = 0 to pingpongs - 1 do
    ignore (Kernel.step w.kernel ~thread:w.peer Scenario.recv);
    let b0 = H.pm_borrows () in
    let a0 = Gc.minor_words () in
    ignore (Kernel.step w.kernel ~thread:w.init (Scenario.send i));
    send_words := !send_words +. (Gc.minor_words () -. a0);
    send_ops := !send_ops + (H.pm_borrows () - b0)
  done;
  {
    ns;
    fast = counter "ipc/fastpath" - fast0;
    slow = counter "ipc/slowpath" - slow0;
    round_ops = H.pm_borrows () - round0;
    send_ops = !send_ops;
    send_words = !send_words;
  }

let run () =
  section "IPC ping-pong: fastpath on vs off (host time; map ops; allocation)";
  let world fastpath =
    Kernel.set_fastpath fastpath;
    Scenario.boot_pair ()
  in
  let worlds = [| world false; world true |] in
  let config i () =
    Kernel.set_fastpath (i = 1);
    fun () -> pingpong worlds.(i) batch
  in
  let times = rotating [ config 0; config 1 ] in
  let per_round ms = List.map (fun ms -> ms *. 1e6 /. float_of_int batch) ms in
  let side i =
    Kernel.set_fastpath (i = 1);
    count worlds.(i) (per_round (List.nth times i))
  in
  let off = side 0 in
  let on = side 1 in
  Kernel.set_fastpath true;
  let per r = float_of_int r /. float_of_int pingpongs in
  let show label s =
    line "  %-13s %a host ns per round" label pp_timed s.ns;
    line "  %-13s fastpath %d  slowpath %d  map ops/round %.1f" "" s.fast s.slow (per s.round_ops);
    line "  %-13s rendezvous send: map ops %.1f  minor words %.1f" "" (per s.send_ops)
      (s.send_words /. float_of_int pingpongs)
  in
  line "round = park Recv + rendezvous Send; %d timing rounds of %d, then %d counted:" rounds
    batch pingpongs;
  show "fastpath off:" off;
  show "fastpath on: " on;
  let m0 = per off.send_ops -. float_of_int decode_ops in
  let m1 = per on.send_ops -. float_of_int decode_ops in
  let ratio_m = m0 /. Float.max 1e-9 m1 in
  let ratio_s = per off.send_ops /. Float.max 1e-9 (per on.send_ops) in
  let ratio_a = off.send_words /. Float.max 1. on.send_words in
  line "  rendezvous machinery past the %d-op capability decode: %.1f vs %.1f map ops" decode_ops
    m0 m1;
  line "  -> %.2fx fewer map operations in the rendezvous machinery (floor: 2x)" ratio_m;
  line "  -> %.2fx fewer map operations, %.2fx fewer minor words per rendezvous send" ratio_s
    ratio_a;
  let side_json s =
    J.Obj
      (timed "round_ns" s.ns
      @ [
          ("fastpath_hits", J.Num (float_of_int s.fast));
          ("slowpath_hits", J.Num (float_of_int s.slow));
          ("round_map_ops", J.Num (per s.round_ops));
          ("send_map_ops", J.Num (per s.send_ops));
          ("send_minor_words", J.Num (s.send_words /. float_of_int pingpongs));
        ])
  in
  write_bench_json "BENCH_ipc.json"
    [
      ("bench", J.Str "ipc_pingpong");
      ("rounds", J.Num (float_of_int pingpongs));
      ("timing_rounds", J.Num (float_of_int rounds));
      ("decode_map_ops", J.Num (float_of_int decode_ops));
      ("fastpath_off", side_json off);
      ("fastpath_on", side_json on);
      ("rendezvous_machinery_map_op_reduction", J.Num ratio_m);
      ("send_map_op_reduction", J.Num ratio_s);
      ("send_alloc_reduction", J.Num ratio_a);
    ]
