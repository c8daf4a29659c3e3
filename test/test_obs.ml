(* Observability subsystem: flight-recorder ring invariants, the slot
   format (the writers against the boxed oracle encoder, the decoder and
   the printer), histogram quantiles, and the zero-overhead contract of
   the Disabled sink. *)

module Event = Atmo_obs.Event
module Flight = Atmo_obs.Flight
module Metrics = Atmo_obs.Metrics
module Sink = Atmo_obs.Sink
module Syscall = Atmo_spec.Syscall
module Errno = Atmo_util.Errno

(* Run [f recorder clock] with a fresh recorder installed and the sink's
   clock reading [!clock]. *)
let recording ?(cpus = 1) ~slots f =
  Atmo_obs.Span.with_recorder ~cpus ~slots (fun recorder ->
      let clock = ref 0 in
      Sink.set_clock (fun () -> !clock);
      f recorder clock)

(* One page_alloc stamped [ts] on [cpu]'s ring. *)
let record_at clock ~cpu ts =
  clock := ts;
  Sink.set_cpu cpu;
  Sink.emit_page_alloc ~addr:ts ~order:0 ()

(* Timestamps of [cpu]'s live slots, oldest first, decoded in place. *)
let live_ts f ~cpu =
  List.init (Flight.length f ~cpu) (fun i ->
      let off = Flight.slot_offset f ~cpu (Flight.tail f ~cpu + i) in
      match Event.decode_at (Flight.arena f) off with
      | Some r -> r.Event.ts
      | None -> Alcotest.fail "undecodable slot")

(* ------------------------------------------------------------------ *)
(* flight recorder rings                                               *)

let test_ring_fill () =
  recording ~slots:8 (fun f clock ->
      Alcotest.(check int) "empty" 0 (Flight.length f ~cpu:0);
      for i = 0 to 4 do
        record_at clock ~cpu:0 i
      done;
      Alcotest.(check int) "length" 5 (Flight.length f ~cpu:0);
      Alcotest.(check int) "no drops" 0 (Flight.dropped f ~cpu:0);
      Alcotest.(check (list int)) "oldest first" [ 0; 1; 2; 3; 4 ] (live_ts f ~cpu:0))

let test_ring_wraparound () =
  recording ~slots:8 (fun f clock ->
      for i = 0 to 19 do
        record_at clock ~cpu:0 i
      done;
      Alcotest.(check int) "capped at slots" 8 (Flight.length f ~cpu:0);
      Alcotest.(check int) "drop counter" 12 (Flight.dropped f ~cpu:0);
      Alcotest.(check int) "head counts all pushes" 20 (Flight.head f ~cpu:0);
      (* oldest 12 were overwritten: the survivors are exactly 12..19 *)
      Alcotest.(check (list int)) "last slots survive, oldest first"
        [ 12; 13; 14; 15; 16; 17; 18; 19 ]
        (live_ts f ~cpu:0))

let test_ring_per_cpu_isolation () =
  recording ~cpus:2 ~slots:4 (fun f clock ->
      for i = 0 to 9 do
        record_at clock ~cpu:1 i
      done;
      Alcotest.(check int) "cpu0 untouched" 0 (Flight.length f ~cpu:0);
      Alcotest.(check int) "cpu1 full" 4 (Flight.length f ~cpu:1);
      Alcotest.(check int) "cpu1 drops" 6 (Flight.dropped f ~cpu:1);
      Alcotest.(check int) "total drops" 6 (Flight.total_dropped f);
      Flight.clear f;
      Alcotest.(check int) "clear resets length" 0 (Flight.length f ~cpu:1);
      Alcotest.(check int) "clear resets ring drop word" 0 (Flight.dropped f ~cpu:1);
      (* clear keeps the slots' stale bytes: nothing outside tail..head
         may decode *)
      Alcotest.(check int) "cleared rings decode nothing" 0 (List.length (Sink.records ()));
      (* the lossless tally is not part of the ring state: drop accounting
         must survive a clear or benchmarks under-report *)
      Alcotest.(check int) "lifetime drops survive clear" 6 (Flight.total_dropped f);
      for i = 0 to 4 do
        record_at clock ~cpu:1 i
      done;
      Alcotest.(check int) "post-clear drops accumulate" 7 (Flight.total_dropped f);
      Alcotest.(check int) "per-cpu lifetime view" 7 (Flight.lifetime_dropped f ~cpu:1);
      Alcotest.(check (list int)) "post-clear ring holds only new events" [ 1; 2; 3; 4 ]
        (live_ts f ~cpu:1))

let test_ring_rejects_bad_geometry () =
  Alcotest.check_raises "slots must be a power of two"
    (Invalid_argument "Flight.create: slots must be a positive power of two")
    (fun () -> ignore (Flight.create ~cpus:1 ~slots:6 ~slot_size:Event.slot_bytes))

(* ------------------------------------------------------------------ *)
(* the slot format: oracle encoder, decoder, printer                  *)

let sample_events =
  [
    Event.Syscall_enter { thread = 0x14000; sysno = 8 };
    Event.Syscall_exit { thread = 0x14000; sysno = 8; errno = None };
    Event.Syscall_exit { thread = 1; sysno = 0; errno = Some Errno.Enomem };
    Event.Page_alloc { addr = 0x15000; order = 0 };
    Event.Page_free { addr = 0x200000; order = 1 };
    Event.Superpage_merge { head = 0x200000; order = 1 };
    Event.Ep_create { container = 0x10000 };
    Event.Ep_send { ep = 0x15000; sender = 0x13000; receiver = 0x14000 };
    Event.Ep_recv { ep = 0x15000; receiver = 0x14000; sender = 0x13000 };
    Event.Ep_block { ep = 0x15000; thread = 0x14000; dir = Event.Dir_recv };
    Event.Ep_block { ep = 0x15000; thread = 0x13000; dir = Event.Dir_send };
    Event.Mmu_walk { vaddr = 0x4000_0000; ok = true };
    Event.Mmu_walk { vaddr = 0x7fff_0000; ok = false };
    Event.Pte_touch { table = 0x3000; index = 511 };
    Event.Drv_doorbell { device = 7; queue = 0 };
    Event.Drv_completion { device = 7; count = 32 };
    Event.Lock_acquire { cpu = 3; wait_cycles = 458 };
    Event.Tlb_hit { vaddr = 0x4000_1000 };
    Event.Tlb_miss { vaddr = 0x4000_2000 };
    Event.Tlb_flush { asid = 0x3000; entries = 17 };
    Event.Ep_fastpath { ep = 0x15000; sender = 0x13000; receiver = 0x14000 };
    Event.Span_begin { span = 42; parent = 7; kind = 2; owner = 0x10000 };
    Event.Span_end { span = 42; kind = 2; owner = 0x10000 };
    Event.Causal { edge = 1; src = 42; dst = 43 };
    Event.Dev_fault { device = 11; fault = 1 };
    Event.Dev_fault { device = 13; fault = 7 };
    Event.Dev_recover { device = 11; fault = 4 };
    Event.Span_pair { span = 44; parent = 42; kind = 3; owner = 0x10000 };
  ]

let test_samples_cover_every_tag () =
  let tags = List.sort_uniq compare (List.map Event_oracle.tag_of sample_events) in
  Alcotest.(check (list int)) "one sample per tag code"
    (List.init Event.tag_count (fun i -> i + 1))
    tags

let test_roundtrip_samples () =
  List.iter
    (fun ev ->
      let b = Event_oracle.encode ~ts:12345 ~cpu:1 ev in
      Alcotest.(check int) "slot size" Event.slot_bytes (Bytes.length b);
      let tag = Event_oracle.tag_of ev in
      match Event.decode_at b 0 with
      | None -> Alcotest.failf "decode failed for %s" (Event.tag_name tag)
      | Some r ->
        Alcotest.(check bool) "event survives" true (ev = r.Event.ev);
        Alcotest.(check int) "tag survives" tag r.Event.tag;
        Alcotest.(check int) "ts survives" 12345 r.Event.ts;
        Alcotest.(check int) "cpu survives" 1 r.Event.cpu)
    sample_events

let test_empty_slot_decodes_to_none () =
  Alcotest.(check bool) "zeroed slot is empty" true
    (Event.decode_at (Bytes.make Event.slot_bytes '\000') 0 = None)

(* The printed line of every sample, recorded by the writers on CPU 1 at
   cycle (i + 1) * 987654 and decoded in place (so the span pair prints
   as one record).  The expected lines pin [Event.pp_record] byte for
   byte: every tag, both [Ep_block] directions and an errno exit. *)
let test_printer_pins_every_line () =
  let lines =
    recording ~cpus:2 ~slots:64 (fun f clock ->
        Sink.set_cpu 1;
        List.iteri
          (fun i ev ->
            clock := (i + 1) * 987_654;
            Event_oracle.emit ev)
          sample_events;
        List.init (Flight.length f ~cpu:1) (fun i ->
            match Event.decode_at (Flight.arena f) (Flight.slot_offset f ~cpu:1 i) with
            | Some r -> Fmt.str "%a" Event.pp_record r
            | None -> "<empty>"))
  in
  Alcotest.(check (list string)) "pp_record lines"
    [
      "[cpu1 @    987654] syscall_enter  send               thread=0x14000";
      "[cpu1 @   1975308] syscall_exit   send               thread=0x14000 ok";
      "[cpu1 @   2962962] syscall_exit   mmap               thread=0x1 ENOMEM";
      "[cpu1 @   3950616] page_alloc     addr=0x15000 order=0";
      "[cpu1 @   4938270] page_free      addr=0x200000 order=1";
      "[cpu1 @   5925924] superpage_merge head=0x200000 order=1";
      "[cpu1 @   6913578] ep_create      container=0x10000";
      "[cpu1 @   7901232] ep_send        ep=0x15000 sender=0x13000 receiver=0x14000";
      "[cpu1 @   8888886] ep_recv        ep=0x15000 receiver=0x14000 sender=0x13000";
      "[cpu1 @   9876540] ep_block       ep=0x15000 thread=0x14000 dir=recv";
      "[cpu1 @  10864194] ep_block       ep=0x15000 thread=0x13000 dir=send";
      "[cpu1 @  11851848] mmu_walk       vaddr=0x40000000 hit";
      "[cpu1 @  12839502] mmu_walk       vaddr=0x7fff0000 miss";
      "[cpu1 @  13827156] pte_touch      table=0x3000 index=511";
      "[cpu1 @  14814810] drv_doorbell   device=7 queue=0";
      "[cpu1 @  15802464] drv_completion device=7 count=32";
      "[cpu1 @  16790118] lock_acquire   cpu=3 wait=458";
      "[cpu1 @  17777772] tlb_hit        vaddr=0x40001000";
      "[cpu1 @  18765426] tlb_miss       vaddr=0x40002000";
      "[cpu1 @  19753080] tlb_flush      asid=0x3000 entries=17";
      "[cpu1 @  20740734] ep_fastpath    ep=0x15000 sender=0x13000 receiver=0x14000";
      "[cpu1 @  21728388] span_begin     ipc_rendezvous #42 parent=#7 owner=0x10000";
      "[cpu1 @  22716042] span_end       ipc_rendezvous #42 owner=0x10000";
      "[cpu1 @  23703696] causal         ipc            #42 -> #43";
      "[cpu1 @  24691350] dev_fault      device=11 malformed-desc";
      "[cpu1 @  25679004] dev_fault      device=13 dma-escape";
      "[cpu1 @  26666658] dev_recover    device=11 irq-storm";
      "[cpu1 @  27654312] span_pair      ctx_switch     #44 parent=#42 owner=0x10000";
    ]
    lines

let gen_event =
  let open QCheck.Gen in
  let id = int_bound 0xfffff in
  let sysno = int_bound (Event.syscall_count - 1) in
  let errno =
    oneofl
      [ None; Some Errno.Enomem; Some Errno.Einval; Some Errno.Eperm; Some Errno.Ebusy ]
  in
  oneof
    [
      map2 (fun thread sysno -> Event.Syscall_enter { thread; sysno }) id sysno;
      map3
        (fun thread sysno errno -> Event.Syscall_exit { thread; sysno; errno })
        id sysno errno;
      map2 (fun addr order -> Event.Page_alloc { addr; order }) id (int_bound 2);
      map2 (fun addr order -> Event.Page_free { addr; order }) id (int_bound 2);
      map2 (fun head order -> Event.Superpage_merge { head; order }) id (int_bound 2);
      map (fun container -> Event.Ep_create { container }) id;
      map3 (fun ep sender receiver -> Event.Ep_send { ep; sender; receiver }) id id id;
      map3 (fun ep receiver sender -> Event.Ep_recv { ep; receiver; sender }) id id id;
      map3
        (fun ep thread d ->
          Event.Ep_block { ep; thread; dir = (if d then Event.Dir_send else Event.Dir_recv) })
        id id bool;
      map2 (fun vaddr ok -> Event.Mmu_walk { vaddr; ok }) id bool;
      map2 (fun table index -> Event.Pte_touch { table; index }) id (int_bound 511);
      map2 (fun device queue -> Event.Drv_doorbell { device; queue }) (int_bound 255)
        (int_bound 255);
      map2 (fun device count -> Event.Drv_completion { device; count }) (int_bound 255) id;
      map2 (fun cpu wait_cycles -> Event.Lock_acquire { cpu; wait_cycles }) (int_bound 255)
        id;
    ]

let print_event ev =
  Fmt.str "%a" Event.pp_record { Event.ts = 0; cpu = 0; tag = Event_oracle.tag_of ev; ev }

let arb_event = QCheck.make ~print:print_event gen_event

let prop_encode_decode_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trips any event" ~count:500
    QCheck.(triple arb_event (int_bound 0x3fff_ffff) (int_bound 7))
    (fun (ev, ts, cpu) ->
      match Event.decode_at (Event_oracle.encode ~ts ~cpu ev) 0 with
      | None -> false
      | Some r ->
        ev = r.Event.ev && r.Event.tag = Event_oracle.tag_of ev && r.Event.ts = ts
        && r.Event.cpu = cpu)

let test_syscall_names_match_spec () =
  (* the names are spelled out here, not read back from [Event]: a
     syscall renumbered against the name table prints the wrong name *)
  let calls =
    [
      ( Syscall.Mmap
          { va = 0; count = 1; size = Atmo_pmem.Page_state.S4k; perm = Atmo_hw.Pte_bits.perm_rw },
        "mmap" );
      (Syscall.Munmap { va = 0; count = 1; size = Atmo_pmem.Page_state.S4k }, "munmap");
      (Syscall.Mprotect { va = 0; perm = Atmo_hw.Pte_bits.perm_rw }, "mprotect");
      (Syscall.New_container { quota = 1; cpus = Atmo_util.Iset.empty }, "new_container");
      (Syscall.New_process, "new_process");
      (Syscall.New_thread, "new_thread");
      (Syscall.New_endpoint { slot = 0 }, "new_endpoint");
      (Syscall.Close_endpoint { slot = 0 }, "close_endpoint");
      (Syscall.Send { slot = 0; msg = Atmo_pm.Message.scalars_only [] }, "send");
      (Syscall.Recv { slot = 0 }, "recv");
      (Syscall.Send_nb { slot = 0; msg = Atmo_pm.Message.scalars_only [] }, "send_nb");
      (Syscall.Recv_nb { slot = 0 }, "recv_nb");
      (Syscall.Recv_reject { slot = 0 }, "recv_reject");
      (Syscall.Yield, "yield");
      (Syscall.Terminate_container { container = 0 }, "terminate_container");
      (Syscall.Terminate_process { proc = 0 }, "terminate_process");
      (Syscall.Assign_device { device = 0 }, "assign_device");
      (Syscall.Io_map { device = 0; iova = 0; va = 0 }, "io_map");
      (Syscall.Io_unmap { device = 0; iova = 0 }, "io_unmap");
      (Syscall.Register_irq { device = 0; slot = 0 }, "register_irq");
      (Syscall.Irq_fire { device = 0 }, "irq_fire");
    ]
  in
  Alcotest.(check int) "one sample per syscall" Event.syscall_count (List.length calls);
  List.iter
    (fun (c, name) ->
      Alcotest.(check string) (Printf.sprintf "number %d" (Syscall.number c)) name (Syscall.name c))
    calls

(* ------------------------------------------------------------------ *)
(* histograms                                                          *)

let test_histogram_basics () =
  let h = Metrics.Histogram.make "t" in
  Alcotest.(check int) "empty quantile" 0 (Metrics.Histogram.p99 h);
  List.iter (Metrics.Histogram.observe h) [ 1; 2; 3; 100; 1000 ];
  Alcotest.(check int) "count" 5 (Metrics.Histogram.count h);
  Alcotest.(check int) "sum" 1106 (Metrics.Histogram.sum h);
  Alcotest.(check int) "min" 1 (Metrics.Histogram.min_value h);
  Alcotest.(check int) "max" 1000 (Metrics.Histogram.max_value h);
  (* quantiles land on bucket upper edges, clamped to observed extremes *)
  Alcotest.(check int) "p50 in third bucket" 3 (Metrics.Histogram.p50 h);
  Alcotest.(check int) "p99 clamps to max" 1000 (Metrics.Histogram.p99 h)

let test_counter_monotonic () =
  let c = Metrics.Counter.make "t" in
  Metrics.Counter.incr c;
  Metrics.Counter.incr ~by:5 c;
  Metrics.Counter.incr ~by:(-3) c;
  Alcotest.(check int) "negative increments ignored" 6 (Metrics.Counter.value c)

let prop_quantiles_monotone =
  QCheck.Test.make ~name:"histogram quantiles are monotone and bounded" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 1_000_000))
    (fun samples ->
      let h = Metrics.Histogram.make "q" in
      List.iter (Metrics.Histogram.observe h) samples;
      let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      let vs = List.map (Metrics.Histogram.quantile h) qs in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      let lo = List.fold_left min max_int samples in
      let hi = List.fold_left max 0 samples in
      monotone vs && List.for_all (fun v -> v >= lo && v <= hi) vs)

(* ------------------------------------------------------------------ *)
(* sink: Disabled must be free, Flight must be cycle-model-neutral     *)

(* the trace workload's two-CPU ping-pong phase, shrunk *)
let run_workload () =
  let module Scenario = Atmo_workloads.Scenario in
  let w = Scenario.boot_pair () in
  match Scenario.pingpong w ~send_call:Scenario.send ~iterations:50 with
  | Ok s -> (s, Atmo_core.Abstraction.abstract w.Scenario.kernel)
  | Error msg -> Alcotest.failf "smp: %s" msg

let test_disabled_sink_is_bit_identical () =
  Sink.install Sink.Disabled;
  let base_stats, base_abs = run_workload () in
  let (traced_stats, traced_abs), captured =
    Atmo_obs.Span.with_recorder ~cpus:2 ~slots:256 (fun recorder ->
        let traced = run_workload () in
        (traced, Flight.length recorder ~cpu:0 + Flight.length recorder ~cpu:1))
  in
  (* the simulated-cycle accounting must not move at all under tracing *)
  Alcotest.(check int) "wall cycles" base_stats.Atmo_sim.Smp.wall_cycles
    traced_stats.Atmo_sim.Smp.wall_cycles;
  Alcotest.(check int) "lock wait cycles" base_stats.Atmo_sim.Smp.lock_wait_cycles
    traced_stats.Atmo_sim.Smp.lock_wait_cycles;
  Alcotest.(check (array int)) "per-cpu busy cycles" base_stats.Atmo_sim.Smp.busy_cycles
    traced_stats.Atmo_sim.Smp.busy_cycles;
  Alcotest.(check int) "syscalls executed" base_stats.Atmo_sim.Smp.syscalls_executed
    traced_stats.Atmo_sim.Smp.syscalls_executed;
  Alcotest.(check bool) "identical abstract kernel state" true
    (base_abs = traced_abs);
  (* and the traced run actually recorded the hot paths *)
  Alcotest.(check bool) "flight run captured events" true (captured > 0)

let test_disabled_sink_records_nothing () =
  Sink.install Sink.Disabled;
  Sink.emit_ep_create ~container:1 ();
  Alcotest.(check (list reject)) "no records when disabled" [] (Sink.records ());
  Alcotest.(check int) "no drops when disabled" 0 (Sink.dropped ())

(* ------------------------------------------------------------------ *)
(* zero-allocation writers vs the boxed oracle encoder               *)

let arena_slot f idx =
  Bytes.sub (Flight.arena f) (Flight.slot_offset f ~cpu:0 idx) Event.slot_bytes

(* Every tag: the in-arena writer must lay down the exact bytes the
   boxed oracle encoder produces. *)
let test_writers_bit_identical_to_oracle () =
  List.iter
    (fun ev ->
      recording ~slots:4 (fun f clock ->
          clock := 987654;
          Event_oracle.emit ev;
          Alcotest.(check int) "writer recorded" 1 (Flight.length f ~cpu:0);
          Alcotest.(check string)
            (Printf.sprintf "arena bytes identical for %s"
               (Event.tag_name (Event_oracle.tag_of ev)))
            (Bytes.to_string (Event_oracle.encode ~ts:987654 ~cpu:0 ev))
            (Bytes.to_string (arena_slot f 0))))
    sample_events

let prop_fast_writer_matches_encode =
  QCheck.Test.make ~name:"fast writers byte-identical to Event oracle" ~count:300
    QCheck.(pair arb_event (int_bound 0x3fff_ffff))
    (fun (ev, ts) ->
      recording ~slots:4 (fun f clock ->
          clock := ts;
          Event_oracle.emit ev;
          Bytes.equal (arena_slot f 0) (Event_oracle.encode ~ts ~cpu:0 ev)))

(* The word accessors against the stdlib: [store_u64] must lay down
   [Bytes.set_int64_le (Int64.of_int v)]'s bytes and [load_u64] must
   read back [Int64.to_int (Bytes.get_int64_le ...)], at every offset
   alignment, for the sign and high-bit edge cases and seeded random
   words (a raw 64-bit pattern is read back through its low 63 bits,
   as [Int64.to_int] does). *)
let test_u64_accessors_match_stdlib () =
  let rng = Random.State.make [| 0x64 |] in
  let random_int () = Int64.to_int (Random.State.bits64 rng) in
  let edges =
    [ 0; 1; -1; min_int; max_int; 0xff; 0x100; -0x100;
      0x7f lsl 55; 0xff lsl 55; (0xff lsl 55) lor 0xff; 1 lsl 62; (1 lsl 62) - 1;
      -(1 lsl 55); 0x0123_4567_89ab_cdef; -0x0123_4567_89ab_cdef ]
  in
  let values = edges @ List.init 500 (fun _ -> random_int ()) in
  List.iteri
    (fun i v ->
      let off = i mod 9 in
      let ours = Bytes.make 24 '\xa5' and std = Bytes.make 24 '\xa5' in
      Flight.store_u64 ours off v;
      Bytes.set_int64_le std off (Int64.of_int v);
      Alcotest.(check string) (Printf.sprintf "store %d at +%d" v off)
        (Bytes.to_string std) (Bytes.to_string ours);
      Alcotest.(check int) (Printf.sprintf "load %d at +%d" v off)
        (Int64.to_int (Bytes.get_int64_le std off))
        (Flight.load_u64 ours off);
      (* a raw word whose bit 63 disagrees with bit 62 *)
      let raw = Random.State.bits64 rng in
      Bytes.set_int64_le std off raw;
      Alcotest.(check int) (Printf.sprintf "load raw %Lx at +%d" raw off)
        (Int64.to_int raw) (Flight.load_u64 std off))
    values

(* ------------------------------------------------------------------ *)
(* per-tag filtering and sampling                                      *)

let test_filter_mask_gates_kinds () =
  Sink.set_filter (1 lsl Event.tag_page_alloc);
  let rs, emitted_on, emitted_off =
    recording ~slots:64 (fun _ _ ->
        Alcotest.(check bool) "enabled tag live" true (Sink.tracing_tag Event.tag_page_alloc);
        Alcotest.(check bool) "masked tag off" false (Sink.tracing_tag Event.tag_tlb_hit);
        Sink.emit_page_alloc ~addr:0x1000 ~order:0 ();
        Sink.emit_tlb_hit ~vaddr:0x2000 ();
        Sink.emit_tlb_miss ~vaddr:0x3000 ();
        ( Sink.records (),
          Sink.emitted_count ~tag:Event.tag_page_alloc,
          Sink.emitted_count ~tag:Event.tag_tlb_hit ))
  in
  Sink.set_filter Event.all_tags_mask;
  Alcotest.(check int) "only the enabled kind recorded" 1 (List.length rs);
  Alcotest.(check int) "enabled kind tallied" 1 emitted_on;
  (* a masked-off kind is one load+mask: no counter may move *)
  Alcotest.(check int) "masked kind tallies nothing" 0 emitted_off;
  Alcotest.(check bool) "mask restored" true (Sink.get_filter () = Event.all_tags_mask)

let sampling_session () =
  Sink.set_sample ~tag:Event.tag_page_alloc ~shift:2;
  (* install starts a fresh session: tallies and sampling phase reset *)
  recording ~slots:64 (fun _ clock ->
      for i = 0 to 15 do
        clock := i;
        Sink.emit_page_alloc ~addr:(0x1000 + i) ~order:0 ()
      done;
      ( List.map (fun r -> r.Event.ts) (Sink.records ()),
        Sink.emitted_count ~tag:Event.tag_page_alloc,
        Sink.sampled_out_count ~tag:Event.tag_page_alloc ))

let test_sampling_deterministic_and_lossless () =
  let a = sampling_session () in
  let b = sampling_session () in
  Sink.set_sample_all ~shift:0;
  let ts, emitted, sampled = a in
  Alcotest.(check (list int)) "keeps 1 in 4, phase 0" [ 0; 4; 8; 12 ] ts;
  Alcotest.(check int) "admitted tally exact" 4 emitted;
  Alcotest.(check int) "rejected tally exact" 12 sampled;
  Alcotest.(check bool) "seeded sessions identical" true (a = b);
  Alcotest.check_raises "bad shift rejected"
    (Invalid_argument "Sink.set_sample: bad shift") (fun () ->
      Sink.set_sample ~tag:Event.tag_page_alloc ~shift:31)

let test_bad_cpu_counted_not_silent () =
  Metrics.reset ();
  let rs, bad =
    recording ~slots:8 (fun _ _ ->
        Sink.set_cpu 5;
        Sink.emit_page_alloc ~addr:0x1000 ~order:0 ();
        Sink.set_cpu 9;
        Sink.emit_ep_create ~container:1 ();
        let rs = Sink.records () in
        let bad = Sink.bad_cpu_count () in
        Sink.publish_counters ();
        (rs, bad))
  in
  (* misfiled events still land (on ring 0) and the misfiling is loud *)
  Alcotest.(check int) "events filed on ring 0" 2 (List.length rs);
  List.iter (fun r -> Alcotest.(check int) "cpu rewritten to 0" 0 r.Event.cpu) rs;
  Alcotest.(check int) "bad-cpu tally" 2 bad;
  Alcotest.(check int) "obs/bad_cpu metric" 2
    (Metrics.Counter.value (Metrics.counter "obs/bad_cpu"))

let test_span_pair_expands_balanced () =
  let id, rs, slots =
    Atmo_obs.Span.with_recorder ~cpus:1 ~slots:8 (fun f ->
        let id = Atmo_obs.Span.pair ~ts:5 Atmo_obs.Span.Ctx_switch in
        (id, Sink.records (), Flight.length f ~cpu:0))
  in
  Alcotest.(check bool) "pair admitted" true (id > 0);
  Alcotest.(check int) "one ring slot" 1 slots;
  Alcotest.(check (list int)) "expanded records carry their tags"
    [ Event.tag_span_begin; Event.tag_span_end ]
    (List.map (fun (r : Event.record) -> r.Event.tag) rs);
  match rs with
  | [
      { Event.ev = Event.Span_begin { span = b; _ }; ts = 5; _ };
      { Event.ev = Event.Span_end { span = e; _ }; ts = 5; _ };
    ] ->
    Alcotest.(check int) "begin carries the span id" id b;
    Alcotest.(check int) "end matches begin" id e
  | _ -> Alcotest.fail "expected exactly [begin; end] at ts 5"

(* ------------------------------------------------------------------ *)
(* the zero-drop contract on the kv workload                           *)

let test_kv_workload_zero_drops () =
  let module Kv = Atmo_workloads.Kv_demo in
  let records, dropped, emitted, pairs =
    Atmo_obs.Span.with_recorder ~cpus:2 ~slots:16384 (fun _ ->
        ignore (Kv.run ~requests:40 ());
        let emitted = ref 0 in
        for tag = 1 to Event.tag_count do
          emitted := !emitted + Sink.emitted_count ~tag
        done;
        (Sink.records (), Sink.dropped (), !emitted, Sink.emitted_count ~tag:Event.tag_span_pair))
  in
  Alcotest.(check bool) "workload emitted events" true (emitted > 0);
  Alcotest.(check int) "zero drops on a sized ring" 0 dropped;
  (* lossless accounting: every admitted event is a live record (span
     pairs decode into two) *)
  Alcotest.(check int) "records = emitted + pairs" (emitted + pairs)
    (List.length records)

let test_sink_records_merged_sorted () =
  let rs =
    recording ~cpus:2 ~slots:8 (fun _ clock ->
        record_at clock ~cpu:1 30;
        record_at clock ~cpu:0 10;
        record_at clock ~cpu:1 20;
        Sink.records ())
  in
  Alcotest.(check (list int)) "merged across rings, sorted by ts" [ 10; 20; 30 ]
    (List.map (fun r -> r.Event.ts) rs)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "flight",
        [
          Alcotest.test_case "fill below capacity" `Quick test_ring_fill;
          Alcotest.test_case "wraparound overwrites oldest" `Quick test_ring_wraparound;
          Alcotest.test_case "per-cpu isolation + clear" `Quick test_ring_per_cpu_isolation;
          Alcotest.test_case "bad geometry rejected" `Quick test_ring_rejects_bad_geometry;
        ] );
      ( "event",
        [
          Alcotest.test_case "round-trip samples" `Quick test_roundtrip_samples;
          Alcotest.test_case "samples cover every tag" `Quick
            test_samples_cover_every_tag;
          Alcotest.test_case "empty slot" `Quick test_empty_slot_decodes_to_none;
          Alcotest.test_case "printer pins every line" `Quick test_printer_pins_every_line;
          Alcotest.test_case "syscall names match the spec" `Quick
            test_syscall_names_match_spec;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
          Alcotest.test_case "counter monotonic" `Quick test_counter_monotonic;
        ] );
      ( "sink",
        [
          Alcotest.test_case "disabled sink is bit-identical" `Quick
            test_disabled_sink_is_bit_identical;
          Alcotest.test_case "disabled sink records nothing" `Quick
            test_disabled_sink_records_nothing;
          Alcotest.test_case "records merged and sorted" `Quick
            test_sink_records_merged_sorted;
        ] );
      ( "admission",
        [
          Alcotest.test_case "writers bit-identical to encode oracle" `Quick
            test_writers_bit_identical_to_oracle;
          Alcotest.test_case "filter mask gates kinds" `Quick
            test_filter_mask_gates_kinds;
          Alcotest.test_case "sampling deterministic and lossless" `Quick
            test_sampling_deterministic_and_lossless;
          Alcotest.test_case "bad cpu counted, not silent" `Quick
            test_bad_cpu_counted_not_silent;
          Alcotest.test_case "span pair expands balanced" `Quick
            test_span_pair_expands_balanced;
          Alcotest.test_case "kv workload records with zero drops" `Quick
            test_kv_workload_zero_drops;
          Alcotest.test_case "u64 accessors match the stdlib" `Quick
            test_u64_accessors_match_stdlib;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_encode_decode_roundtrip;
            prop_fast_writer_matches_encode;
            prop_quantiles_monotone;
          ] );
    ]
