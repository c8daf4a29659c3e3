(* The sink registry: where tracepoints go.

   Instrumentation sites call the per-tag [emit_*] writers, whose first
   instruction is one load+mask of [enabled_mask]: with the [Disabled]
   sink the mask is 0, so the entire observability subsystem costs one
   test per tracepoint — no event is constructed, no clock is read, no
   metric is touched, and (crucially for the simulation) no cycle-model
   state is ever advanced.  Tracing is cycle-model-neutral by design
   even when enabled: recording happens in host time only, so enabling
   a sink never changes simulated results.

   The hot path is allocation-free end to end: [Flight.reserve] bumps
   the ring cursor and returns the slot's arena offset, and the writer
   stores the five slot words in place ([Flight.store_u64], bit-for-bit
   what [Event.encode] produces — the boxed [emit] below is kept as the
   oracle and the tests assert arena-byte identity).

   Filtering and sampling are per tag: a bitmask enables each event
   kind, and a power-of-two sample shift keeps 1-in-2^shift of the
   admitted events.  Both decisions happen before any field is written.
   Per-tag [emitted]/[sampled_out] tallies (and the out-of-range-CPU
   count) are plain int arrays bumped on the hot path and published
   into the metrics registry as [obs/emitted/<kind>],
   [obs/sampled_out/<kind>] and [obs/bad_cpu] at read time, so the
   accounting is exact even when ring slots are overwritten. *)

type t = Disabled | Flight of Flight.t

let current = ref Disabled
let enabled = ref false

(* Timestamp source and current-CPU hint are injected by whoever owns
   the timeline (the SMP simulator, the trace CLI); instrumented kernel
   code stays clock-free. *)
let now_fn : (unit -> int) ref = ref (fun () -> 0)
let cpu_hint = ref 0

(* ------------------------------------------------------------------ *)
(* Per-tag filter mask, sampling, and lossless tallies                  *)

(* [filter_mask] is the configured per-tag enable mask; [enabled_mask]
   is what the hot path tests: equal to [filter_mask] while a recorder
   is installed, 0 when disabled.  One word folds "is tracing on at
   all" and "is this kind enabled" into a single load+mask. *)
let filter_mask = ref Event.all_tags_mask
let enabled_mask = ref 0

let counters_len = Event.tag_count + 1
let sample_shift = Array.make counters_len 0
let sample_ctr = Array.make counters_len 0
let emitted = Array.make counters_len 0
let sampled_out = Array.make counters_len 0
let published_emitted = Array.make counters_len 0
let published_sampled = Array.make counters_len 0
let bad_cpu = ref 0
let published_bad_cpu = ref 0

(* Sync the hot-path tallies into the metrics registry by delta.  Kept
   off the emit path; called from [records]/[dropped] (so once per
   monitor window) and explicitly by benches/CLI.  Each tag's
   [obs/emitted/<kind>] / [obs/sampled_out/<kind>] handle is resolved
   once, the first time that tag has something to publish (so the name
   registers exactly when a by-name bump would register it) and reused
   after that, so a publish builds no string and probes no table. *)
let emitted_ctrs : Metrics.Counter.t option array = Array.make counters_len None
let sampled_ctrs : Metrics.Counter.t option array = Array.make counters_len None
let bad_cpu_ctr = lazy (Metrics.counter "obs/bad_cpu")

let publish ctrs prefix tag by =
  let c =
    match ctrs.(tag) with
    | Some c -> c
    | None ->
      let c = Metrics.counter (prefix ^ Event.tag_name tag) in
      ctrs.(tag) <- Some c;
      c
  in
  Metrics.Counter.add c by

let publish_counters () =
  for tag = 1 to Event.tag_count do
    let d = emitted.(tag) - published_emitted.(tag) in
    if d > 0 then begin
      publish emitted_ctrs "obs/emitted/" tag d;
      published_emitted.(tag) <- emitted.(tag)
    end;
    let d = sampled_out.(tag) - published_sampled.(tag) in
    if d > 0 then begin
      publish sampled_ctrs "obs/sampled_out/" tag d;
      published_sampled.(tag) <- sampled_out.(tag)
    end
  done;
  let d = !bad_cpu - !published_bad_cpu in
  if d > 0 then begin
    Metrics.Counter.add (Lazy.force bad_cpu_ctr) d;
    published_bad_cpu := !bad_cpu
  end

let install s =
  (* Don't lose the outgoing session's tallies. *)
  publish_counters ();
  current := s;
  match s with
  | Disabled ->
    enabled := false;
    enabled_mask := 0
  | Flight _ ->
    enabled := true;
    enabled_mask := !filter_mask;
    (* Fresh recorder session: per-tag tallies and the sampling phase
       restart so seeded runs are deterministic. *)
    Array.fill emitted 0 counters_len 0;
    Array.fill sampled_out 0 counters_len 0;
    Array.fill published_emitted 0 counters_len 0;
    Array.fill published_sampled 0 counters_len 0;
    Array.fill sample_ctr 0 counters_len 0;
    bad_cpu := 0;
    published_bad_cpu := 0

let installed () = !current
let tracing () = !enabled

let set_clock f = now_fn := f
let now () = !now_fn ()
let set_cpu c = cpu_hint := c
let current_cpu () = !cpu_hint

let set_filter mask =
  filter_mask := mask land Event.all_tags_mask;
  if !enabled then enabled_mask := !filter_mask

let get_filter () = !filter_mask

let set_sample ~tag ~shift =
  if tag < 1 || tag > Event.tag_count then invalid_arg "Sink.set_sample: bad tag";
  if shift < 0 || shift > 30 then invalid_arg "Sink.set_sample: bad shift";
  sample_shift.(tag) <- shift

let set_sample_all ~shift =
  for tag = 1 to Event.tag_count do
    set_sample ~tag ~shift
  done

let tracing_tag tag = !enabled_mask land (1 lsl tag) <> 0

(* The full admission gate: mask, then sampling.  A masked-off kind
   costs exactly the load+mask and leaves every counter untouched; a
   sampled-out event is tallied so the accounting stays lossless. *)
let admit tag =
  !enabled_mask land (1 lsl tag) <> 0
  && (let sh = sample_shift.(tag) in
      sh = 0
      ||
      let c = sample_ctr.(tag) in
      sample_ctr.(tag) <- c + 1;
      if c land ((1 lsl sh) - 1) = 0 then true
      else begin
        sampled_out.(tag) <- sampled_out.(tag) + 1;
        false
      end)

(* ------------------------------------------------------------------ *)
(* The zero-allocation writer                                          *)

(* Write one admitted event straight into the arena slot returned by
   [Flight.reserve]: five u64 stores, nothing allocated.  The first
   word packs tag/aux/cpu exactly as [Event.encode] lays out bytes 0-7
   (tag at byte 0, aux at byte 1, cpu at byte 2, reserved bytes zero),
   so the slot is bit-identical to the boxed oracle without a fill. *)
let write ?ts ?cpu ~tag ~aux a b c =
  match !current with
  | Disabled -> ()
  | Flight fr ->
    emitted.(tag) <- emitted.(tag) + 1;
    let cpu =
      match cpu with
      | Some c ->
        if c >= 0 && c < Flight.cpus fr then c
        else begin
          bad_cpu := !bad_cpu + 1;
          0
        end
      | None ->
        let c = !cpu_hint in
        if c >= 0 && c < Flight.cpus fr then c
        else begin
          bad_cpu := !bad_cpu + 1;
          0
        end
    in
    let ts = match ts with Some t -> t | None -> !now_fn () in
    let off = Flight.reserve fr ~cpu in
    let arena = Flight.arena fr in
    Flight.store_u64 arena off (tag lor ((aux land 0xff) lsl 8) lor ((cpu land 0xff) lsl 16));
    Flight.store_u64 arena (off + 8) ts;
    Flight.store_u64 arena (off + 16) a;
    Flight.store_u64 arena (off + 24) b;
    Flight.store_u64 arena (off + 32) c

(* Per-tag emitters.  Field-to-word layout mirrors [Event.fields]
   clause for clause; the randomized oracle test compares the arena
   bytes of every emitter against [Event.encode] of the boxed event. *)

let emit_syscall_enter ?ts ?cpu ~thread ~sysno () =
  if admit Event.tag_syscall_enter then
    write ?ts ?cpu ~tag:Event.tag_syscall_enter ~aux:sysno thread 0 0

let emit_syscall_exit ?ts ?cpu ~thread ~sysno ~errno () =
  if admit Event.tag_syscall_exit then
    write ?ts ?cpu ~tag:Event.tag_syscall_exit ~aux:sysno thread
      (match errno with None -> 0 | Some e -> Event.errno_code e)
      0

let emit_page_alloc ?ts ?cpu ~addr ~order () =
  if admit Event.tag_page_alloc then
    write ?ts ?cpu ~tag:Event.tag_page_alloc ~aux:order addr 0 0

let emit_page_free ?ts ?cpu ~addr ~order () =
  if admit Event.tag_page_free then
    write ?ts ?cpu ~tag:Event.tag_page_free ~aux:order addr 0 0

let emit_superpage_merge ?ts ?cpu ~head ~order () =
  if admit Event.tag_superpage_merge then
    write ?ts ?cpu ~tag:Event.tag_superpage_merge ~aux:order head 0 0

let emit_ep_create ?ts ?cpu ~container () =
  if admit Event.tag_ep_create then
    write ?ts ?cpu ~tag:Event.tag_ep_create ~aux:0 container 0 0

let emit_ep_send ?ts ?cpu ~ep ~sender ~receiver () =
  if admit Event.tag_ep_send then
    write ?ts ?cpu ~tag:Event.tag_ep_send ~aux:0 ep sender receiver

let emit_ep_recv ?ts ?cpu ~ep ~receiver ~sender () =
  if admit Event.tag_ep_recv then
    write ?ts ?cpu ~tag:Event.tag_ep_recv ~aux:0 ep receiver sender

let emit_ep_block ?ts ?cpu ~ep ~thread ~dir () =
  if admit Event.tag_ep_block then
    write ?ts ?cpu ~tag:Event.tag_ep_block
      ~aux:(match dir with Event.Dir_send -> 0 | Event.Dir_recv -> 1)
      ep thread 0

let emit_mmu_walk ?ts ?cpu ~vaddr ~ok () =
  if admit Event.tag_mmu_walk then
    write ?ts ?cpu ~tag:Event.tag_mmu_walk ~aux:(if ok then 1 else 0) vaddr 0 0

let emit_pte_touch ?ts ?cpu ~table ~index () =
  if admit Event.tag_pte_touch then
    write ?ts ?cpu ~tag:Event.tag_pte_touch ~aux:0 table index 0

let emit_drv_doorbell ?ts ?cpu ~device ~queue () =
  if admit Event.tag_drv_doorbell then
    write ?ts ?cpu ~tag:Event.tag_drv_doorbell ~aux:0 device queue 0

let emit_drv_completion ?ts ?cpu ~device ~count () =
  if admit Event.tag_drv_completion then
    write ?ts ?cpu ~tag:Event.tag_drv_completion ~aux:0 device count 0

let emit_lock_acquire ?ts ?cpu ~cpu_id ~wait_cycles () =
  if admit Event.tag_lock_acquire then
    write ?ts ?cpu ~tag:Event.tag_lock_acquire ~aux:0 cpu_id wait_cycles 0

let emit_tlb_hit ?ts ?cpu ~vaddr () =
  if admit Event.tag_tlb_hit then write ?ts ?cpu ~tag:Event.tag_tlb_hit ~aux:0 vaddr 0 0

let emit_tlb_miss ?ts ?cpu ~vaddr () =
  if admit Event.tag_tlb_miss then write ?ts ?cpu ~tag:Event.tag_tlb_miss ~aux:0 vaddr 0 0

let emit_tlb_flush ?ts ?cpu ~asid ~entries () =
  if admit Event.tag_tlb_flush then
    write ?ts ?cpu ~tag:Event.tag_tlb_flush ~aux:0 asid entries 0

let emit_ep_fastpath ?ts ?cpu ~ep ~sender ~receiver () =
  if admit Event.tag_ep_fastpath then
    write ?ts ?cpu ~tag:Event.tag_ep_fastpath ~aux:0 ep sender receiver

let emit_causal ?ts ?cpu ~edge ~src ~dst () =
  if admit Event.tag_causal then write ?ts ?cpu ~tag:Event.tag_causal ~aux:edge src dst 0

let emit_dev_fault ?ts ?cpu ~device ~fault () =
  if admit Event.tag_dev_fault then
    write ?ts ?cpu ~tag:Event.tag_dev_fault ~aux:fault device 0 0

let emit_dev_recover ?ts ?cpu ~device ~fault () =
  if admit Event.tag_dev_recover then
    write ?ts ?cpu ~tag:Event.tag_dev_recover ~aux:fault device 0 0

(* The span writers bypass [admit]: the span layer makes one admission
   decision per span at [Span.begin_]/[Span.pair] (under the span_begin
   tag), so begins and ends stay balanced — a sampled span is skipped
   whole, never half. *)

let emit_span_begin ?ts ?cpu ~span ~parent ~kind ~owner () =
  if tracing () then
    write ?ts ?cpu ~tag:Event.tag_span_begin ~aux:kind span parent owner

let emit_span_end ?ts ?cpu ~span ~kind ~owner () =
  if tracing () then write ?ts ?cpu ~tag:Event.tag_span_end ~aux:kind span owner 0

let emit_span_pair ?ts ?cpu ~span ~parent ~kind ~owner () =
  if tracing () then
    write ?ts ?cpu ~tag:Event.tag_span_pair ~aux:kind span parent owner

(* ------------------------------------------------------------------ *)
(* Boxed oracle path                                                   *)

let emit ?ts ?cpu ev =
  match !current with
  | Disabled -> ()
  | Flight fr ->
    let tag = Event.tag_of ev in
    if admit tag then begin
      emitted.(tag) <- emitted.(tag) + 1;
      let cpu =
        match cpu with
        | Some c ->
          if c >= 0 && c < Flight.cpus fr then c
          else begin
            bad_cpu := !bad_cpu + 1;
            0
          end
        | None ->
          let c = !cpu_hint in
          if c >= 0 && c < Flight.cpus fr then c
          else begin
            bad_cpu := !bad_cpu + 1;
            0
          end
      in
      let ts = match ts with Some t -> t | None -> !now_fn () in
      Flight.push fr ~cpu (Event.encode ~ts ~cpu ev)
    end

(* ------------------------------------------------------------------ *)
(* The merged, decoded stream                                          *)

let records () =
  publish_counters ();
  match !current with
  | Disabled -> []
  | Flight fr ->
    let arena = Flight.arena fr in
    (* One accumulated list: CPUs high to low, slots newest to oldest,
       prepending — so before the sort the stream reads cpu 0 oldest
       first, exactly the order the old per-CPU append built.  Decoding
       happens in place; nothing is copied out of the arena. *)
    let acc = ref [] in
    for c = Flight.cpus fr - 1 downto 0 do
      let tl = Flight.tail fr ~cpu:c and h = Flight.head fr ~cpu:c in
      for i = h - 1 downto tl do
        match Event.decode_at arena (Flight.slot_offset fr ~cpu:c i) with
        | None -> ()
        | Some r -> (
          match r.Event.ev with
          | Event.Span_pair { span; parent; kind; owner } ->
            (* Unpack the batched record so the profiler and exporters
               see the same begin/end stream the unbatched path wrote. *)
            acc :=
              { r with Event.ev = Event.Span_begin { span; parent; kind; owner } }
              :: { r with Event.ev = Event.Span_end { span; kind; owner } }
              :: !acc
          | _ -> acc := r :: !acc)
      done
    done;
    List.stable_sort
      (fun (a : Event.record) b -> Int.compare a.Event.ts b.Event.ts)
      !acc

let dropped () =
  publish_counters ();
  match !current with Disabled -> 0 | Flight fr -> Flight.total_dropped fr

let emitted_count ~tag =
  if tag < 1 || tag > Event.tag_count then 0 else emitted.(tag)

let sampled_out_count ~tag =
  if tag < 1 || tag > Event.tag_count then 0 else sampled_out.(tag)

let bad_cpu_count () = !bad_cpu
