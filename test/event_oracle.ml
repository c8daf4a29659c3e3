(* Boxed reference encoder for the flight-recorder slot format.

   The per-tag [Sink.emit_*] writers are the library's only encoder:
   they store a slot's words straight into the arena without building
   an [Event.t].  This oracle spells the same layout a second way, one
   boxed event at a time, so the tests can compare the writers' arena
   bytes against it, and round-trip it through [Event.decode_at]. *)

module Event = Atmo_obs.Event
module Sink = Atmo_obs.Sink

(* (tag, aux byte, word a, word b, word c) of an event.  A 40-byte slot:
     byte  0      tag (1-based; 0 means "empty slot")
     byte  1      small auxiliary field (sysno / order / dir / flag)
     byte  2      cpu
     bytes 3-7    reserved (zero)
     bytes 8-15   timestamp, cycles, u64 LE
     bytes 16-23  field a, u64 LE
     bytes 24-31  field b, u64 LE
     bytes 32-39  field c, u64 LE *)
let fields = function
  | Event.Syscall_enter { thread; sysno } -> (1, sysno, thread, 0, 0)
  | Event.Syscall_exit { thread; sysno; errno } ->
    (2, sysno, thread, (match errno with None -> 0 | Some e -> Event.errno_code e), 0)
  | Event.Page_alloc { addr; order } -> (3, order, addr, 0, 0)
  | Event.Page_free { addr; order } -> (4, order, addr, 0, 0)
  | Event.Superpage_merge { head; order } -> (5, order, head, 0, 0)
  | Event.Ep_create { container } -> (6, 0, container, 0, 0)
  | Event.Ep_send { ep; sender; receiver } -> (7, 0, ep, sender, receiver)
  | Event.Ep_recv { ep; receiver; sender } -> (8, 0, ep, receiver, sender)
  | Event.Ep_block { ep; thread; dir } ->
    (9, (match dir with Event.Dir_send -> 0 | Event.Dir_recv -> 1), ep, thread, 0)
  | Event.Mmu_walk { vaddr; ok } -> (10, (if ok then 1 else 0), vaddr, 0, 0)
  | Event.Pte_touch { table; index } -> (11, 0, table, index, 0)
  | Event.Drv_doorbell { device; queue } -> (12, 0, device, queue, 0)
  | Event.Drv_completion { device; count } -> (13, 0, device, count, 0)
  | Event.Lock_acquire { cpu; wait_cycles } -> (14, 0, cpu, wait_cycles, 0)
  | Event.Tlb_hit { vaddr } -> (15, 0, vaddr, 0, 0)
  | Event.Tlb_miss { vaddr } -> (16, 0, vaddr, 0, 0)
  | Event.Tlb_flush { asid; entries } -> (17, 0, asid, entries, 0)
  | Event.Ep_fastpath { ep; sender; receiver } -> (18, 0, ep, sender, receiver)
  | Event.Span_begin { span; parent; kind; owner } -> (19, kind land 0xff, span, parent, owner)
  | Event.Span_end { span; kind; owner } -> (20, kind land 0xff, span, owner, 0)
  | Event.Causal { edge; src; dst } -> (21, edge land 0xff, src, dst, 0)
  | Event.Dev_fault { device; fault } -> (22, fault land 0xff, device, 0, 0)
  | Event.Dev_recover { device; fault } -> (23, fault land 0xff, device, 0, 0)
  | Event.Span_pair { span; parent; kind; owner } -> (24, kind land 0xff, span, parent, owner)

let tag_of ev =
  let tag, _, _, _, _ = fields ev in
  tag

(* A fresh [Event.slot_bytes] buffer holding [ev] as recorded at cycle
   [ts] on [cpu]. *)
let encode ~ts ~cpu ev =
  let tag, aux, a, b, c = fields ev in
  let buf = Bytes.make Event.slot_bytes '\000' in
  Bytes.set_uint8 buf 0 tag;
  Bytes.set_uint8 buf 1 aux;
  Bytes.set_uint8 buf 2 (cpu land 0xff);
  Bytes.set_int64_le buf 8 (Int64.of_int ts);
  Bytes.set_int64_le buf 16 (Int64.of_int a);
  Bytes.set_int64_le buf 24 (Int64.of_int b);
  Bytes.set_int64_le buf 32 (Int64.of_int c);
  buf

(* Hand a boxed event to the matching per-tag writer (stamped by the
   injected clock and CPU hint). *)
let emit = function
  | Event.Syscall_enter { thread; sysno } -> Sink.emit_syscall_enter ~thread ~sysno ()
  | Event.Syscall_exit { thread; sysno; errno } -> Sink.emit_syscall_exit ~thread ~sysno ~errno ()
  | Event.Page_alloc { addr; order } -> Sink.emit_page_alloc ~addr ~order ()
  | Event.Page_free { addr; order } -> Sink.emit_page_free ~addr ~order ()
  | Event.Superpage_merge { head; order } -> Sink.emit_superpage_merge ~head ~order ()
  | Event.Ep_create { container } -> Sink.emit_ep_create ~container ()
  | Event.Ep_send { ep; sender; receiver } -> Sink.emit_ep_send ~ep ~sender ~receiver ()
  | Event.Ep_recv { ep; receiver; sender } -> Sink.emit_ep_recv ~ep ~receiver ~sender ()
  | Event.Ep_block { ep; thread; dir } -> Sink.emit_ep_block ~ep ~thread ~dir ()
  | Event.Mmu_walk { vaddr; ok } -> Sink.emit_mmu_walk ~vaddr ~ok ()
  | Event.Pte_touch { table; index } -> Sink.emit_pte_touch ~table ~index ()
  | Event.Drv_doorbell { device; queue } -> Sink.emit_drv_doorbell ~device ~queue ()
  | Event.Drv_completion { device; count } -> Sink.emit_drv_completion ~device ~count ()
  | Event.Lock_acquire { cpu = cpu_id; wait_cycles } ->
    Sink.emit_lock_acquire ~cpu_id ~wait_cycles ()
  | Event.Tlb_hit { vaddr } -> Sink.emit_tlb_hit ~vaddr ()
  | Event.Tlb_miss { vaddr } -> Sink.emit_tlb_miss ~vaddr ()
  | Event.Tlb_flush { asid; entries } -> Sink.emit_tlb_flush ~asid ~entries ()
  | Event.Ep_fastpath { ep; sender; receiver } -> Sink.emit_ep_fastpath ~ep ~sender ~receiver ()
  | Event.Span_begin { span; parent; kind; owner } ->
    Sink.emit_span_begin ~span ~parent ~kind ~owner ()
  | Event.Span_end { span; kind; owner } -> Sink.emit_span_end ~span ~kind ~owner ()
  | Event.Causal { edge; src; dst } -> Sink.emit_causal ~edge ~src ~dst ()
  | Event.Dev_fault { device; fault } -> Sink.emit_dev_fault ~device ~fault ()
  | Event.Dev_recover { device; fault } -> Sink.emit_dev_recover ~device ~fault ()
  | Event.Span_pair { span; parent; kind; owner } ->
    Sink.emit_span_pair ~span ~parent ~kind ~owner ()
