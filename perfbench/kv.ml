(* The kv workload: §6.6's kv-store served the way [atmo monitor
   --workload kv] deploys it, driven by a seeded YCSB stream.

   One simulated client (init, CPU 0) runs a closed loop with one
   request outstanding.  Each request crosses the ixgbe datapath (tx,
   the wire, rx DMA through the IOMMU and its IOTLB) and two IPC
   rendezvous to a server container (CPU 1), where Maglev steers it to
   one of three Kv_store shards.  A GET is answered from memory; a SET
   is written through to NVMe and the reply waits for the completion.
   The reply crosses the NIC and the IPC pair back.

   Every cycle lands on one virtual clock, charged as Kv_demo charges
   it: [Smp.syscall_cycles] per syscall, the drivers' own charges, and
   400 handler cycles.  The program's flight recorder and SLO monitor
   are armed and the request loop opens Kv_demo's request, syscall and
   handler spans: that is the workload's configuration, not benchmark
   tracing.  The virtual clock is split into four layers measured as
   clock deltas around each call — kernel, NIC, application, device
   wait — which must sum exactly to each request's round trip. *)

module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Proc_mgr = Atmo_pm.Proc_mgr
module Perm_map = Atmo_pm.Perm_map
module Thread = Atmo_pm.Thread
module Message = Atmo_pm.Message
module Clock = Atmo_hw.Clock
module Phys_mem = Atmo_hw.Phys_mem
module Iommu = Atmo_hw.Iommu
module Tlb = Atmo_hw.Tlb
module Pte = Atmo_hw.Pte_bits
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table
module Ixgbe = Atmo_drivers.Ixgbe
module Nvme = Atmo_drivers.Nvme
module Packet = Atmo_net.Packet
module Kv_store = Atmo_net.Kv_store
module Maglev = Atmo_net.Maglev
module Workload = Atmo_net.Workload
module Sink = Atmo_obs.Sink
module Span = Atmo_obs.Span
module Metrics = Atmo_obs.Metrics
module Monitor = Atmo_obs.Monitor
module Smp = Atmo_sim.Smp

let keys = 4096
let key_size = 16
let value_size = 16
let read_ratio = 0.9
let theta = 0.99
let shard_names = [| "kv0"; "kv1"; "kv2" |]
let shard_entries = 2048
let handler_cycles = 400
let nic_slots = 8
let nic_buf_bytes = 2048

(* Requests per calibrated slice and per timed block, and how many
   leading requests the simulated metrics and the traced/untraced
   identity cover. *)
let slice_requests = 128
let block_requests = 4096
let sim_requests = 65536

(* [atmo monitor]'s deployment: a 2-CPU flight recorder with 16384
   slots per CPU and the default tail-latency SLO over 32768-cycle
   windows. *)
let flight_slots = 16384
let slo = "lat/request:p99<=262143@8"
let window_cycles = 32768
let windows = 64

type layers = {
  mutable kernel : int;
  mutable nic : int;
  mutable app : int;
  mutable dev : int;
}

type names = {
  request : int;
  step : int;
  nic_n : int;
  app_n : int;
  blk : int;
}

type t = {
  k : Kernel.t;
  init : int;
  srv : int;
  client_owner : int option * int option;
  srv_owner : int option * int option;
  clock : Clock.t;
  cost : Atmo_sim.Cost.t;
  nic : Ixgbe.t;
  nvme : Nvme.t;
  flow : Packet.flow;
  maglev : Maglev.t;
  shards : (string * Kv_store.t) list;
  keys_b : bytes array;
  shadow : bytes array;  (** value the client expects per key *)
  gen : Workload.t;
  block : bytes;  (** scratch NVMe block for write-through *)
  monitor : Monitor.t;
  handler_kind : Span.kind;
  layers : layers;
  mutable seq : int;  (** requests completed *)
  mutable bad : int;  (** replies that differ from the shadow store *)
  mutable layer_mismatch : int;  (** requests whose layers do not sum *)
  lat : int array;  (** round trips of the first [sim_requests] *)
  sim_start : int;
  mutable sim_end : int;
  mutable stream : int;  (** digest of the request stream *)
  (* the next block's requests, generated untimed *)
  ops : Workload.op array;
  values : bytes array;
  names : names;
  tr : Tracer.t;
}

let fail = Harness.fail

(* A private DMA arena for the NIC: its own memory, an identity-style
   page table attached to the IOMMU as [device], and a bump allocator
   of mapped iova ranges. *)
let dma_arena ~page_count ~device =
  let mem = Phys_mem.create ~page_count in
  let alloc = Page_alloc.create mem ~reserved_frames:0 in
  let iommu = Iommu.create mem in
  let pt =
    match Page_table.create mem alloc with
    | Ok pt -> pt
    | Error e -> fail "kv: device page table: %a" Page_table.pp_error e
  in
  let next = ref 0x20_0000 in
  let span bytes =
    let base = !next in
    let pages = (bytes + Phys_mem.page_size - 1) / Phys_mem.page_size in
    for i = 0 to pages - 1 do
      let vaddr = base + (i * Phys_mem.page_size) in
      match Page_alloc.alloc_4k alloc ~purpose:Page_alloc.User with
      | None -> fail "kv: device arena out of frames"
      | Some frame ->
        (match Page_table.map_4k pt ~vaddr ~frame ~perm:Pte.perm_rw with
         | Ok () -> ()
         | Error _ -> fail "kv: device arena map failed at 0x%x" vaddr)
    done;
    next := base + (pages * Phys_mem.page_size);
    base
  in
  Iommu.attach iommu ~device ~root:(Page_table.cr3 pt);
  (mem, iommu, span)

let mk_nic ~clock ~cost =
  let mem, iommu, span = dma_arena ~page_count:64 ~device:3 in
  let nic = Ixgbe.create mem iommu ~device:3 ~clock ~cost in
  let ring () = span Phys_mem.page_size in
  let bufs () = Array.init nic_slots (fun _ -> (span nic_buf_bytes, nic_buf_bytes)) in
  let rx_ring = ring () in
  let rx_bufs = bufs () in
  let tx_ring = ring () in
  let tx_bufs = bufs () in
  let check what = function
    | Ok () -> ()
    | Error e -> fail "kv: ixgbe %s: %s" what (Atmo_devmodel.Fault.error_to_string e)
  in
  check "setup_rx" (Ixgbe.setup_rx nic ~ring_iova:rx_ring ~buffers:rx_bufs);
  check "setup_tx" (Ixgbe.setup_tx nic ~ring_iova:tx_ring ~buffers:tx_bufs);
  nic

(* IPC scalar packing, as Kv_demo: 7 bytes per word, length first. *)
let bytes_per_word = 7

let pack b =
  let n = Bytes.length b in
  let word w =
    let acc = ref 0 in
    for j = bytes_per_word - 1 downto 0 do
      let i = (w * bytes_per_word) + j in
      acc := (!acc lsl 8) lor (if i < n then Char.code (Bytes.get b i) else 0)
    done;
    !acc
  in
  Message.scalars_only (n :: List.init ((n + bytes_per_word - 1) / bytes_per_word) word)

let unpack = function
  | [] -> Bytes.empty
  | n :: words ->
    let b = Bytes.create n in
    List.iteri
      (fun w word ->
        for j = 0 to bytes_per_word - 1 do
          let i = (w * bytes_per_word) + j in
          if i < n then Bytes.set b i (Char.chr ((word lsr (8 * j)) land 0xff))
        done)
      words;
    b

let flow_hash key =
  let h = ref 0xcbf29ce484222325L in
  Bytes.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    key;
  !h

let shard_of w key = List.assoc (Maglev.lookup w.maglev (flow_hash key)) w.shards
let lba_of i = 1 + i
let value_of seq = Bytes.of_string (Printf.sprintf "v%015d" seq)

(* Boot, deploy the server, build the device arenas, preload every key
   into its shard and through to NVMe, arm the flight recorder and the
   SLO monitor.  The clock after preload is the start of the run. *)
let setup ?(traced = false) ~seed () =
  let cost = Atmo_sim.Cost.default in
  let k, init =
    match Kernel.boot Kernel.default_boot with
    | Ok v -> v
    | Error e -> fail "kv: boot: %a" Atmo_util.Errno.pp e
  in
  let pm = k.Kernel.pm in
  let clock = Clock.create () in
  let step thread call =
    let r = Kernel.step k ~thread call in
    Clock.advance clock (Smp.syscall_cycles cost call);
    r
  in
  let ptr what = function
    | Syscall.Rptr p -> p
    | r -> fail "kv: %s -> %a" what Syscall.pp_ret r
  in
  let srv_container =
    ptr "new_container"
      (step init (Syscall.New_container { quota = 64; cpus = Atmo_util.Iset.empty }))
  in
  let ok what = function Ok v -> v | Error e -> fail "kv: %s: %a" what Atmo_util.Errno.pp e in
  let srv_proc = ok "new_process" (Proc_mgr.new_process pm ~container:srv_container ~parent:None) in
  let srv = ok "new_thread" (Proc_mgr.new_thread pm ~proc:srv_proc) in
  let ep_req = ptr "new_endpoint" (step init (Syscall.New_endpoint { slot = 0 })) in
  let ep_rep = ptr "new_endpoint" (step init (Syscall.New_endpoint { slot = 1 })) in
  (* hand the server both endpoints, as a parent does at spawn: each
     shared slot holds a reference *)
  List.iteri
    (fun slot ep ->
      Perm_map.update pm.Proc_mgr.thrd_perms ~ptr:srv (fun th -> Thread.set_slot th slot (Some ep));
      Perm_map.update pm.Proc_mgr.edpt_perms ~ptr:ep (fun e ->
          { e with Atmo_pm.Endpoint.refcount = e.Atmo_pm.Endpoint.refcount + 1 }))
    [ ep_req; ep_rep ];
  let maglev = Maglev.create ~backends:(Array.to_list shard_names) ~table_size:31 in
  let shards =
    Array.to_list (Array.map (fun b -> (b, Kv_store.create ~entries:shard_entries)) shard_names)
  in
  let nvme = Nvme.create ~clock ~cost ~capacity_blocks:(keys + 1) in
  Nvme.set_device nvme 7;
  let nic = mk_nic ~clock ~cost in
  let keys_b = Array.init keys (fun i -> Workload.key_bytes i ~size:key_size) in
  let shadow = Array.init keys (fun i -> value_of (-1 - i)) in
  let block = Bytes.make Nvme.block_bytes '\000' in
  Array.iteri
    (fun i key ->
      let value = shadow.(i) in
      if not (Kv_store.set (List.assoc (Maglev.lookup maglev (flow_hash key)) shards) ~key ~value)
      then fail "kv: preload overflowed a %d-entry shard" shard_entries;
      Bytes.blit value 0 block 0 value_size;
      match Nvme.submit_write nvme ~lba:(lba_of i) ~data:block with
      | Ok _ -> if Nvme.queue_depth nvme >= 32 then ignore (Nvme.wait_all nvme)
      | Error e -> fail "kv: preload write: %s" (Atmo_devmodel.Fault.error_to_string e))
    keys_b;
  ignore (Nvme.wait_all nvme);
  (* the workload's observability configuration *)
  Metrics.reset ();
  Span.reset ();
  let recorder =
    Atmo_obs.Flight.create ~cpus:2 ~slots:flight_slots ~slot_size:Atmo_obs.Event.slot_bytes
  in
  Sink.install (Sink.Flight recorder);
  Sink.set_clock (fun () -> Clock.now clock);
  let specs = match Atmo_obs.Slo.parse slo with Ok s -> [ s ] | Error e -> fail "kv: %s" e in
  let monitor = Monitor.arm ~windows ~window_cycles ~now:(Clock.now clock) ~specs () in
  let owner thread = (Kernel.container_of_thread k ~thread, Kernel.proc_of_thread k ~thread) in
  let tr = Tracer.create ~on:traced in
  let names =
    {
      request = Tracer.name tr "request";
      step = Tracer.name tr "core.step";
      nic_n = Tracer.name tr "drivers.nic";
      app_n = Tracer.name tr "net.app";
      blk = Tracer.name tr "drivers.blk";
    }
  in
  {
    k;
    init;
    srv;
    client_owner = owner init;
    srv_owner = owner srv;
    clock;
    cost;
    nic;
    nvme;
    flow = Packet.flow_of_ints ~src:0x0a00_0001 ~dst:0x0a00_0002 ~sport:7777 ~dport:11211;
    maglev;
    shards;
    keys_b;
    shadow;
    gen = Workload.create ~seed ~keys (Workload.Zipfian theta);
    block;
    monitor;
    handler_kind = Span.register_app "kv_handler";
    layers = { kernel = 0; nic = 0; app = 0; dev = 0 };
    seq = 0;
    bad = 0;
    layer_mismatch = 0;
    lat = Array.make sim_requests 0;
    sim_start = Clock.now clock;
    sim_end = 0;
    stream = Harness.fnv_init;
    ops = Array.make block_requests (Workload.Get 0);
    values = Array.make block_requests Bytes.empty;
    names;
    tr;
  }

(* Leave the process as it was before [setup]. *)
let teardown () =
  Monitor.disarm ();
  Sink.install Sink.Disabled;
  Sink.set_clock (fun () -> 0);
  Sink.set_cpu 0;
  Span.reset ()

(* Generate the next block's requests (untimed); the stream digest
   covers the first [sim_requests]. *)
let prepare w =
  for i = 0 to block_requests - 1 do
    let op = Workload.next_op w.gen ~read_ratio in
    w.ops.(i) <- op;
    let code, k =
      match op with
      | Workload.Get k -> (0, k)
      | Workload.Set k ->
        w.values.(i) <- value_of (w.seq + i);
        (1, k)
    in
    if w.seq + i < sim_requests then w.stream <- Harness.fnv (Harness.fnv w.stream code) k
  done

(* One syscall on a CPU, inside a Kv_demo-style syscall span. *)
let tstep w ~cpu ~owner thread call =
  let c = Smp.syscall_cycles w.cost call in
  Sink.set_cpu cpu;
  let container, proc = owner in
  let sid =
    Span.begin_ ~ts:(Clock.now w.clock) ?container ?proc ~thread
      (Span.Syscall (Syscall.number call))
  in
  let s = Tracer.enter w.tr w.names.step in
  let r = Kernel.step w.k ~thread call in
  Tracer.leave w.tr s;
  Clock.advance w.clock c;
  w.layers.kernel <- w.layers.kernel + c;
  Span.end_ ~ts:(Clock.now w.clock) sid;
  (r, sid)

(* Ixgbe tx, the wire, loopback rx DMA, ixgbe rx: the payload as the
   far side decodes it off the RX ring. *)
let nic_transfer w payload =
  let c0 = Clock.now w.clock in
  let s = Tracer.enter w.tr w.names.nic_n in
  let frame = Packet.build w.flow ~payload in
  let sent = Ixgbe.tx_burst w.nic [ frame ] in
  let wire = Ixgbe.wire_collect w.nic in
  List.iter (fun f -> ignore (Ixgbe.wire_deliver w.nic f)) wire;
  let rx = Ixgbe.rx_burst w.nic ~max:nic_slots in
  Tracer.leave w.tr s;
  w.layers.nic <- w.layers.nic + (Clock.now w.clock - c0);
  match (sent, wire, rx) with
  | 1, [ _ ], [ f ] -> Packet.payload f
  | _ -> None

let expect_blocked w = function (Syscall.Rblocked, _) -> () | _ -> w.bad <- w.bad + 1

let request w i =
  let layers = w.layers in
  let before = layers.kernel + layers.nic + layers.app + layers.dev in
  let op = w.ops.(i) in
  let key_i, payload =
    match op with
    | Workload.Get k -> (k, Kv_store.encode_request (Kv_store.Get w.keys_b.(k)))
    | Workload.Set k -> (k, Kv_store.encode_request (Kv_store.Set (w.keys_b.(k), w.values.(i))))
  in
  let t_start = Clock.now w.clock in
  let rs = Tracer.enter_op w.tr w.names.request in
  let wire_request = nic_transfer w payload in
  Sink.set_cpu 0;
  let container, proc = w.client_owner in
  let req_sid = Span.begin_ ~ts:t_start ?container ?proc ~thread:w.init Span.Request in
  expect_blocked w
    (tstep w ~cpu:0 ~owner:w.client_owner w.init (Syscall.Send { slot = 0; msg = pack payload }));
  let ipc_request, recv_sid =
    match tstep w ~cpu:1 ~owner:w.srv_owner w.srv (Syscall.Recv { slot = 0 }) with
    | Syscall.Rmsg m, sid -> (unpack m.Message.scalars, sid)
    | _, sid ->
      w.bad <- w.bad + 1;
      (Bytes.empty, sid)
  in
  (* the server decodes what came off the RX ring; it must equal what
     the IPC carried *)
  let request_bytes =
    match wire_request with
    | Some b when Bytes.equal b ipc_request -> b
    | _ ->
      w.bad <- w.bad + 1;
      ipc_request
  in
  Sink.set_cpu 1;
  let container, proc = w.srv_owner in
  let h_sid =
    Span.begin_ ~ts:(Clock.now w.clock) ?container ?proc ~thread:w.srv w.handler_kind
  in
  Span.edge Span.Wakeup ~src:recv_sid ~dst:h_sid;
  let c0 = Clock.now w.clock in
  let a = Tracer.enter w.tr w.names.app_n in
  let decoded = Kv_store.decode_request request_bytes in
  let reply_bytes =
    match decoded with
    | Some (Kv_store.Get key | Kv_store.Set (key, _) | Kv_store.Delete key) ->
      Kv_store.serve (shard_of w key) request_bytes
    | None -> Kv_store.encode_reply Kv_store.Error
  in
  Tracer.leave w.tr a;
  Clock.advance w.clock handler_cycles;
  layers.app <- layers.app + (Clock.now w.clock - c0);
  (* write-through: the reply waits for the NVMe completion *)
  (match decoded with
   | Some (Kv_store.Set (_, value)) ->
     let c1 = Clock.now w.clock in
     let b = Tracer.enter w.tr w.names.blk in
     Bytes.blit value 0 w.block 0 (Bytes.length value);
     (match Nvme.submit_write w.nvme ~lba:(lba_of key_i) ~data:w.block with
      | Ok tag ->
        if not (List.exists (fun (c : Nvme.completion) -> c.Nvme.tag = tag && c.Nvme.ok)
                  (Nvme.wait_all w.nvme))
        then w.bad <- w.bad + 1
      | Error _ -> w.bad <- w.bad + 1);
     Tracer.leave w.tr b;
     layers.dev <- layers.dev + (Clock.now w.clock - c1)
   | _ -> ());
  let wire_reply = nic_transfer w reply_bytes in
  expect_blocked w
    (tstep w ~cpu:1 ~owner:w.srv_owner w.srv (Syscall.Send { slot = 1; msg = pack reply_bytes }));
  Span.end_ ~ts:(Clock.now w.clock) h_sid;
  let received =
    match tstep w ~cpu:0 ~owner:w.client_owner w.init (Syscall.Recv { slot = 1 }) with
    | Syscall.Rmsg m, _ ->
      let ipc_reply = unpack m.Message.scalars in
      (match wire_reply with
       | Some b when Bytes.equal b ipc_reply -> ()
       | _ -> w.bad <- w.bad + 1);
      Kv_store.decode_reply ipc_reply
    | _ -> None
  in
  (* the client checks the reply against its shadow store *)
  (match (op, received) with
   | Workload.Get k, Some (Kv_store.Value v) when Bytes.equal v w.shadow.(k) -> ()
   | Workload.Set k, Some Kv_store.Stored -> w.shadow.(k) <- w.values.(i)
   | _ -> w.bad <- w.bad + 1);
  Sink.set_cpu 0;
  Span.end_ ~ts:(Clock.now w.clock) req_sid;
  Tracer.leave w.tr rs;
  let lat = Clock.now w.clock - t_start in
  if layers.kernel + layers.nic + layers.app + layers.dev - before <> lat then
    w.layer_mismatch <- w.layer_mismatch + 1;
  if w.seq < sim_requests then begin
    w.lat.(w.seq) <- lat;
    if w.seq = sim_requests - 1 then w.sim_end <- Clock.now w.clock
  end;
  w.seq <- w.seq + 1

let block w m =
  for s = 0 to (block_requests / slice_requests) - 1 do
    Harness.slice m (fun () ->
        for i = s * slice_requests to ((s + 1) * slice_requests) - 1 do
          request w i
        done)
  done;
  block_requests

(* The simulated results the traced/untraced identity compares: the
   latency digest of the first [sim_requests] requests and the clock
   after them. *)
let sim_digest w = Array.fold_left Harness.fnv Harness.fnv_init w.lat
let min_blocks = (sim_requests + block_requests - 1) / block_requests

let driver_errors w = Ixgbe.error_count w.nic + Nvme.error_count w.nvme

(* After the timed region: close the last monitor window and check the
   verdict, and read every key back from NVMe against the shadow. *)
let finish w =
  Monitor.finish w.monitor ~now:(Clock.now w.clock);
  let persisted = ref 0 in
  Array.iteri
    (fun i v ->
      let b = Nvme.read_block_direct w.nvme ~lba:(lba_of i) in
      if Bytes.length b >= value_size && Bytes.equal (Bytes.sub b 0 value_size) v then
        incr persisted)
    w.shadow;
  (Monitor.compliant w.monitor, keys - !persisted)

(* ------------------------------------------------------------------ *)
(* One pass: set up (three times, median), timed blocks, checks. *)

type pass = {
  w : t;
  setup_s : float;
  setup_host_s : float;
  rates : Harness.rates;
  heap_mb : float;
  fastpath : int;
  slowpath : int;
  borrows : int;
  io : Tlb.stats * Tlb.stats;
  blocked : int;
  compliant : bool;
  unpersisted : int;
  errors : int;
}

let counter name = Metrics.Counter.value (Metrics.counter name)

let pass ~traced ~seed ~seconds =
  let w, setup_s, setup_host_s =
    Harness.repeated_setup ~times:Harness.setup_times (fun () -> setup ~traced ~seed ())
  in
  let fp0 = counter "ipc/fastpath" and sp0 = counter "ipc/slowpath" in
  let b0 = Harness.pm_borrows () and io0 = Tlb.io_stats () and bl0 = Iommu.blocked () in
  let rates =
    Harness.timed_blocks ~seconds ~min_blocks
      ~prepare:(fun () ->
        Tracer.flush w.tr;
        prepare w)
      ~block:(block w)
  in
  Tracer.flush w.tr;
  let heap_mb = Harness.heap_peak_mb () in
  let fastpath = counter "ipc/fastpath" - fp0 and slowpath = counter "ipc/slowpath" - sp0 in
  let borrows = Harness.pm_borrows () - b0 and io = (io0, Tlb.io_stats ()) in
  let blocked = Iommu.blocked () - bl0 in
  let compliant, unpersisted = finish w in
  {
    w;
    setup_s;
    setup_host_s;
    rates;
    heap_mb;
    fastpath;
    slowpath;
    borrows;
    io;
    blocked;
    compliant;
    unpersisted;
    errors = driver_errors w;
  }

let checks p =
  [
    ("kv: every reply matches the shadow store", p.w.bad = 0);
    ("kv: no typed ixgbe or NVMe error", p.errors = 0);
    ("kv: SLO verdict compliant", p.compliant);
    ("kv: every SET persisted to NVMe", p.unpersisted = 0);
    ("kv: kernel+nic+app+device_wait cycles = round trip", p.w.layer_mismatch = 0);
  ]

let attempted p = p.w.seq
let failed p = p.w.bad + p.errors + p.unpersisted + if p.compliant then 0 else 1

let end_to_end p =
  let w = p.w in
  let sim_s = float_of_int (w.sim_end - w.sim_start) /. Clock.frequency_hz in
  Harness.
    [
      metric "setup_s" "s" p.setup_s;
      metric "host_ops_per_s" "1/s" (median p.rates.per_ref_s);
      metric "sim_ops_per_s" "1/s" (float_of_int sim_requests /. sim_s);
      metric "sim_lat_p50_cyc" "cyc" (float_of_int (quantile_int w.lat 0.50));
      metric "sim_lat_p99_cyc" "cyc" (float_of_int (quantile_int w.lat 0.99));
      metric "heap_peak_mb" "MB" p.heap_mb;
    ]

let notes p =
  [
    Printf.sprintf "kv: %d requests; set-up %.4f host s" p.w.seq p.setup_host_s;
    Harness.describe_rates "kv: requests" p.rates;
    Printf.sprintf "kv: request stream digest %016x, latency digest %016x, end cycle %d"
      p.w.stream (sim_digest p.w) p.w.sim_end;
  ]

(* Per-layer metrics from the traced pass [t]; [u] is the untraced pass
   of the same seed. *)
let per_layer ~u ~t =
  let w = t.w and tr = t.w.tr and n = t.w.names in
  let per_req x = float_of_int x /. float_of_int w.seq in
  let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  let io0, io1 = t.io in
  let events =
    let s = ref 0 in
    for tag = 1 to Atmo_obs.Event.tag_count do
      s := !s + Sink.emitted_count ~tag
    done;
    !s
  in
  let probe_mean =
    Harness.median (List.map (fun (_, s) -> snd (Kv_store.probe_stats s)) w.shards)
  in
  Harness.
    [
      metric "core.step.ns" "ns" (Tracer.mean_self_ns tr n.step);
      metric "core.step.words" "words" (Tracer.mean_self_words tr n.step);
      metric "core.step.us" "us" (Tracer.mean_self_ns tr n.step /. 1e3);
      metric "core.ipc.fastpath_ratio" "ratio" (ratio t.fastpath t.slowpath);
      metric "pm.borrows_per_op" "count" (per_req t.borrows);
      metric "drivers.nic.ns" "ns" (Tracer.mean_self_ns tr n.nic_n);
      metric "drivers.blk.ns" "ns" (Tracer.mean_self_ns tr n.blk);
      metric "hw.iotlb.hit_ratio" "ratio"
        (ratio (io1.Tlb.hits - io0.Tlb.hits) (io1.Tlb.misses - io0.Tlb.misses));
      metric "drivers.errors" "count" (float_of_int t.errors);
      metric "hw.iommu.blocked" "count" (float_of_int t.blocked);
      metric "net.app.ns" "ns" (Tracer.mean_self_ns tr n.app_n);
      metric "net.kv.probe_mean" "probes" probe_mean;
      metric "obs.events_per_op" "count" (per_req events);
      metric "obs.dropped_per_op" "count" (per_req (Sink.dropped ()));
      metric "obs.windows" "count"
        (float_of_int (Atmo_obs.Timeseries.ticks (Monitor.series w.monitor)));
      metric "sim.kernel_cyc" "cyc" (per_req w.layers.kernel);
      metric "sim.nic_cyc" "cyc" (per_req w.layers.nic);
      metric "sim.app_cyc" "cyc" (per_req w.layers.app);
      metric "sim.device_wait_cyc" "cyc" (per_req w.layers.dev);
      metric "bench.trace_overhead_pct" "%"
        (100. *. (1. -. (median t.rates.per_ref_s /. median u.rates.per_ref_s)));
    ]

(* Tracing never moves simulated time: the traced pass must reproduce
   the untraced pass's latencies and clock bit for bit. *)
let identity ~u ~t =
  [
    ( "kv: traced = untraced (latency digest, end cycle)",
      sim_digest u.w = sim_digest t.w && u.w.sim_end = t.w.sim_end );
  ]
