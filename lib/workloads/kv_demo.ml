(* End-to-end kv-store demo workload: the span-tree acceptance scenario.

   One kernel, two containers.  The client (init, CPU 0) issues GET
   requests over an IPC request endpoint; a server thread in its own
   container (CPU 1) steers each key through a Maglev table to one of
   three kv-store shards, reads the value's backing block from an NVMe
   queue pair, and replies over a second endpoint.  Every request
   therefore crosses two IPC rendezvous and one driver
   submit/completion pair, so the profiler can reconstruct the whole
   path from the flight-recorder stream:

     Request [cpu0]
     ├── send syscall ──ipc──▶ recv syscall [cpu1] ──wakeup──▶ kv_handler [cpu1]
     │                                                         ├── drv_submit ──drv──▶ drv_complete
     │                                                         └── send syscall ──ipc──▶
     └── recv syscall ◀──────────────────────────────────────────┘
     (Request ends; latency = reply time − request time)

   The whole workload runs on one virtual clock (the NVMe device
   clock), advanced identically whether the sink is Disabled or Flight:
   every [Clock.advance] is unconditional, so the cycle figures are the
   bit-identical zero-overhead baseline when tracing is off. *)

module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Proc_mgr = Atmo_pm.Proc_mgr
module Message = Atmo_pm.Message
module Sink = Atmo_obs.Sink
module Span = Atmo_obs.Span
module Clock = Atmo_hw.Clock
module Fault = Atmo_devmodel.Fault
module Packet = Atmo_net.Packet
module Kv_store = Atmo_net.Kv_store
module Maglev = Atmo_net.Maglev

type result = {
  requests : int;
  hits : int;
  end_cycles : int;  (** virtual clock at workload end *)
  latencies : int list;  (** per-request round-trip cycles, oldest first *)
  replies : bytes list;  (** encoded reply per request, oldest first *)
  server_container : int;
  client_container : int;
  kernel : Kernel.t;
}

(* Cycles charged to the server's application logic per request (decode,
   Maglev steering, hash probe).  Charged unconditionally so the
   timeline is sink-independent. *)
let handler_cycles = 400

let kv_handler_kind = lazy (Span.register_app "kv_handler")

(* ------------------------------------------------------------------ *)
(* IPC scalar packing: requests and replies travel as the kv-store's
   wire encoding, packed 7 bytes per scalar word (length first) to stay
   inside the 63-bit int and the 8-word message cap. *)

let bytes_per_word = 7
let max_payload = bytes_per_word * (Atmo_pm.Kconfig.max_ipc_scalars - 1)

let pack_bytes b =
  let n = Bytes.length b in
  if n > max_payload then
    Fmt.invalid_arg "kv_demo: %d-byte payload exceeds the %d-byte IPC cap" n max_payload;
  let words = (n + bytes_per_word - 1) / bytes_per_word in
  let word w =
    let acc = ref 0 in
    for j = bytes_per_word - 1 downto 0 do
      let i = (w * bytes_per_word) + j in
      acc := (!acc lsl 8) lor (if i < n then Char.code (Bytes.get b i) else 0)
    done;
    !acc
  in
  n :: List.init words word

let unpack_bytes = function
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

(* ------------------------------------------------------------------ *)

let keys = 32
let key_of i = Bytes.of_string (Printf.sprintf "k%05d" (i mod keys))
let lba_of i = 1 + (i mod keys)

(* ------------------------------------------------------------------ *)
(* Device backends.  Each is a {!Device_env} handle, so the workload
   runs unchanged on either backend of a kind; both backends of a kind
   charge the virtual clock identically, so swapping one for the other
   must not move a single cycle.

   The optional NIC loop: when a NIC backend is selected, every request
   and reply payload additionally travels as an Ethernet frame through
   the device — driver tx, the wire, device rx DMA — and the bytes the
   far side decodes are the ones harvested from the RX ring. *)

let nic_slots = 8

let nic_flow = lazy (Packet.flow_of_ints ~src:0x0a00_0001 ~dst:0x0a00_0002 ~sport:7777 ~dport:11211)

(* Send [payload] through the NIC datapath and harvest it on the far
   side: driver tx -> wire -> loopback rx DMA -> driver rx.  Returns the
   payload as decoded from the received frame. *)
let nic_transfer nic payload =
  let frame = Packet.build (Lazy.force nic_flow) ~payload in
  let sent = Device_env.nic_tx nic [ frame ] in
  let collected = Device_env.nic_collect nic in
  List.iter (fun f -> ignore (Device_env.nic_deliver nic f)) collected;
  let harvested = Device_env.nic_rx nic ~max:nic_slots in
  match (sent, collected, harvested) with
  | 1, [ _ ], [ rxf ] ->
    (match Packet.payload rxf with
     | Some p -> p
     | None -> Fmt.failwith "kv_demo: nic frame lost its payload")
  | _ ->
    Fmt.failwith "kv_demo: nic transfer sent=%d wire=%d rx=%d" sent
      (List.length collected) (List.length harvested)

let run ?(requests = 16) ?(entries = 256) ?(blk = `Nvme) ?nic ?(slow_every = 0)
    ?(slow_cycles = 0) () =
  let cost = Atmo_sim.Cost.default in
  (* the clock goes in before the boot, so the boot's events carry this
     run's time, not whatever clock an earlier run left installed *)
  let dclock = Clock.create () in
  let tracing = Sink.tracing () in
  if tracing then Sink.set_clock (fun () -> Clock.now dclock);
  let k, init =
    match Kernel.boot Kernel.default_boot with
    | Ok v -> v
    | Error e -> Fmt.failwith "kv_demo: boot: %a" Atmo_util.Errno.pp e
  in
  let pm = k.Kernel.pm in
  let owner thread =
    (Kernel.container_of_thread k ~thread, Kernel.proc_of_thread k ~thread)
  in
  (* One syscall on a given CPU: wrapped in a syscall span (the timeline
     owner stamps explicit begin/end times), clock charged per the SMP
     cost model whether or not tracing is on. *)
  let tstep ~cpu thread call =
    let c = Atmo_sim.Smp.syscall_cycles cost call in
    if tracing then begin
      Sink.set_cpu cpu;
      let t0 = Clock.now dclock in
      let container, proc = owner thread in
      let sid =
        Span.begin_ ~ts:t0 ?container ?proc ~thread (Span.Syscall (Syscall.number call))
      in
      let r = Kernel.step k ~thread call in
      Clock.advance dclock c;
      Span.end_ ~ts:(Clock.now dclock) sid;
      (r, sid)
    end
    else begin
      let r = Kernel.step k ~thread call in
      Clock.advance dclock c;
      (r, 0)
    end
  in
  let ptr what = function
    | (Syscall.Rptr p, _) -> p
    | (r, _) -> Fmt.failwith "kv_demo: %s -> %a" what Syscall.pp_ret r
  in
  (* server container, process, thread *)
  let srv_container =
    ptr "new_container"
      (tstep ~cpu:0 init
         (Syscall.New_container { quota = 64; cpus = Atmo_util.Iset.empty }))
  in
  let srv_proc =
    match Proc_mgr.new_process pm ~container:srv_container ~parent:None with
    | Ok p -> p
    | Error e -> Fmt.failwith "kv_demo: new_process: %a" Atmo_util.Errno.pp e
  in
  let srv =
    match Proc_mgr.new_thread pm ~proc:srv_proc with
    | Ok t -> t
    | Error e -> Fmt.failwith "kv_demo: new_thread: %a" Atmo_util.Errno.pp e
  in
  (* request endpoint in slot 0, reply endpoint in slot 1, shared with
     the server (the capabilities a parent hands a child at spawn) *)
  let ep_req = ptr "new_endpoint" (tstep ~cpu:0 init (Syscall.New_endpoint { slot = 0 })) in
  let ep_rep = ptr "new_endpoint" (tstep ~cpu:0 init (Syscall.New_endpoint { slot = 1 })) in
  Proc_mgr.install_descriptor pm ~thread:srv ~slot:0 ~endpoint:ep_req;
  Proc_mgr.install_descriptor pm ~thread:srv ~slot:1 ~endpoint:ep_rep;
  (* application state: three kv shards behind a Maglev table, values
     naming the NVMe block that backs them *)
  let backends = [ "kv0"; "kv1"; "kv2" ] in
  let maglev = Maglev.create ~backends ~table_size:31 in
  let stores = List.map (fun b -> (b, Kv_store.create ~entries)) backends in
  let shard_of key = List.assoc (Maglev.lookup maglev (Atmo_net.Fnv.hash64 key)) stores in
  let blkdev =
    Device_env.blk ~kind:blk ~device:7 ~depth:32 ~capacity_blocks:1024 ~clock:dclock ~cost
  in
  let nicdev =
    Option.map
      (fun kind -> Device_env.nic ~kind ~device:3 ~slots:nic_slots ~clock:dclock ~cost)
      nic
  in
  let block = Bytes.make Atmo_drivers.Block.block_bytes 'v' in
  for i = 0 to keys - 1 do
    let key = key_of i in
    let value = Bytes.of_string (string_of_int (lba_of i)) in
    if not (Kv_store.set (shard_of key) ~key ~value) then
      Fmt.failwith "kv_demo: preload overflowed a %d-entry shard" entries;
    (match Device_env.blk_write blkdev ~lba:(lba_of i) ~data:block with
     | Ok _ -> ()
     | Error e -> Fmt.failwith "kv_demo: preload write: %s" (Fault.error_to_string e))
  done;
  ignore (Device_env.blk_wait blkdev);
  (* the request loop *)
  let hits = ref 0 in
  let latencies = ref [] in
  let replies = ref [] in
  for i = 0 to requests - 1 do
    let key = key_of i in
    let payload = Kv_store.encode_request (Kv_store.Get key) in
    (* client opens the request root span and sends the GET; the send
       parks until the server harvests it *)
    let t_start = Clock.now dclock in
    (* with a NIC backend, the request bytes also cross the device
       datapath; the server decodes what came off the RX ring *)
    let wire_request = Option.map (fun n -> nic_transfer n payload) nicdev in
    let req_sid =
      if tracing then begin
        Sink.set_cpu 0;
        let container, proc = owner init in
        Span.begin_ ~ts:t_start ?container ?proc ~thread:init Span.Request
      end
      else 0
    in
    (match
       tstep ~cpu:0 init
         (Syscall.Send { slot = 0; msg = Message.scalars_only (pack_bytes payload) })
     with
     | (Syscall.Rblocked, _) -> ()
     | (r, _) -> Fmt.failwith "kv_demo: client send -> %a" Syscall.pp_ret r);
    (* server harvests the request: the rendezvous wakes the client and
       emits the send→recv IPC edge *)
    let request_bytes, recv_sid =
      match tstep ~cpu:1 srv (Syscall.Recv { slot = 0 }) with
      | (Syscall.Rmsg m, sid) ->
        let ipc_bytes = unpack_bytes m.Message.scalars in
        (Option.value wire_request ~default:ipc_bytes, sid)
      | (r, _) -> Fmt.failwith "kv_demo: server recv -> %a" Syscall.pp_ret r
    in
    (* application handler span, causally downstream of the recv *)
    let h_sid =
      if tracing then begin
        Sink.set_cpu 1;
        let sid =
          Span.begin_ ~ts:(Clock.now dclock) ~container:srv_container ~proc:srv_proc
            ~thread:srv (Lazy.force kv_handler_kind)
        in
        Span.edge Span.Wakeup ~src:recv_sid ~dst:sid;
        sid
      end
      else 0
    in
    let reply =
      match Kv_store.decode_request request_bytes with
      | Some (Kv_store.Get key) ->
        (match Kv_store.get (shard_of key) ~key with
         | Some value ->
           incr hits;
           (* fetch the backing block: driver submit/complete spans and
              the submit→completion causal edge come from the driver *)
           let lba = int_of_string (Bytes.to_string value) in
           (match Device_env.blk_read blkdev ~lba with
            | Ok _ -> ignore (Device_env.blk_wait blkdev)
            | Error e -> Fmt.failwith "kv_demo: block read: %s" (Fault.error_to_string e));
           Kv_store.Value value
         | None -> Kv_store.Not_found)
      | _ -> Kv_store.Error
    in
    Clock.advance dclock handler_cycles;
    (* Injected tail-latency fault: every [slow_every]-th request
       burns [slow_cycles] extra handler time.  Advances the virtual
       clock unconditionally, so traced and untraced runs stay
       bit-identical and the slow requests are real cycle-model
       outliers, not tracing artifacts. *)
    if slow_every > 0 && i mod slow_every = slow_every - 1 then
      Clock.advance dclock slow_cycles;
    let reply_bytes = Kv_store.encode_reply reply in
    (* the reply crosses the NIC datapath too when one is attached *)
    let wire_reply = Option.map (fun n -> nic_transfer n reply_bytes) nicdev in
    (* reply leaves inside the handler span, then the handler closes *)
    (match
       tstep ~cpu:1 srv
         (Syscall.Send { slot = 1; msg = Message.scalars_only (pack_bytes reply_bytes) })
     with
     | (Syscall.Rblocked, _) -> ()
     | (r, _) -> Fmt.failwith "kv_demo: server send -> %a" Syscall.pp_ret r);
    if tracing then Span.end_ ~ts:(Clock.now dclock) h_sid;
    (* client harvests the reply (second rendezvous, second IPC edge)
       and the request span closes *)
    (match tstep ~cpu:0 init (Syscall.Recv { slot = 1 }) with
     | (Syscall.Rmsg m, _) ->
       let received = Option.value wire_reply ~default:(unpack_bytes m.Message.scalars) in
       replies := received :: !replies;
       (match Kv_store.decode_reply received with
        | Some (Kv_store.Value _) | Some Kv_store.Not_found -> ()
        | _ -> Fmt.failwith "kv_demo: bad reply for request %d" i)
     | (r, _) -> Fmt.failwith "kv_demo: client recv -> %a" Syscall.pp_ret r);
    if tracing then begin
      Sink.set_cpu 0;
      Span.end_ ~ts:(Clock.now dclock) req_sid
    end;
    latencies := (Clock.now dclock - t_start) :: !latencies
  done;
  let client_container =
    Option.value ~default:(-1) (Kernel.container_of_thread k ~thread:init)
  in
  {
    requests;
    hits = !hits;
    end_cycles = Clock.now dclock;
    latencies = List.rev !latencies;
    replies = List.rev !replies;
    server_container = srv_container;
    client_container;
    kernel = k;
  }
