module Phys_mem = Atmo_hw.Phys_mem
module Iommu = Atmo_hw.Iommu
module Clock = Atmo_hw.Clock
module Cost = Atmo_sim.Cost
module Obs = Atmo_obs.Sink
module Event = Atmo_obs.Event
module Span = Atmo_obs.Span
module Fault = Atmo_devmodel.Fault
module Model = Atmo_devmodel.Model

(* queue ids carried by doorbell/completion tracepoints *)
let rx_queue = 0
let tx_queue = 1

let descriptor_bytes = 16
let line_rate_pps = 14.2e6

(* Burst counters, registered on first use (the first traced burst, as
   a by-name bump would) and cached: a registry probe per burst is a
   string hash on the request path. *)
let rx_ctr = lazy (Atmo_obs.Metrics.counter "drv/ixgbe_rx")
let tx_ctr = lazy (Atmo_obs.Metrics.counter "drv/ixgbe_tx")

let flag_dd = 0x1
let flag_own = 0x2

(* hostile-mode DMA escapes aim here: far outside any mapped window *)
let escape_iova = 0x7f00_0000_0000

type ring = {
  iova : int;  (* base of the descriptor ring, device-visible *)
  slots : int;
  bufs : (int * int) array;  (* per-slot (buffer iova, capacity) *)
  mutable hw_next : int;  (* next slot the device will use *)
  mutable drv_next : int;  (* next slot the driver will harvest/fill *)
}

type t = {
  mem : Phys_mem.t;
  iommu : Iommu.t;
  device : int;
  clock : Clock.t;
  cost : Cost.t;
  model : Model.t;
  mutable rx : ring option;
  mutable tx : ring option;
  mutable tx_wire : bytes list;  (* newest first *)
  mutable rx_drops : int;
  mutable rx_frames : int;
  mutable tx_frames : int;
  mutable errors : Fault.error list;  (* newest first, capped *)
  mutable error_count : int;
  rdesc : bytes;  (* the descriptor last read off a ring *)
  wdesc : bytes;  (* the descriptor being written to a ring *)
}

let error_cap = 32

let note_error t e =
  t.error_count <- t.error_count + 1;
  if List.length t.errors < error_cap then t.errors <- e :: t.errors

let create mem iommu ~device ~clock ~cost =
  {
    mem;
    iommu;
    device;
    clock;
    cost;
    model =
      Model.register ~name:(Printf.sprintf "ixgbe%d" device) ~device
        ~initial:Model.Reset;
    rx = None;
    tx = None;
    tx_wire = [];
    rx_drops = 0;
    rx_frames = 0;
    tx_frames = 0;
    errors = [];
    error_count = 0;
    rdesc = Bytes.make descriptor_bytes '\000';
    wdesc = Bytes.make descriptor_bytes '\000';
  }

let model t = t.model
let set_hostile t h = Model.set_hostile t.model h
let errors t = List.rev t.errors
let error_count t = t.error_count

(* All descriptor accesses are device-side: they go through the IOMMU,
   into and out of the device's two scratch descriptors.  [read_desc]
   says whether the read succeeded; the [desc_*] accessors decode what
   it left in [rdesc] (until the next [read_desc]). *)
let desc_addr ring slot = ring.iova + (slot * descriptor_bytes)

let read_desc t ring slot =
  match
    Iommu.dma_read_into t.iommu ~device:t.device ~iova:(desc_addr ring slot)
      ~len:descriptor_bytes t.rdesc
  with
  | Ok () -> true
  | Error _ -> false

let desc_buf t = Int64.to_int (Bytes.get_int64_le t.rdesc 0)
let desc_len t = Bytes.get_uint16_le t.rdesc 8
let desc_flags t = Bytes.get_uint16_le t.rdesc 10

(* Bytes 12-15 of [wdesc] are reserved and stay zero. *)
let write_desc t ring slot ~buf_iova ~len ~flags =
  let b = t.wdesc in
  Bytes.set_int64_le b 0 (Int64.of_int buf_iova);
  Bytes.set_uint16_le b 8 len;
  Bytes.set_uint16_le b 10 flags;
  Iommu.dma_write t.iommu ~device:t.device ~iova:(desc_addr ring slot) b

let setup_ring t ~ring_iova ~buffers ~flags =
  let slots = Array.length buffers in
  if slots = 0 then Error (Fault.Bad_setup "no buffers")
  else begin
    let ring =
      { iova = ring_iova; slots; bufs = Array.copy buffers; hw_next = 0; drv_next = 0 }
    in
    let fault = ref None in
    Array.iteri
      (fun i (buf_iova, len) ->
        if !fault = None && not (write_desc t ring i ~buf_iova ~len ~flags) then
          fault := Some (Fault.Dma_fault { iova = desc_addr ring i; len = descriptor_bytes }))
      buffers;
    match !fault with
    | Some e ->
      note_error t e;
      Error e
    | None -> Ok ring
  end

let setup_rx t ~ring_iova ~buffers =
  match setup_ring t ~ring_iova ~buffers ~flags:flag_own with
  | Error _ as e -> e
  | Ok ring ->
    t.rx <- Some ring;
    Model.on_setup t.model;
    (* arming the ring is the first tail-register write *)
    if Obs.tracing () then
      Obs.emit_drv_doorbell ~device:t.device ~queue:rx_queue ();
    Ok ()

let setup_tx t ~ring_iova ~buffers =
  match setup_ring t ~ring_iova ~buffers ~flags:0 with
  | Error _ as e -> e
  | Ok ring ->
    t.tx <- Some ring;
    Model.on_setup t.model;
    Ok ()

(* Device-side delivery of one frame into the next hardware-owned RX
   descriptor.  In hostile mode this is the injection point: the device
   may post a malformed or truncated descriptor, duplicate the
   completion, raise bogus interrupts, or aim its DMA outside the IOMMU
   window.  None of these may reach the driver as anything but a typed
   error. *)
let deliver_into t ring frame =
  if
    read_desc t ring ring.hw_next
    && desc_flags t land flag_own <> 0
    && Bytes.length frame <= desc_len t
  then begin
    let buf_iova = desc_buf t in
    if
      Iommu.dma_write t.iommu ~device:t.device ~iova:buf_iova frame
      && write_desc t ring ring.hw_next ~buf_iova ~len:(Bytes.length frame)
           ~flags:flag_dd
    then begin
      ring.hw_next <- (ring.hw_next + 1) mod ring.slots;
      Model.note_deliver t.model 1;
      if Obs.tracing () then begin
        (* wire-side delivery: remembered per device so the next
           rx burst can link its completion back causally *)
        let sid = Span.pair Span.Drv_submit in
        Span.note_submit ~device:t.device ~tag:rx_queue ~span:sid
      end;
      true
    end
    else begin
      t.rx_drops <- t.rx_drops + 1;
      false
    end
  end
  else begin
    t.rx_drops <- t.rx_drops + 1;
    false
  end

(* Post a descriptor the driver must reject: DD set with an impossible
   length.  The completion is "delivered" (the driver will consume and
   discard it); the frame itself is lost. *)
let deliver_poisoned t ring ~len =
  if read_desc t ring ring.hw_next && desc_flags t land flag_own <> 0 then begin
    if write_desc t ring ring.hw_next ~buf_iova:(desc_buf t) ~len ~flags:flag_dd then begin
      ring.hw_next <- (ring.hw_next + 1) mod ring.slots;
      Model.note_deliver t.model 1
    end
  end;
  t.rx_drops <- t.rx_drops + 1;
  false

let wire_deliver t frame =
  match t.rx with
  | None ->
    t.rx_drops <- t.rx_drops + 1;
    false
  | Some ring ->
    (match
       Model.inject t.model ~site:"ixgbe.wire_deliver"
         [ Fault.Malformed_desc; Fault.Short_desc; Fault.Spurious_irq;
           Fault.Irq_storm; Fault.Duplicate_completion; Fault.Dma_escape ]
     with
     | None -> deliver_into t ring frame
     | Some Fault.Malformed_desc ->
       (* length beyond any buffer capacity *)
       deliver_poisoned t ring ~len:0xffff
     | Some Fault.Short_desc ->
       (* zero-length completion: truncated past the point of use *)
       deliver_poisoned t ring ~len:0
     | Some Fault.Spurious_irq ->
       Model.raise_irq t.model;
       Model.recovered t.model Fault.Spurious_irq;
       deliver_into t ring frame
     | Some Fault.Irq_storm ->
       for _ = 0 to Model.storm_threshold + 7 do
         Model.raise_irq t.model
       done;
       (* auto-mask bounds the storm; the vector unmasks at the next poll *)
       Model.recovered t.model Fault.Irq_storm;
       deliver_into t ring frame
     | Some Fault.Duplicate_completion ->
       let first = deliver_into t ring frame in
       if first then begin
         Model.note_dup t.model;
         ignore (deliver_into t ring frame)
       end;
       first
     | Some Fault.Dma_escape ->
       (* the device aims the frame outside its window; the IOMMU must
          reject it before a byte lands *)
       let blocked = not (Iommu.dma_write t.iommu ~device:t.device ~iova:escape_iova frame) in
       Model.note_escape t.model ~blocked;
       if blocked then Model.recovered t.model Fault.Dma_escape;
       t.rx_drops <- t.rx_drops + 1;
       false
     | Some (Fault.Reorder_completion as f) ->
       (* positional ring: reordering is not expressible; treat as a
          well-behaved delivery after noting the attempt *)
       Model.recovered t.model f;
       deliver_into t ring frame)

let wire_collect t =
  let frames = List.rev t.tx_wire in
  t.tx_wire <- [];
  frames

let rx_drops t = t.rx_drops

(* Hand a harvested descriptor back to hardware at its slot's real
   buffer capacity. *)
let recycle t ring ~buf_iova ~cap =
  ignore (write_desc t ring ring.drv_next ~buf_iova ~len:cap ~flags:flag_own);
  ring.drv_next <- (ring.drv_next + 1) mod ring.slots;
  Model.note_harvest t.model 1

let reject t e f =
  note_error t e;
  Model.recovered t.model f

let rx_burst t ~max =
  match t.rx with
  | None -> []
  | Some ring ->
    (* level-triggered vector: polling services and unmasks it *)
    if Model.pending_irqs t.model > 0 then Model.ack_irqs t.model;
    Model.on_op t.model;
    let rec harvest acc n =
      if n >= max || not (read_desc t ring ring.drv_next && desc_flags t land flag_dd <> 0)
      then acc
      else begin
        let buf_iova = desc_buf t and len = desc_len t in
        Clock.advance t.clock t.cost.Cost.driver_per_packet;
        let _, cap = ring.bufs.(ring.drv_next mod Array.length ring.bufs) in
        if len = 0 then begin
          recycle t ring ~buf_iova ~cap;
          reject t (Fault.Short_frame { len = 0; min = 1 }) Fault.Short_desc;
          harvest acc (n + 1)
        end
        else if len > cap then begin
          let slot = ring.drv_next in
          recycle t ring ~buf_iova ~cap;
          reject t
            (Fault.Malformed { slot; detail = Printf.sprintf "len %d > capacity %d" len cap })
            Fault.Malformed_desc;
          harvest acc (n + 1)
        end
        else
          match Iommu.dma_read_checked t.iommu ~device:t.device ~iova:buf_iova ~len with
          | Ok frame ->
            recycle t ring ~buf_iova ~cap;
            t.rx_frames <- t.rx_frames + 1;
            harvest (frame :: acc) (n + 1)
          | Error de ->
            recycle t ring ~buf_iova ~cap;
            reject t (Fault.Dma_fault { iova = de.Iommu.e_iova; len }) Fault.Malformed_desc;
            harvest acc (n + 1)
      end
    in
    let frames = List.rev (harvest [] 0) in
    let n = List.length frames in
    if n > 0 && Obs.tracing () then begin
      Obs.emit_drv_completion ~device:t.device ~count:n ();
      (* recycled descriptors are published with a tail-register write *)
      Obs.emit_drv_doorbell ~device:t.device ~queue:rx_queue ();
      Atmo_obs.Metrics.Counter.add (Lazy.force rx_ctr) n;
      let sid = Span.pair Span.Drv_complete in
      Span.edge Span.Drv ~src:(Span.take_submit ~device:t.device ~tag:rx_queue)
        ~dst:sid
    end;
    frames

let tx_burst t frames =
  match t.tx with
  | None -> 0
  | Some ring ->
    Model.on_op t.model;
    let accepted =
      List.fold_left
        (fun accepted frame ->
          Clock.advance t.clock t.cost.Cost.driver_per_packet;
          (* a slot is free when its OWN and DD bits are clear *)
          if
            read_desc t ring ring.drv_next
            && desc_flags t land (flag_own lor flag_dd) = 0
          then begin
            let buf_iova, cap = ring.bufs.(ring.drv_next mod Array.length ring.bufs) in
            if
              Bytes.length frame <= cap
              && Iommu.dma_write t.iommu ~device:t.device ~iova:buf_iova frame
            then begin
              ring.drv_next <- (ring.drv_next + 1) mod ring.slots;
              t.tx_wire <- Bytes.copy frame :: t.tx_wire;
              t.tx_frames <- t.tx_frames + 1;
              accepted + 1
            end
            else accepted
          end
          else accepted)
        0 frames
    in
    if accepted > 0 then begin
      (* transmissions complete synchronously in this model: the driver
         observes the send on the same doorbell *)
      Model.note_submit t.model accepted;
      Model.note_deliver t.model accepted;
      Model.note_harvest t.model accepted;
      if Obs.tracing () then begin
        Obs.emit_drv_doorbell ~device:t.device ~queue:tx_queue ();
        Atmo_obs.Metrics.Counter.add (Lazy.force tx_ctr) accepted
      end
    end;
    accepted

let stats t = (t.rx_frames, t.tx_frames)
