module Phys_mem = Atmo_hw.Phys_mem
module Iommu = Atmo_hw.Iommu
module Clock = Atmo_hw.Clock
module Cost = Atmo_sim.Cost
module Obs = Atmo_obs.Sink
module Event = Atmo_obs.Event
module Span = Atmo_obs.Span
module Fault = Atmo_devmodel.Fault
module Model = Atmo_devmodel.Model
module Vring = Virtio_ring

let rx_queue = 0
let tx_queue = 1

type queue = {
  vr : Vring.t;
  bufs : (int * int) array;  (* slot i -> (buffer iova, capacity) *)
  free : int Queue.t;  (* TX: slots not in flight *)
}

type t = {
  mem : Phys_mem.t;
  iommu : Iommu.t;
  device : int;
  clock : Clock.t;
  cost : Cost.t;
  model : Model.t;
  mutable rxq : queue option;
  mutable txq : queue option;
  mutable tx_wire : bytes list;  (* newest first *)
  mutable rx_drops : int;
  mutable rx_frames : int;
  mutable tx_frames : int;
}

let create mem iommu ~device ~clock ~cost =
  {
    mem;
    iommu;
    device;
    clock;
    cost;
    model =
      Model.register ~name:(Printf.sprintf "virtio-net%d" device) ~device
        ~initial:Model.Reset;
    rxq = None;
    txq = None;
    tx_wire = [];
    rx_drops = 0;
    rx_frames = 0;
    tx_frames = 0;
  }

let model t = t.model
let errors t = Model.errors t.model
let error_count t = t.model.Model.error_count

let setup_queue t ~ring_iova ~buffers ~desc_flags ~post =
  let qsz = Array.length buffers in
  if qsz = 0 then Error (Fault.Bad_setup "no buffers")
  else begin
    let desc, avail, used, _total = Vring.layout ~qsz ~base:ring_iova in
    let vr = Vring.create (Dma.ring t.iommu ~device:t.device) ~qsz ~desc ~avail ~used in
    let fault = ref None in
    Array.iteri
      (fun i (addr, cap) ->
        if !fault = None then begin
          if not (Vring.write_desc vr ~slot:i ~addr ~len:cap ~flags:desc_flags ())
          then fault := Some (Fault.Dma_fault { iova = ring_iova; len = 16 })
          else if post && not (Vring.push_avail vr ~head:i) then
            fault := Some (Fault.Dma_fault { iova = avail; len = 2 })
        end)
      buffers;
    match !fault with
    | Some e ->
      Model.note_error t.model e;
      Error e
    | None ->
      let free = Queue.create () in
      if not post then Array.iteri (fun i _ -> Queue.add i free) buffers;
      Ok { vr; bufs = Array.copy buffers; free }
  end

let setup_rx t ~ring_iova ~buffers =
  match setup_queue t ~ring_iova ~buffers ~desc_flags:Vring.flag_write ~post:true with
  | Error _ as e -> e
  | Ok q ->
    t.rxq <- Some q;
    Model.on_setup t.model;
    if Obs.tracing () then
      Obs.emit_drv_doorbell ~device:t.device ~queue:rx_queue ();
    Ok ()

let setup_tx t ~ring_iova ~buffers =
  match setup_queue t ~ring_iova ~buffers ~desc_flags:0 ~post:false with
  | Error _ as e -> e
  | Ok q ->
    t.txq <- Some q;
    Model.on_setup t.model;
    Ok ()

(* Device side: claim the next available RX descriptor, DMA the frame
   into its buffer, push a used entry.  Returns the head used. *)
let deliver_into t q frame =
  match Vring.device_pop_avail q.vr with
  | None ->
    t.rx_drops <- t.rx_drops + 1;
    None
  | Some head ->
    (match Vring.read_desc q.vr ~slot:head with
     | Some (addr, cap, flags, _next)
       when flags land Vring.flag_write <> 0 && Bytes.length frame <= cap ->
       if
         Iommu.dma_write t.iommu ~device:t.device ~iova:addr frame
         && Vring.device_push_used q.vr ~id:head ~len:(Bytes.length frame)
       then begin
         Model.note_deliver t.model 1;
         if Obs.tracing () then begin
           let sid = Span.pair Span.Drv_submit in
           Span.note_submit ~device:t.device ~tag:rx_queue ~span:sid
         end;
         Some head
       end
       else begin
         t.rx_drops <- t.rx_drops + 1;
         None
       end
     | _ ->
       t.rx_drops <- t.rx_drops + 1;
       None)

let deliver t q frame = deliver_into t q frame <> None

let wire_deliver t frame =
  match t.rxq with
  | None ->
    t.rx_drops <- t.rx_drops + 1;
    false
  | Some q ->
    (match
       Model.inject t.model ~site:"virtio.wire_deliver"
         [ Fault.Malformed_desc; Fault.Short_desc; Fault.Spurious_irq;
           Fault.Irq_storm; Fault.Duplicate_completion; Fault.Dma_escape ]
     with
     | None -> deliver t q frame
     | Some Fault.Malformed_desc ->
       (* spurious used entry naming a descriptor that does not exist;
          no buffer is consumed, the frame is lost *)
       ignore (Vring.device_push_used q.vr ~id:(Vring.qsz q.vr + 17) ~len:64);
       Model.note_deliver t.model 1;
       t.rx_drops <- t.rx_drops + 1;
       false
     | Some Fault.Short_desc ->
       (* a real buffer is consumed but completed with zero length *)
       (match Vring.device_pop_avail q.vr with
        | Some head ->
          ignore (Vring.device_push_used q.vr ~id:head ~len:0);
          Model.note_deliver t.model 1
        | None -> ());
       t.rx_drops <- t.rx_drops + 1;
       false
     | Some Fault.Duplicate_completion ->
       (match deliver_into t q frame with
        | None -> false
        | Some head ->
          (* the same head pushed used twice; the driver reads the same
             buffer contents again, a duplicate frame at NIC level *)
          Model.note_dup t.model;
          Model.note_deliver t.model 1;
          ignore (Vring.device_push_used q.vr ~id:head ~len:(Bytes.length frame));
          true)
     | Some Fault.Dma_escape ->
       Dma.escape t.iommu ~device:t.device t.model frame;
       t.rx_drops <- t.rx_drops + 1;
       false
     | Some ((Fault.Reorder_completion | Fault.Spurious_irq | Fault.Irq_storm) as f) ->
       (* not expressible on a virtqueue, and [inject] absorbs the
          interrupt faults *)
       Model.recovered t.model f;
       deliver t q frame)

let wire_collect t =
  let frames = List.rev t.tx_wire in
  t.tx_wire <- [];
  frames

let rx_drops t = t.rx_drops

let rx_burst t ~max =
  match t.rxq with
  | None -> []
  | Some q ->
    if Model.pending_irqs t.model > 0 then Model.ack_irqs t.model;
    Model.on_op t.model;
    let qsz = Vring.qsz q.vr in
    let rec harvest acc n =
      if n >= max then acc
      else
        match Vring.poll_used q.vr with
        | None -> acc
        | Some (id, len) ->
          Clock.advance t.clock t.cost.Cost.driver_per_packet;
          let reject e f =
            Model.note_error t.model e;
            Model.note_harvest t.model 1;
            Model.recovered t.model f;
            harvest acc (n + 1)
          in
          if id < 0 || id >= qsz then
            reject
              (Fault.Malformed { slot = id; detail = "used id out of range" })
              Fault.Malformed_desc
          else begin
            let addr, cap = q.bufs.(id) in
            if len = 0 then begin
              (* zero-length completion: drop and repost the buffer *)
              ignore (Vring.push_avail q.vr ~head:id);
              reject (Fault.Short_frame { len = 0; min = 1 }) Fault.Short_desc
            end
            else if len > cap then begin
              ignore (Vring.push_avail q.vr ~head:id);
              reject
                (Fault.Malformed
                   { slot = id; detail = Printf.sprintf "len %d > capacity %d" len cap })
                Fault.Malformed_desc
            end
            else
              match Iommu.dma_read_checked t.iommu ~device:t.device ~iova:addr ~len with
              | Error de ->
                ignore (Vring.push_avail q.vr ~head:id);
                reject
                  (Fault.Dma_fault { iova = de.Iommu.e_iova; len })
                  Fault.Malformed_desc
              | Ok frame ->
                ignore (Vring.push_avail q.vr ~head:id);
                Model.note_harvest t.model 1;
                t.rx_frames <- t.rx_frames + 1;
                harvest (frame :: acc) (n + 1)
          end
    in
    let frames = List.rev (harvest [] 0) in
    let n = List.length frames in
    if n > 0 && Obs.tracing () then begin
      Obs.emit_drv_completion ~device:t.device ~count:n ();
      Obs.emit_drv_doorbell ~device:t.device ~queue:rx_queue ();
      Atmo_obs.Metrics.bump ~by:n "drv/virtio_rx";
      let sid = Span.pair Span.Drv_complete in
      Span.edge Span.Drv ~src:(Span.take_submit ~device:t.device ~tag:rx_queue)
        ~dst:sid
    end;
    frames

let tx_burst t frames =
  match t.txq with
  | None -> 0
  | Some q ->
    Model.on_op t.model;
    let accepted =
      List.fold_left
        (fun accepted frame ->
          Clock.advance t.clock t.cost.Cost.driver_per_packet;
          match Queue.take_opt q.free with
          | None -> accepted
          | Some slot ->
            let addr, cap = q.bufs.(slot) in
            if
              Bytes.length frame <= cap
              && Iommu.dma_write t.iommu ~device:t.device ~iova:addr frame
              && Vring.write_desc q.vr ~slot ~addr ~len:(Bytes.length frame) ()
              && Vring.push_avail q.vr ~head:slot
            then begin
              (* device consumes the descriptor synchronously *)
              (match Vring.device_pop_avail q.vr with
               | Some head ->
                 (match Vring.read_desc q.vr ~slot:head with
                  | Some (a, l, _, _) ->
                    (match Iommu.dma_read t.iommu ~device:t.device ~iova:a ~len:l with
                     | Some sent -> t.tx_wire <- sent :: t.tx_wire
                     | None -> ())
                  | None -> ());
                 ignore (Vring.device_push_used q.vr ~id:head ~len:0)
               | None -> ());
              (* reclaim the used entry, freeing the slot *)
              (match Vring.poll_used q.vr with
               | Some (id, _) when id >= 0 && id < Vring.qsz q.vr -> Queue.add id q.free
               | Some _ | None -> Queue.add slot q.free);
              t.tx_frames <- t.tx_frames + 1;
              accepted + 1
            end
            else begin
              Queue.add slot q.free;
              accepted
            end)
        0 frames
    in
    if accepted > 0 then begin
      Model.note_submit t.model accepted;
      Model.note_deliver t.model accepted;
      Model.note_harvest t.model accepted;
      if Obs.tracing () then begin
        Obs.emit_drv_doorbell ~device:t.device ~queue:tx_queue ();
        Atmo_obs.Metrics.bump ~by:accepted "drv/virtio_tx"
      end
    end;
    accepted

let stats t = (t.rx_frames, t.tx_frames)
