module Phys_mem = Atmo_hw.Phys_mem
module Iommu = Atmo_hw.Iommu
module Clock = Atmo_hw.Clock
module Obs = Atmo_obs.Sink
module Event = Atmo_obs.Event
module Span = Atmo_obs.Span
module Fault = Atmo_devmodel.Fault
module Model = Atmo_devmodel.Model
module Vring = Virtio_ring

let submission_queue = 0
let block_bytes = Block.block_bytes

(* request type codes, per virtio-blk: 0 = VIRTIO_BLK_T_IN (device
   writes, i.e. a read), 1 = VIRTIO_BLK_T_OUT (a write) *)
let t_in = 0
let t_out = 1

let header_bytes = 16
(* header (16) + one block + status byte padded to keep slots aligned *)
let slot_bytes = header_bytes + block_bytes + 16

type op = Block.op = Read | Write

(* device-side view of an accepted request *)
type pending = {
  d_slot : int;
  d_op : op;
  d_lba : int;
  d_due : int;
}

(* driver-side view of an in-flight slot *)
type inflight = {
  i_tag : int;
  i_op : op;
  i_lba : int;
  i_submitted : int;
}

type t = {
  mem : Phys_mem.t;
  iommu : Iommu.t;
  device : int;
  clock : Clock.t;
  store : Block.t;
  model : Model.t;
  mutable vr : Vring.t option;
  mutable arena : int;  (* iova of the request arena *)
  mutable depth : int;
  free : int Queue.t;  (* slots not in flight *)
  inflight : (int, inflight) Hashtbl.t;  (* slot -> driver record *)
  mutable pending : pending list;  (* device queue, oldest first *)
  mutable next_tag : int;
}

let create mem iommu ~device ~clock ~cost ~capacity_blocks =
  {
    mem;
    iommu;
    device;
    clock;
    store = Block.create ~clock ~cost ~capacity_blocks;
    model =
      Model.register ~name:(Printf.sprintf "virtio-blk%d" device) ~device
        ~initial:Model.Reset;
    vr = None;
    arena = 0;
    depth = 0;
    free = Queue.create ();
    inflight = Hashtbl.create 64;
    pending = [];
    next_tag = 0;
  }

let model t = t.model
let errors t = Model.errors t.model
let error_count t = t.model.Model.error_count
let queue_depth t = Hashtbl.length t.inflight

let hdr_iova t slot = t.arena + (slot * slot_bytes)
let data_iova t slot = hdr_iova t slot + header_bytes
let status_iova t slot = data_iova t slot + block_bytes

let setup t ~ring_iova ~arena_iova ~depth =
  if depth <= 0 then Error (Fault.Bad_setup "depth <= 0")
  else begin
    let qsz = 3 * depth in
    let desc, avail, used, _total = Vring.layout ~qsz ~base:ring_iova in
    let vr = Vring.create (Dma.ring t.iommu ~device:t.device) ~qsz ~desc ~avail ~used in
    t.arena <- arena_iova;
    t.depth <- depth;
    (* probe the arena so a bad window fails at setup, not mid-request *)
    let probe = Bytes.make 1 '\000' in
    if not (Iommu.dma_write t.iommu ~device:t.device ~iova:arena_iova probe)
       || not
            (Iommu.dma_write t.iommu ~device:t.device
               ~iova:(arena_iova + (depth * slot_bytes) - 1)
               probe)
    then begin
      let e = Fault.Dma_fault { iova = arena_iova; len = depth * slot_bytes } in
      Model.note_error t.model e;
      Error e
    end
    else begin
      t.vr <- Some vr;
      Queue.clear t.free;
      for i = 0 to depth - 1 do
        Queue.add i t.free
      done;
      Hashtbl.reset t.inflight;
      Model.on_setup t.model;
      Ok ()
    end
  end

let submit t op ~lba ~data =
  match (Block.check t.store ~lba ~data, t.vr) with
  | Error e, _ -> Error e
  | Ok (), None -> Error (Fault.Bad_setup "queue not set up")
  | Ok (), Some vr ->
    match Queue.take_opt t.free with
    | None -> Error Fault.Queue_full
    | Some slot ->
      let fail e =
        Queue.add slot t.free;
        Model.note_error t.model e;
        Error e
      in
      (* header: type u32, reserved u32, sector u64 *)
      let hdr = Bytes.make header_bytes '\000' in
      Bytes.set_int32_le hdr 0 (Int32.of_int (match op with Read -> t_in | Write -> t_out));
      Bytes.set_int64_le hdr 8 (Int64.of_int lba);
      if not (Iommu.dma_write t.iommu ~device:t.device ~iova:(hdr_iova t slot) hdr) then
        fail (Fault.Dma_fault { iova = hdr_iova t slot; len = header_bytes })
      else begin
        let data_ok =
          match op, data with
          | Write, Some d -> Iommu.dma_write t.iommu ~device:t.device ~iova:(data_iova t slot) d
          | _ -> true
        in
        if not data_ok then
          fail (Fault.Dma_fault { iova = data_iova t slot; len = block_bytes })
        else begin
          let d0 = 3 * slot in
          let data_flags =
            Vring.flag_next lor (match op with Read -> Vring.flag_write | Write -> 0)
          in
          if
            Vring.write_desc vr ~slot:d0 ~addr:(hdr_iova t slot) ~len:header_bytes
              ~flags:Vring.flag_next ~next:(d0 + 1) ()
            && Vring.write_desc vr ~slot:(d0 + 1) ~addr:(data_iova t slot)
                 ~len:block_bytes ~flags:data_flags ~next:(d0 + 2) ()
            && Vring.write_desc vr ~slot:(d0 + 2) ~addr:(status_iova t slot) ~len:1
                 ~flags:Vring.flag_write ()
            && Vring.push_avail vr ~head:d0
          then begin
            let tag = t.next_tag in
            t.next_tag <- tag + 1;
            Hashtbl.replace t.inflight slot
              { i_tag = tag; i_op = op; i_lba = lba; i_submitted = Clock.now t.clock };
            Model.note_submit t.model 1;
            Model.on_op t.model;
            (* device pops the chain at the doorbell and schedules it *)
            (match Vring.device_pop_avail vr with
             | Some head when head = d0 ->
               t.pending <-
                 t.pending
                 @ [ { d_slot = slot; d_op = op; d_lba = lba;
                       d_due = Block.due_time t.store op } ]
             | _ ->
               (* chain the device cannot parse: fail the request *)
               Model.fault t.model Fault.Malformed_desc);
            if Obs.tracing () then begin
              let sid = Span.pair Span.Drv_submit in
              Obs.emit_drv_doorbell ~device:t.device ~queue:submission_queue ();
              Span.note_submit ~device:t.device ~tag ~span:sid
            end;
            Ok tag
          end
          else fail (Fault.Dma_fault { iova = hdr_iova t slot; len = header_bytes })
        end
      end

let submit_read t ~lba = submit t Read ~lba ~data:None
let submit_write t ~lba ~data = submit t Write ~lba ~data:(Some data)

(* Device side: execute one due request against the block store and
   push its used entry. *)
let execute t vr p =
  (match p.d_op with
   | Write ->
     (match Iommu.dma_read t.iommu ~device:t.device ~iova:(data_iova t p.d_slot) ~len:block_bytes with
      | Some d -> Block.write t.store ~lba:p.d_lba d
      | None -> ())
   | Read ->
     ignore
       (Iommu.dma_write t.iommu ~device:t.device ~iova:(data_iova t p.d_slot)
          (Block.read t.store ~lba:p.d_lba)));
  ignore
    (Iommu.dma_write t.iommu ~device:t.device ~iova:(status_iova t p.d_slot)
       (Bytes.make 1 '\000'));
  ignore (Vring.device_push_used vr ~id:(3 * p.d_slot) ~len:block_bytes);
  Model.note_deliver t.model 1

let poll t =
  match t.vr with
  | None -> []
  | Some vr ->
    if Model.pending_irqs t.model > 0 then Model.ack_irqs t.model;
    let now = Clock.now t.clock in
    let due, still = List.partition (fun p -> p.d_due <= now) t.pending in
    t.pending <- still;
    (* device side: execute due requests, with hostile glitches;
       reorder defers a completion past the rest of the batch *)
    let deferred = ref [] in
    List.iter
      (fun p ->
        match
          Model.inject t.model ~site:"virtio-blk.cq"
            [ Fault.Malformed_desc; Fault.Duplicate_completion;
              Fault.Reorder_completion; Fault.Spurious_irq; Fault.Irq_storm;
              Fault.Dma_escape ]
        with
        | None -> execute t vr p
        | Some Fault.Malformed_desc ->
          (* an extra used entry naming a descriptor that was never
             submitted, then the real completion *)
          ignore (Vring.device_push_used vr ~id:((3 * t.depth) + 5) ~len:0);
          execute t vr p
        | Some Fault.Duplicate_completion ->
          execute t vr p;
          Model.note_dup t.model;
          ignore (Vring.device_push_used vr ~id:(3 * p.d_slot) ~len:block_bytes)
        | Some Fault.Reorder_completion -> deferred := p :: !deferred
        | Some Fault.Dma_escape ->
          (* a stray copy aimed outside the window, then the real op *)
          Dma.escape t.iommu ~device:t.device t.model (Bytes.make 8 '\000');
          execute t vr p
        | Some ((Fault.Short_desc | Fault.Spurious_irq | Fault.Irq_storm) as f) ->
          (* not expressible on this queue; [inject] absorbs the
             interrupt faults itself *)
          Model.recovered t.model f;
          execute t vr p)
      due;
    if !deferred <> [] then begin
      List.iter (execute t vr) (List.rev !deferred);
      Model.recovered t.model Fault.Reorder_completion
    end;
    (* driver side: drain the used ring, accept only in-flight chains *)
    let rec drain acc =
      match Vring.poll_used vr with
      | None -> List.rev acc
      | Some (id, _len) ->
        if id < 0 || id >= 3 * t.depth || id mod 3 <> 0 then begin
          Model.note_error t.model
            (Fault.Malformed { slot = id; detail = "used id out of range" });
          Model.recovered t.model Fault.Malformed_desc;
          drain acc
        end
        else begin
          let slot = id / 3 in
          match Hashtbl.find_opt t.inflight slot with
          | None ->
            Model.note_error t.model (Fault.Duplicate { tag = slot });
            Model.recovered t.model Fault.Duplicate_completion;
            drain acc
          | Some i ->
            Hashtbl.remove t.inflight slot;
            Queue.add slot t.free;
            let status =
              match
                Iommu.dma_read t.iommu ~device:t.device ~iova:(status_iova t slot) ~len:1
              with
              | Some b -> Bytes.get_uint8 b 0
              | None -> 0xff
            in
            let data =
              match i.i_op with
              | Read ->
                (match
                   Iommu.dma_read t.iommu ~device:t.device ~iova:(data_iova t slot)
                     ~len:block_bytes
                 with
                 | Some d -> Some d
                 | None -> None)
              | Write -> None
            in
            Model.note_harvest t.model 1;
            if Obs.tracing () then begin
              Atmo_obs.Metrics.observe "lat/nvme_io" (now - i.i_submitted);
              let sid = Span.pair Span.Drv_complete in
              Span.edge Span.Drv ~src:(Span.take_submit ~device:t.device ~tag:i.i_tag)
                ~dst:sid
            end;
            drain
              ({ Block.tag = i.i_tag; op = i.i_op; lba = i.i_lba; ok = status = 0; data }
               :: acc)
        end
    in
    let completions = drain [] in
    if completions <> [] && Obs.tracing () then
      Obs.emit_drv_completion ~device:t.device ~count:(List.length completions) ();
    completions

let wait_all t =
  match t.pending with
  | [] -> poll t
  | q ->
    let latest = List.fold_left (fun acc p -> max acc p.d_due) 0 q in
    let now = Clock.now t.clock in
    if latest > now then Clock.advance t.clock (latest - now);
    poll t

let read_block_direct t ~lba = Block.read t.store ~lba
