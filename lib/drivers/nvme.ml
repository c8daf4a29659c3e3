module Clock = Atmo_hw.Clock
module Cost = Atmo_sim.Cost
module Obs = Atmo_obs.Sink
module Event = Atmo_obs.Event
module Span = Atmo_obs.Span
module Fault = Atmo_devmodel.Fault
module Model = Atmo_devmodel.Model

let submission_queue = 0

(* Submit-to-completion latency histogram, resolved on the first traced
   completion and cached (no registry probe per completion). *)
let io_hist = lazy (Atmo_obs.Metrics.histogram "lat/nvme_io")

type op = Read | Write

type completion = {
  tag : int;
  op : op;
  lba : int;
  ok : bool;
  data : bytes option;
}

type pending = {
  p_tag : int;
  p_op : op;
  p_lba : int;
  p_data : bytes option;  (* write payload *)
  submitted : int;  (* cycle count at submission, for latency accounting *)
  due : int;  (* cycle count at which the completion posts *)
}

type t = {
  clock : Clock.t;
  cost : Cost.t;
  mutable device : int;  (* id carried by tracepoints *)
  capacity_blocks : int;
  blocks : (int, bytes) Hashtbl.t;
  model : Model.t;
  outstanding : (int, unit) Hashtbl.t;  (* tags submitted, not yet harvested *)
  harvested : (int, unit) Hashtbl.t;  (* tags already harvested (dedup) *)
  mutable queue : pending list;  (* oldest first *)
  mutable next_tag : int;
  mutable last_read_slot : int;  (* rate limiting: next free device slot *)
  mutable last_write_slot : int;
  mutable drop_completion_plant : bool;
  mutable errors : Fault.error list;  (* newest first, capped *)
  mutable error_count : int;
}

let block_bytes = 4096
let max_queue = 1024
let error_cap = 32

(* tags a glitching controller invents never collide with real ones *)
let bogus_tag_offset = 0x10000

let create ~clock ~cost ~capacity_blocks =
  if capacity_blocks <= 0 then invalid_arg "Nvme.create: capacity <= 0";
  {
    clock;
    cost;
    device = 0;
    capacity_blocks;
    blocks = Hashtbl.create 1024;
    model = Model.register ~name:"nvme0" ~device:0 ~initial:Model.Ready;
    outstanding = Hashtbl.create 64;
    harvested = Hashtbl.create 256;
    queue = [];
    next_tag = 0;
    last_read_slot = 0;
    last_write_slot = 0;
    drop_completion_plant = false;
    errors = [];
    error_count = 0;
  }

let capacity_blocks t = t.capacity_blocks
let queue_depth t = List.length t.queue

let set_device t device =
  t.device <- device;
  t.model.Model.device <- device

let device t = t.device
let model t = t.model
let set_hostile t h = Model.set_hostile t.model h
let errors t = List.rev t.errors
let error_count t = t.error_count
let set_drop_completion_plant t v = t.drop_completion_plant <- v

let note_error t e =
  t.error_count <- t.error_count + 1;
  if List.length t.errors < error_cap then t.errors <- e :: t.errors

(* Service model: a request completes after the device latency, and the
   stream of same-kind requests is spaced by the rate cap (1/cap worth
   of cycles each), whichever is later. *)
let due_time t op =
  let now = Clock.now t.clock in
  let cap =
    match op with
    | Read -> t.cost.Cost.nvme_read_cap_iops
    | Write ->
      t.cost.Cost.nvme_write_cap_iops /. (1. +. t.cost.Cost.nvme_atmo_write_penalty)
  in
  let spacing = int_of_float (t.cost.Cost.frequency_hz /. cap) in
  let latency = int_of_float (t.cost.Cost.nvme_read_latency_s *. t.cost.Cost.frequency_hz) in
  let slot_ref = match op with Read -> t.last_read_slot | Write -> t.last_write_slot in
  let slot = max now slot_ref in
  (match op with
   | Read -> t.last_read_slot <- slot + spacing
   | Write -> t.last_write_slot <- slot + spacing);
  slot + latency

let submit t op ~lba ~data =
  if lba < 0 || lba >= t.capacity_blocks then
    Error (Fault.Lba_out_of_range { lba; capacity = t.capacity_blocks })
  else if queue_depth t >= max_queue then Error Fault.Queue_full
  else begin
    let tag = t.next_tag in
    t.next_tag <- tag + 1;
    let submitted = Clock.now t.clock in
    t.queue <-
      t.queue
      @ [ { p_tag = tag; p_op = op; p_lba = lba; p_data = data; submitted;
            due = due_time t op } ];
    Hashtbl.replace t.outstanding tag ();
    Model.note_submit t.model 1;
    Model.on_op t.model;
    (* submission-queue tail write *)
    if Obs.tracing () then begin
      let sid = Span.pair Span.Drv_submit in
      Obs.emit_drv_doorbell ~device:t.device ~queue:submission_queue ();
      (* remembered per (device, tag) so the completion span can be
         causally linked back to this submission *)
      Span.note_submit ~device:t.device ~tag ~span:sid
    end;
    Ok tag
  end

let submit_read t ~lba = submit t Read ~lba ~data:None

let submit_write t ~lba ~data =
  if Bytes.length data <> block_bytes then
    Error (Fault.Bad_block_size { expected = block_bytes; got = Bytes.length data })
  else submit t Write ~lba ~data:(Some (Bytes.copy data))

let complete t p =
  match p.p_op with
  | Write ->
    (match p.p_data with
     | Some d -> Hashtbl.replace t.blocks p.p_lba d
     | None -> ());
    { tag = p.p_tag; op = Write; lba = p.p_lba; ok = true; data = None }
  | Read ->
    let data =
      match Hashtbl.find_opt t.blocks p.p_lba with
      | Some d -> Bytes.copy d
      | None -> Bytes.make block_bytes '\000'
    in
    { tag = p.p_tag; op = Read; lba = p.p_lba; ok = true; data = Some data }

let poll t =
  (* service the completion vector before touching the queue *)
  if Model.pending_irqs t.model > 0 then Model.ack_irqs t.model;
  let now = Clock.now t.clock in
  let due, still = List.partition (fun p -> p.due <= now) t.queue in
  t.queue <- still;
  (* Device side: post one CQE per due request.  A hostile controller
     additionally posts CQEs with invented tags, duplicates, storms the
     vector, or posts the batch out of order — the driver below must
     filter all of that by tag. *)
  let reorder = ref false in
  let cqes =
    List.concat_map
      (fun p ->
        let real = complete t p in
        Model.note_deliver t.model 1;
        match
          Model.inject t.model ~site:"nvme.cq"
            [ Fault.Malformed_desc; Fault.Duplicate_completion;
              Fault.Reorder_completion; Fault.Spurious_irq; Fault.Irq_storm ]
        with
        | None -> [ (p, real) ]
        | Some Fault.Malformed_desc ->
          (* an extra CQE with a tag that was never submitted *)
          [ (p, { real with tag = p.p_tag + bogus_tag_offset; ok = false; data = None });
            (p, real) ]
        | Some Fault.Duplicate_completion ->
          Model.note_dup t.model;
          [ (p, real); (p, { real with data = real.data }) ]
        | Some Fault.Reorder_completion ->
          reorder := true;
          [ (p, real) ]
        | Some Fault.Spurious_irq ->
          Model.raise_irq t.model;
          Model.recovered t.model Fault.Spurious_irq;
          [ (p, real) ]
        | Some Fault.Irq_storm ->
          for _ = 0 to Model.storm_threshold + 7 do
            Model.raise_irq t.model
          done;
          Model.recovered t.model Fault.Irq_storm;
          [ (p, real) ]
        | Some ((Fault.Short_desc | Fault.Dma_escape) as f) ->
          (* not expressible on this queue pair *)
          Model.recovered t.model f;
          [ (p, real) ])
      due
  in
  let cqes = if !reorder then List.rev cqes else cqes in
  if !reorder then Model.recovered t.model Fault.Reorder_completion;
  (* Driver side: accept only completions whose tag is outstanding. *)
  let accepted =
    List.filter_map
      (fun (p, c) ->
        if Hashtbl.mem t.outstanding c.tag then begin
          if t.drop_completion_plant then begin
            (* planted driver bug: the completion is silently skipped,
               its tag left dangling — drv-lost-completion must fire *)
            t.drop_completion_plant <- false;
            Hashtbl.remove t.outstanding c.tag;
            None
          end
          else begin
            Hashtbl.remove t.outstanding c.tag;
            Hashtbl.replace t.harvested c.tag ();
            Model.note_harvest t.model 1;
            Some (p, c)
          end
        end
        else begin
          let fault, err =
            if Hashtbl.mem t.harvested c.tag then
              (Fault.Duplicate_completion, Fault.Duplicate { tag = c.tag })
            else (Fault.Malformed_desc, Fault.Unknown_completion { tag = c.tag })
          in
          note_error t err;
          Model.recovered t.model fault;
          None
        end)
      cqes
  in
  if accepted <> [] && Obs.tracing () then begin
    Obs.emit_drv_completion ~device:t.device ~count:(List.length accepted) ();
    (* modeled submit-to-completion latency, in cycles *)
    List.iter
      (fun (p, _) ->
        Atmo_obs.Metrics.Histogram.observe (Lazy.force io_hist) (p.due - p.submitted);
        let sid = Span.pair Span.Drv_complete in
        Span.edge Span.Drv ~src:(Span.take_submit ~device:t.device ~tag:p.p_tag)
          ~dst:sid)
      accepted
  end;
  List.map snd accepted

let wait_all t =
  match t.queue with
  | [] -> poll t
  | q ->
    let latest = List.fold_left (fun acc p -> max acc p.due) 0 q in
    let now = Clock.now t.clock in
    if latest > now then Clock.advance t.clock (latest - now);
    poll t

let read_block_direct t ~lba =
  match Hashtbl.find_opt t.blocks lba with
  | Some d -> Bytes.copy d
  | None -> Bytes.make block_bytes '\000'
