module Clock = Atmo_hw.Clock
module Obs = Atmo_obs.Sink
module Event = Atmo_obs.Event
module Span = Atmo_obs.Span
module Fault = Atmo_devmodel.Fault
module Model = Atmo_devmodel.Model

let submission_queue = 0

(* Submit-to-completion latency histogram, resolved on the first traced
   completion and cached (no registry probe per completion). *)
let io_hist = lazy (Atmo_obs.Metrics.histogram "lat/nvme_io")

type op = Block.op = Read | Write

type completion = Block.completion = {
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
  store : Block.t;
  mutable device : int;  (* id carried by tracepoints *)
  model : Model.t;
  outstanding : (int, unit) Hashtbl.t;  (* tags submitted, not yet harvested *)
  mutable dropped : int list;  (* tags the drop plant discarded unharvested *)
  mutable queue : pending list;  (* oldest first *)
  mutable next_tag : int;  (* tags count up: [0, next_tag) were submitted *)
  mutable drop_completion_plant : bool;
}

let block_bytes = Block.block_bytes
let max_queue = 1024

(* tags a glitching controller invents never collide with real ones *)
let bogus_tag_offset = 0x10000

(* the model is named after its device, as the other drivers name theirs *)
let model_name device = Printf.sprintf "nvme%d" device

let create ~clock ~cost ~capacity_blocks =
  {
    clock;
    store = Block.create ~clock ~cost ~capacity_blocks;
    device = 0;
    model = Model.register ~name:(model_name 0) ~device:0 ~initial:Model.Ready;
    outstanding = Hashtbl.create 64;
    dropped = [];
    queue = [];
    next_tag = 0;
    drop_completion_plant = false;
  }

let queue_depth t = List.length t.queue

let set_device t device =
  t.device <- device;
  t.model.Model.device <- device;
  t.model.Model.name <- model_name device

let model t = t.model
let errors t = Model.errors t.model
let error_count t = t.model.Model.error_count
let set_drop_completion_plant t v = t.drop_completion_plant <- v

let submit t op ~lba ~data =
  match Block.check t.store ~lba ~data with
  | Error e -> Error e
  | Ok () when queue_depth t >= max_queue -> Error Fault.Queue_full
  | Ok () ->
    let tag = t.next_tag in
    t.next_tag <- tag + 1;
    let submitted = Clock.now t.clock in
    t.queue <-
      t.queue
      @ [ { p_tag = tag; p_op = op; p_lba = lba; p_data = data; submitted;
            due = Block.due_time t.store op } ];
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

let submit_read t ~lba = submit t Read ~lba ~data:None

(* the caller may reuse [data] before the write completes *)
let submit_write t ~lba ~data = submit t Write ~lba ~data:(Some (Bytes.copy data))

let complete t p =
  match p.p_op with
  | Write ->
    (match p.p_data with Some d -> Block.write t.store ~lba:p.p_lba d | None -> ());
    { tag = p.p_tag; op = Write; lba = p.p_lba; ok = true; data = None }
  | Read ->
    { tag = p.p_tag; op = Read; lba = p.p_lba; ok = true;
      data = Some (Block.read t.store ~lba:p.p_lba) }

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
        | Some
            ((Fault.Short_desc | Fault.Dma_escape | Fault.Spurious_irq | Fault.Irq_storm)
             as f) ->
          (* not expressible on this queue pair; [inject] absorbs the
             interrupt faults itself *)
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
            t.dropped <- c.tag :: t.dropped;
            None
          end
          else begin
            Hashtbl.remove t.outstanding c.tag;
            Model.note_harvest t.model 1;
            Some (p, c)
          end
        end
        else begin
          (* Tags count up, so a submitted tag is one below
             [next_tag]; one no longer outstanding was harvested, unless
             the drop plant discarded it. *)
          let fault, err =
            if 0 <= c.tag && c.tag < t.next_tag && not (List.mem c.tag t.dropped) then
              (Fault.Duplicate_completion, Fault.Duplicate { tag = c.tag })
            else (Fault.Malformed_desc, Fault.Unknown_completion { tag = c.tag })
          in
          Model.note_error t.model err;
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

let read_block_direct t ~lba = Block.read t.store ~lba
