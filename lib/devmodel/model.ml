module Obs = Atmo_obs.Sink
module Event = Atmo_obs.Event
module Metrics = Atmo_obs.Metrics

type state = Reset | Ready | Active | Recovering | Failed | Undefined

let state_name = function
  | Reset -> "reset"
  | Ready -> "ready"
  | Active -> "active"
  | Recovering -> "recovering"
  | Failed -> "failed"
  | Undefined -> "undefined"

type t = {
  mutable name : string;
  mutable device : int;
  mutable state : state;
  mutable hostile : Hostile.t option;
  mutable submitted : int;
  mutable delivered : int;
  mutable harvested : int;
  mutable dup_delivered : int;
  mutable irq_raised : int;
  mutable irq_acked : int;
  mutable irq_masked : bool;
  mutable auto_mask : bool;
  mutable escape_attempts : int;
  mutable escape_blocked : int;
  mutable faults : int;
  mutable recoveries : int;
  mutable error_log : Fault.error list;
  mutable error_count : int;
}

let storm_threshold = 64

let registry : t list ref = ref []

let register ~name ~device ~initial =
  let t =
    {
      name;
      device;
      state = initial;
      hostile = None;
      submitted = 0;
      delivered = 0;
      harvested = 0;
      dup_delivered = 0;
      irq_raised = 0;
      irq_acked = 0;
      irq_masked = false;
      auto_mask = true;
      escape_attempts = 0;
      escape_blocked = 0;
      faults = 0;
      recoveries = 0;
      error_log = [];
      error_count = 0;
    }
  in
  registry := t :: !registry;
  t

let all () = List.rev !registry
let reset () = registry := []
let find ~device = List.find_opt (fun t -> t.device = device) !registry

let set_hostile t h = t.hostile <- h

let note_fault t f =
  t.faults <- t.faults + 1;
  (match t.state with
   | Failed | Undefined -> ()
   | Reset | Ready | Active | Recovering -> t.state <- Recovering);
  if Obs.tracing () then begin
    Metrics.bump (Printf.sprintf "dev/%s/faults" t.name);
    Obs.emit_dev_fault ~device:t.device ~fault:(Fault.code f) ()
  end

let fault t f = note_fault t f

let recovered t f =
  t.recoveries <- t.recoveries + 1;
  (match t.state with Recovering -> t.state <- Active | _ -> ());
  if Obs.tracing () then begin
    Metrics.bump (Printf.sprintf "dev/%s/recovered" t.name);
    Obs.emit_dev_recover ~device:t.device ~fault:(Fault.code f) ()
  end

let on_setup t = (match t.state with Failed -> () | _ -> t.state <- Ready)

let on_op t =
  match t.state with
  | Ready | Active -> t.state <- Active
  | Reset | Recovering | Failed | Undefined -> ()

let force_undefined t ~why:_ = t.state <- Undefined

let note_submit t n = t.submitted <- t.submitted + n
let note_deliver t n = t.delivered <- t.delivered + n
let note_harvest t n = t.harvested <- t.harvested + n
let note_dup t = t.dup_delivered <- t.dup_delivered + 1

let note_escape t ~blocked =
  t.escape_attempts <- t.escape_attempts + 1;
  if blocked then t.escape_blocked <- t.escape_blocked + 1

let pending_irqs t = t.irq_raised - t.irq_acked

let raise_irq t =
  if not t.irq_masked then begin
    t.irq_raised <- t.irq_raised + 1;
    (* storm protection: a real driver masks the vector and falls back
       to polling once the burst exceeds any plausible completion
       count; the plant disables this to prove the lint is live *)
    if t.auto_mask && pending_irqs t >= storm_threshold then t.irq_masked <- true
  end

let ack_irqs t =
  t.irq_acked <- t.irq_raised;
  t.irq_masked <- false

let set_auto_mask t v = t.auto_mask <- v

let inject t ~site candidates =
  match t.hostile with
  | None -> None
  | Some h ->
    (match Hostile.pick h ~site candidates with
     | None -> None
     | Some f ->
       note_fault t f;
       (match f with
        | Fault.Spurious_irq ->
          raise_irq t;
          recovered t f;
          None
        | Fault.Irq_storm ->
          (* auto-mask bounds the storm; the vector unmasks at the next poll *)
          for _ = 0 to storm_threshold + 7 do
            raise_irq t
          done;
          recovered t f;
          None
        | _ -> Some f))

let error_cap = 32

let note_error t e =
  t.error_count <- t.error_count + 1;
  if List.length t.error_log < error_cap then t.error_log <- e :: t.error_log

let errors t = List.rev t.error_log
