(* The span layer: typed begin/end intervals with parent links, causal
   edges, and per-owner cycle accounting, built on top of the flat
   tracepoint stream.

   Spans nest per CPU: [begin_] pushes a frame onto the current CPU's
   stack (parent = previous top) and emits a [Span_begin] event;
   [end_] pops it, emits [Span_end], and charges the span's *self*
   cycles (duration minus the summed duration of its direct children)
   to the owning container / process / thread as `cycles/...` counter
   families.  Root spans additionally feed `cycles/total`, so the sum
   of all per-container counters equals `cycles/total` by construction
   — self times partition each tree's root duration exactly.

   Timestamps: whoever owns the timeline (the SMP simulator, a
   workload harness) passes explicit [~ts] so span durations match the
   cycle model; spans opened inside the kernel (rendezvous, TLB fills)
   default to [Sink.now ()] and are zero-duration structural children.

   Everything here is host-only bookkeeping: with the sink [Disabled],
   [begin_] returns 0 after one flag load and every other entry point
   is a no-op, preserving the bit-identical zero-overhead invariant. *)

type kind =
  | Request
  | Ipc_rendezvous
  | Ctx_switch
  | Mmu_fill
  | Drv_submit
  | Drv_complete
  | Irq
  | User
  | Lock_wait
  | App of int
  | Syscall of int

let code = function
  | Request -> 1
  | Ipc_rendezvous -> 2
  | Ctx_switch -> 3
  | Mmu_fill -> 4
  | Drv_submit -> 5
  | Drv_complete -> 6
  | Irq -> 7
  | User -> 8
  | Lock_wait -> 9
  | App c -> if c >= 16 && c < 64 then c else 16
  | Syscall n -> 64 + (n land 0xff)

(* Application kinds: codes 16-63, registered by name.  The raw event
   decoder prints "app<n>"; [label_of_code] resolves registered names
   for human-facing output (profiler, exporters). *)
let app_names : (int, string) Hashtbl.t = Hashtbl.create 8
let next_app = ref 16

(* Cached cycles/kind counter handles, indexed by span code; codes in
   the app range are invalidated when [register_app] renames them. *)
let kind_ctrs : Metrics.Counter.t option array = Array.make 512 None

let register_app name =
  let found =
    Hashtbl.fold (fun c n acc -> if n = name then Some c else acc) app_names None
  in
  match found with
  | Some c -> App c
  | None ->
    let c = if !next_app < 64 then !next_app else 63 in
    if !next_app < 64 then incr next_app;
    Hashtbl.replace app_names c name;
    kind_ctrs.(c) <- None;
    App c

let label_of_code c =
  match Hashtbl.find_opt app_names c with
  | Some n -> n
  | None -> Event.span_kind_name c

let label k = label_of_code (code k)

(* ------------------------------------------------------------------ *)
(* Per-CPU open-span stacks                                            *)

(* Frames are mutable and pooled: each CPU's stack is an array of frame
   records reused from one span to the next, so opening and closing a
   span writes fields in place instead of allocating a frame and a
   cons cell.  Only [frames.(0 .. depth-1)] are open. *)
type frame = {
  mutable id : int;
  mutable fcode : int;
  mutable container : int;
  mutable fproc : int;
  mutable fthread : int;
  mutable t0 : int;
  mutable child : int;  (* summed duration of completed direct children *)
}

type stack = { mutable frames : frame array; mutable depth : int }

let fresh_frame () =
  { id = 0; fcode = 0; container = -1; fproc = -1; fthread = -1; t0 = 0; child = 0 }

let new_stack () = { frames = [||]; depth = 0 }

(* Int-keyed tables probed with [find] (a miss is [Not_found]), so a
   hit allocates no option. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let next_id = ref 1

(* CPUs [0, max_cpus) index a flat array; any other hint (tests set
   arbitrary ones) falls back to a table. *)
let max_cpus = 64
let stacks = Array.init max_cpus (fun _ -> new_stack ())
let other_stacks : stack Itbl.t = Itbl.create 4
let leaks : (int * int * int) list ref = ref []  (* cpu, code, id *)

let stack_for cpu =
  if cpu >= 0 && cpu < max_cpus then Array.unsafe_get stacks cpu
  else
    match Itbl.find other_stacks cpu with
    | st -> st
    | exception Not_found ->
      let st = new_stack () in
      Itbl.replace other_stacks cpu st;
      st

let push st ~id ~fcode ~container ~fproc ~fthread ~t0 =
  let n = Array.length st.frames in
  if st.depth = n then begin
    let bigger = Array.make (max 8 (2 * n)) (fresh_frame ()) in
    Array.blit st.frames 0 bigger 0 n;
    for i = n to Array.length bigger - 1 do
      bigger.(i) <- fresh_frame ()
    done;
    st.frames <- bigger
  end;
  let f = st.frames.(st.depth) in
  f.id <- id;
  f.fcode <- fcode;
  f.container <- container;
  f.fproc <- fproc;
  f.fthread <- fthread;
  f.t0 <- t0;
  f.child <- 0;
  st.depth <- st.depth + 1

let iter_stacks f =
  Array.iteri f stacks;
  Itbl.iter f other_stacks

(* Causal-edge side tables: who to connect a later event back to. *)
let blocked : int Itbl.t = Itbl.create 32  (* thread -> span *)
let irq_pending : int Itbl.t = Itbl.create 8  (* device -> span *)
let submits : int Itbl.t = Itbl.create 32  (* submit_key device tag -> span *)

(* ------------------------------------------------------------------ *)
(* Monitor feed                                                        *)

(* The online SLO monitor rides on the span close path through three
   cached hooks, each costing one load (plus one compare for the tick)
   per close when nothing is armed:

   - every closing [Request] root observes its duration into one
     cached `lat/request` histogram handle;
   - roots slower than [slow_threshold] land in a bounded ledger the
     exemplar capturer reads post-hoc (ids + durations only — the span
     trail itself stays in the flight ring);
   - when the close timestamp crosses [tick_at], [tick_fn] fires so
     the monitor can close a rollup window.  The monitor re-arms
     [tick_at] itself, so the quiescent cost is an int compare.

   Heartbeats: every span close and packed pair bumps a cached per-CPU
   `sched/heartbeat/<cpu>` counter — context switches, syscalls, IPC
   and driver work all beat, so a CPU whose heartbeat delta is zero
   across windows while others advance has stopped scheduling (the
   watchdog's cpu-silent rule). *)

let request_code = code Request
let request_hist = lazy (Metrics.histogram "lat/request")
let slow_threshold = ref max_int
let slow_cap = 64
let slow_acc : (int * int * int) list ref = ref []  (* id, dur, t_end; newest first *)
let slow_n = ref 0
let tick_at = ref max_int
let tick_fn : (int -> unit) ref = ref (fun _ -> ())

let set_slow_threshold v = slow_threshold := v
let slow_roots () = List.rev !slow_acc

let clear_slow () =
  slow_acc := [];
  slow_n := 0

let set_tick ~at f =
  tick_fn := f;
  tick_at := at

let set_tick_at at = tick_at := at

let clear_tick () =
  tick_at := max_int;
  tick_fn := (fun _ -> ())

let hb_ctrs : Metrics.Counter.t option array = Array.make 64 None

let heartbeat cpu =
  if cpu >= 0 && cpu < 64 then
    match hb_ctrs.(cpu) with
    | Some c -> Metrics.Counter.incr c
    | None ->
      let c = Metrics.counter ("sched/heartbeat/" ^ string_of_int cpu) in
      hb_ctrs.(cpu) <- Some c;
      Metrics.Counter.incr c

let reset () =
  next_id := 1;
  iter_stacks (fun _ st -> st.depth <- 0);
  Itbl.reset other_stacks;
  leaks := [];
  clear_slow ();
  Itbl.reset blocked;
  Itbl.reset irq_pending;
  Itbl.reset submits

let with_recorder ~cpus ~slots f =
  reset ();
  let recorder = Flight.create ~cpus ~slots ~slot_size:Event.slot_bytes in
  Sink.install (Sink.Flight recorder);
  Fun.protect
    ~finally:(fun () ->
      Sink.install Sink.Disabled;
      Sink.set_clock (fun () -> 0);
      Sink.set_cpu 0;
      reset ())
    (fun () -> f recorder)

(* ------------------------------------------------------------------ *)
(* Begin / end                                                         *)

let total_name = "cycles/total"
let total_ctr = lazy (Metrics.counter total_name)

(* Every span close charges up to three owner families and one kind
   counter; resolved through cached handles because a registry probe
   (string concat + string hash) per close would dominate the
   zero-alloc emit path next to it.  Keys pack [owner * 4 + family];
   [Metrics.reset] zeroes counters in place, so handles stay valid. *)
let family_names = [| "cycles/container/"; "cycles/process/"; "cycles/thread/" |]
let owner_ctrs : Metrics.Counter.t Itbl.t = Itbl.create 64

let charge family owner by =
  if owner >= 0 && by > 0 then begin
    let key = (owner * 4) + family in
    let c =
      match Itbl.find owner_ctrs key with
      | c -> c
      | exception Not_found ->
        let c = Metrics.counter (family_names.(family) ^ string_of_int owner) in
        Itbl.replace owner_ctrs key c;
        c
    in
    Metrics.Counter.add c by
  end

let kind_ctr fcode =
  match kind_ctrs.(fcode) with
  | Some c -> c
  | None ->
    let c = Metrics.counter ("cycles/kind/" ^ label_of_code fcode) in
    kind_ctrs.(fcode) <- Some c;
    c

(* The whole span layer is governed by the span_begin tag: one
   [Sink.admit] decision per span, made here, keeps begins and ends
   balanced — a masked or sampled-out span returns id 0, so [end_]
   (keyed off [id > 0]) skips it whole.  The [Sink.emit_span_*]
   writers below are post-admission and never drop half a span. *)
let begin_ ?ts ?(container = -1) ?(proc = -1) ?(thread = -1) kind =
  if not (Sink.admit Event.tag_span_begin) then 0
  else begin
    let cpu = Sink.current_cpu () in
    let st = stack_for cpu in
    let id = !next_id in
    incr next_id;
    let c = code kind in
    let t0 = match ts with Some t -> t | None -> Sink.now () in
    (* Owner inherits down the stack unless overridden. *)
    if st.depth = 0 then begin
      push st ~id ~fcode:c ~container ~fproc:proc ~fthread:thread ~t0;
      Sink.emit_span_begin ?ts ~span:id ~parent:0 ~kind:c ~owner:container ()
    end
    else begin
      let p = st.frames.(st.depth - 1) in
      let container = if container >= 0 then container else p.container in
      push st ~id ~fcode:c ~container
        ~fproc:(if proc >= 0 then proc else p.fproc)
        ~fthread:(if thread >= 0 then thread else p.fthread)
        ~t0;
      Sink.emit_span_begin ?ts ~span:id ~parent:p.id ~kind:c ~owner:container ()
    end;
    id
  end

(* A batched zero-duration span: begin and end at the same timestamp,
   packed into one [Span_pair] record (half the ring cost of the
   begin/end pair it replaces; [Sink.records] re-expands it).  For the
   driver submit/complete markers and context switches whose frames
   never enclose other work — zero duration means zero self cycles, so
   skipping the stack push/pop changes no accounting.  Returns the
   span id for causal linking, 0 when not admitted. *)
let pair ?ts ?(container = -1) kind =
  if not (Sink.admit Event.tag_span_begin) then 0
  else begin
    let cpu = Sink.current_cpu () in
    let st = stack_for cpu in
    let id = !next_id in
    incr next_id;
    heartbeat cpu;
    if st.depth = 0 then
      Sink.emit_span_pair ?ts ~span:id ~parent:0 ~kind:(code kind) ~owner:container ()
    else begin
      let p = st.frames.(st.depth - 1) in
      Sink.emit_span_pair ?ts ~span:id ~parent:p.id ~kind:(code kind)
        ~owner:(if container >= 0 then container else p.container)
        ()
    end;
    id
  end

(* Pop the top frame [f] of [st].  Its fields are read before anything
   else runs: the slot is free again once [depth] drops. *)
let close_frame ?ts ~cpu st f =
  st.depth <- st.depth - 1;
  let id = f.id and fcode = f.fcode and container = f.container in
  let t1 = match ts with Some t -> t | None -> Sink.now () in
  let dur = max 0 (t1 - f.t0) in
  let self = max 0 (dur - f.child) in
  if st.depth > 0 then begin
    let p = st.frames.(st.depth - 1) in
    p.child <- p.child + dur
  end
  else begin
    Metrics.Counter.add (Lazy.force total_ctr) dur;
    if fcode = request_code then begin
      Metrics.Histogram.observe (Lazy.force request_hist) dur;
      if dur > !slow_threshold && !slow_n < slow_cap then begin
        incr slow_n;
        slow_acc := (id, dur, t1) :: !slow_acc
      end
    end
  end;
  charge 0 container self;
  charge 1 f.fproc self;
  charge 2 f.fthread self;
  if self > 0 then Metrics.Counter.add (kind_ctr fcode) self;
  heartbeat cpu;
  Sink.emit_span_end ?ts ~span:id ~kind:fcode ~owner:container ();
  if t1 >= !tick_at then !tick_fn t1

let open_below st id =
  let rec go i = i >= 0 && (st.frames.(i).id = id || go (i - 1)) in
  go (st.depth - 2)

let rec end_ ?ts id =
  if Sink.tracing () && id > 0 then begin
    let cpu = Sink.current_cpu () in
    let st = stack_for cpu in
    if st.depth = 0 then Metrics.bump "span/stray_end"
    else begin
      let f = st.frames.(st.depth - 1) in
      if f.id = id then close_frame ?ts ~cpu st f
      else if open_below st id then begin
        (* Children left open above the span being ended: a balance
           violation.  Record them for the sanitizer lint and unwind. *)
        leaks := (cpu, f.fcode, f.id) :: !leaks;
        Metrics.bump "span/leaked";
        st.depth <- st.depth - 1;
        end_ ?ts id
      end
      else Metrics.bump "span/stray_end"
    end
  end

let current () =
  if not (Sink.tracing ()) then 0
  else
    let st = stack_for (Sink.current_cpu ()) in
    if st.depth = 0 then 0 else st.frames.(st.depth - 1).id

(* ------------------------------------------------------------------ *)
(* Causal edges                                                        *)

type edge_kind = Ipc | Irq_delivery | Drv | Wakeup

let edge_code = function Ipc -> 1 | Irq_delivery -> 2 | Drv -> 3 | Wakeup -> 4

let edge kind ~src ~dst =
  if src > 0 && dst > 0 then Sink.emit_causal ~edge:(edge_code kind) ~src ~dst ()

let take tbl key =
  match Itbl.find tbl key with
  | s ->
    Itbl.remove tbl key;
    s
  | exception Not_found -> 0

let note_blocked ~thread ~span = if span > 0 then Itbl.replace blocked thread span
let take_blocked ~thread = take blocked thread
let note_irq_pending ~device ~span = if span > 0 then Itbl.replace irq_pending device span
let take_irq_pending ~device = take irq_pending device

(* One packed int per (device, tag): device ids are small and queue
   tags count up from 0, so [tag] fits below bit 32. *)
let submit_key ~device ~tag = (device lsl 32) lxor tag

let note_submit ~device ~tag ~span =
  if span > 0 then Itbl.replace submits (submit_key ~device ~tag) span

let take_submit ~device ~tag = take submits (submit_key ~device ~tag)

(* ------------------------------------------------------------------ *)
(* Introspection (the sanitizer's span-balance lint)                   *)

let open_spans () =
  let acc = ref [] in
  iter_stacks (fun cpu st ->
      for i = 0 to st.depth - 1 do
        let f = st.frames.(i) in
        acc := (cpu, f.fcode, f.id) :: !acc
      done);
  List.sort compare !acc

let leaked () = List.sort compare !leaks
let clear_leaked () = leaks := []
