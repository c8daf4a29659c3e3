open Atmo_util
module Page_table = Atmo_pt.Page_table
module Thread = Atmo_pm.Thread
module Message = Atmo_pm.Message

type athread = {
  at_owner_proc : int;
  at_state : Thread.sched_state;
  at_slots : (int * int) list;
  at_msg : Message.t option;
}

type aproc = {
  ap_owner_container : int;
  ap_parent : int option;
  ap_children : int list;
  ap_threads : int list;
  ap_space : Page_table.entry Imap.t;
  ap_pt_pages : Iset.t;
}

type acontainer = {
  ac_parent : int option;
  ac_children : int list;
  ac_procs : int list;
  ac_quota : int;
  ac_used : int;
  ac_delegated : int;
  ac_cpus : Iset.t;
  ac_depth : int;
  ac_path : int list;
  ac_subtree : Iset.t;
}

type aendpoint = {
  ae_owner_container : int;
  ae_send_queue : int list;
  ae_recv_queue : int list;
  ae_refcount : int;
}

type adevice = {
  ad_owner_proc : int;
  ad_io_space : Page_table.entry Imap.t;
  ad_pt_pages : Iset.t;
  ad_irq_endpoint : int option;
  ad_irq_pending : int;
}

type t = {
  containers : acontainer Imap.t;
  procs : aproc Imap.t;
  threads : athread Imap.t;
  endpoints : aendpoint Imap.t;
  root : int;
  run_queue : int list;
  current : int option;
  free_4k : Frame_set.t;
  free_2m : Frame_set.t;
  free_1g : Frame_set.t;
  allocated : Iset.t;
  mapped : Iset.t;
  merged : Frame_set.t;
  devices : adevice Imap.t;
}

let equal_msg (a : Message.t option) b =
  match (a, b) with
  | None, None -> true
  | Some m, Some m' ->
    m.Message.scalars = m'.Message.scalars
    && m.Message.page = m'.Message.page
    && m.Message.endpoint = m'.Message.endpoint
  | None, Some _ | Some _, None -> false

let equal_athread a b =
  a.at_owner_proc = b.at_owner_proc
  && Thread.equal_sched_state a.at_state b.at_state
  && a.at_slots = b.at_slots
  && equal_msg a.at_msg b.at_msg

let equal_aproc a b =
  a.ap_owner_container = b.ap_owner_container
  && a.ap_parent = b.ap_parent
  && a.ap_children = b.ap_children
  && a.ap_threads = b.ap_threads
  && Imap.equal Page_table.equal_entry a.ap_space b.ap_space
  && Iset.equal a.ap_pt_pages b.ap_pt_pages

let equal_acontainer a b =
  a.ac_parent = b.ac_parent
  && a.ac_children = b.ac_children
  && a.ac_procs = b.ac_procs
  && a.ac_quota = b.ac_quota
  && a.ac_used = b.ac_used
  && a.ac_delegated = b.ac_delegated
  && Iset.equal a.ac_cpus b.ac_cpus
  && a.ac_depth = b.ac_depth
  && a.ac_path = b.ac_path
  && Iset.equal a.ac_subtree b.ac_subtree

let equal_aendpoint a b =
  a.ae_owner_container = b.ae_owner_container
  && a.ae_send_queue = b.ae_send_queue
  && a.ae_recv_queue = b.ae_recv_queue
  && a.ae_refcount = b.ae_refcount

let equal_adevice a b =
  a.ad_owner_proc = b.ad_owner_proc
  && Imap.equal Page_table.equal_entry a.ad_io_space b.ad_io_space
  && Iset.equal a.ad_pt_pages b.ad_pt_pages
  && a.ad_irq_endpoint = b.ad_irq_endpoint
  && a.ad_irq_pending = b.ad_irq_pending

(* Pre- and post-α share every set and entry the step left alone, so
   each comparison tries physical equality first ([Imap.equal],
   [Iset.equal] and [Frame_set.equal] do too). *)
let memory_unchanged a b =
  Frame_set.equal a.free_4k b.free_4k
  && Frame_set.equal a.free_2m b.free_2m
  && Frame_set.equal a.free_1g b.free_1g
  && Iset.equal a.allocated b.allocated
  && Iset.equal a.mapped b.mapped
  && Frame_set.equal a.merged b.merged

let equal a b =
  a == b
  || Imap.equal equal_acontainer a.containers b.containers
     && Imap.equal equal_aproc a.procs b.procs
     && Imap.equal equal_athread a.threads b.threads
     && Imap.equal equal_aendpoint a.endpoints b.endpoints
     && a.root = b.root
     && (a.run_queue == b.run_queue || a.run_queue = b.run_queue)
     && a.current = b.current
     && memory_unchanged a b
     && Imap.equal equal_adevice a.devices b.devices

let get_address_space t ~proc =
  match Imap.find_opt proc t.procs with
  | None -> Imap.empty
  | Some p -> p.ap_space

let proc_of_thread t ~thread =
  Option.map (fun th -> th.at_owner_proc) (Imap.find_opt thread t.threads)

let container_of_thread t ~thread =
  match proc_of_thread t ~thread with
  | None -> None
  | Some p ->
    Option.map (fun pr -> pr.ap_owner_container) (Imap.find_opt p t.procs)

(* A frame inside a free superpage is free although only the block's
   head is a member of [free_2m]/[free_1g]: test the aligned heads. *)
let page_is_free t page =
  let head size = page land lnot (size - 1) in
  Frame_set.mem t.free_4k page
  || Frame_set.mem t.free_2m (head Atmo_hw.Phys_mem.page_size_2m)
  || Frame_set.mem t.free_1g (head Atmo_hw.Phys_mem.page_size_1g)

let unchanged_except eq m m' touched = Imap.same_on_complement ~eq m m' touched

let threads_unchanged_except a b s = unchanged_except equal_athread a.threads b.threads s
let procs_unchanged_except a b s = unchanged_except equal_aproc a.procs b.procs s

let containers_unchanged_except a b s =
  unchanged_except equal_acontainer a.containers b.containers s

let endpoints_unchanged_except a b s =
  unchanged_except equal_aendpoint a.endpoints b.endpoints s

let space_unchanged_except a b ~proc touched =
  match (Imap.find_opt proc a.procs, Imap.find_opt proc b.procs) with
  | Some pa, Some pb ->
    Imap.same_on_complement ~eq:Page_table.equal_entry pa.ap_space pb.ap_space touched
  | None, None -> true
  | Some _, None | None, Some _ -> false

let devices_unchanged_except a b s =
  unchanged_except equal_adevice a.devices b.devices s

let pp ppf t =
  Format.fprintf ppf
    "@[<v>Ψ{containers=%d; procs=%d; threads=%d; endpoints=%d;@ free4k=%d free2m=%d free1g=%d allocated=%d mapped=%d merged=%d;@ runq=%d; current=%s}@]"
    (Imap.cardinal t.containers) (Imap.cardinal t.procs) (Imap.cardinal t.threads)
    (Imap.cardinal t.endpoints) (Frame_set.cardinal t.free_4k) (Frame_set.cardinal t.free_2m)
    (Frame_set.cardinal t.free_1g) (Iset.cardinal t.allocated) (Iset.cardinal t.mapped)
    (Frame_set.cardinal t.merged) (List.length t.run_queue)
    (match t.current with None -> "-" | Some c -> Printf.sprintf "0x%x" c)
