open Atmo_util
module A = Atmo_spec.Abstract_state
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table
module Proc_mgr = Atmo_pm.Proc_mgr
module Perm_map = Atmo_pm.Perm_map
module Container = Atmo_pm.Container
module Process = Atmo_pm.Process
module Thread = Atmo_pm.Thread
module Endpoint = Atmo_pm.Endpoint
module Sched_queue = Atmo_pm.Sched_queue
module Static_list = Atmo_pm.Static_list

let abstract_container (c : Container.t) : A.acontainer =
  {
    A.ac_parent = c.Container.parent;
    ac_children = Static_list.to_list c.Container.children;
    ac_procs = Static_list.to_list c.Container.procs;
    ac_quota = c.Container.quota;
    ac_used = c.Container.used;
    ac_delegated = c.Container.delegated;
    ac_cpus = c.Container.cpus;
    ac_depth = c.Container.depth;
    ac_path = c.Container.path;
    ac_subtree = c.Container.subtree;
  }

let abstract_proc (p : Process.t) : A.aproc =
  {
    A.ap_owner_container = p.Process.owner_container;
    ap_parent = p.Process.parent;
    ap_children = Static_list.to_list p.Process.children;
    ap_threads = Static_list.to_list p.Process.threads;
    ap_space = Page_table.address_space p.Process.pt;
    ap_pt_pages = Page_table.page_closure p.Process.pt;
  }

let abstract_thread (th : Thread.t) : A.athread =
  {
    A.at_owner_proc = th.Thread.owner_proc;
    at_state = th.Thread.state;
    at_slots = Thread.slots th;
    at_msg = th.Thread.msg_buf;
  }

let abstract_endpoint (e : Endpoint.t) : A.aendpoint =
  {
    A.ae_owner_container = e.Endpoint.owner_container;
    ae_send_queue = Static_list.to_list e.Endpoint.send_queue;
    ae_recv_queue = Static_list.to_list e.Endpoint.recv_queue;
    ae_refcount = e.Endpoint.refcount;
  }

let abstract_device (d : Kernel.device_info) : A.adevice =
  {
    A.ad_owner_proc = d.Kernel.owner_proc;
    ad_io_space = Page_table.address_space d.Kernel.io_pt;
    ad_pt_pages = Page_table.page_closure d.Kernel.io_pt;
    ad_irq_endpoint = d.Kernel.irq_endpoint;
    ad_irq_pending = d.Kernel.irq_pending;
  }

(* The input the last α was built from.  Each map is the persistent
   value α read, so an unchanged one is the same value. *)
type memo = {
  kernel : Kernel.t;
  cntrs : Container.t Imap.t;
  procs : Process.t Imap.t;
  thrds : Thread.t Imap.t;
  edpts : Endpoint.t Imap.t;
  tables : Page_table.ghost array;  (* every process's table, then every device's *)
  queues : Sched_queue.t array;
  versions : int array;  (* each queue's write version *)
  views : Page_alloc.views;
  devices : Kernel.device_info Imap.t;
  alpha : A.t;
}

(* Published with one write, so an α racing on another domain reads
   either memo whole. *)
let last : memo option Atomic.t = Atomic.make None

let tables (k : Kernel.t) procs =
  Array.of_list
    (Imap.fold (fun _ (p : Process.t) acc -> Page_table.ghost p.Process.pt :: acc) procs []
    @ Imap.fold
        (fun _ (d : Kernel.device_info) acc -> Page_table.ghost d.Kernel.io_pt :: acc)
        k.Kernel.devices [])

(* Top-level loops: a local one would allocate its closure per call. *)
let rec tables_unchanged tables i =
  i = Array.length tables
  || (Page_table.ghost_unchanged tables.(i) && tables_unchanged tables (i + 1))

let queues_unchanged (pm : Proc_mgr.t) m =
  pm.Proc_mgr.queues == m.queues && Sched_queue.at_versions m.queues m.versions

let unchanged (k : Kernel.t) m =
  let pm = k.Kernel.pm in
  m.kernel == k
  && Perm_map.map pm.Proc_mgr.cntr_perms == m.cntrs
  && Perm_map.map pm.Proc_mgr.proc_perms == m.procs
  && Perm_map.map pm.Proc_mgr.thrd_perms == m.thrds
  && Perm_map.map pm.Proc_mgr.edpt_perms == m.edpts
  && k.Kernel.devices == m.devices
  && tables_unchanged m.tables 0
  && queues_unchanged pm m
  && (match (Proc_mgr.current pm, m.alpha.A.current) with
      | Some a, Some b -> a = b
      | None, None -> true
      | Some _, None | None, Some _ -> false)
  && Page_alloc.views k.Kernel.alloc == m.views

(* [f] over [src], from [f] over [old_src] ([old]): only the entries
   written in between are rebuilt, the rest are [old]'s own. *)
let update f old_src src old =
  Imap.fold_diff
    (fun ptr _ v acc -> match v with Some v -> Imap.add ptr (f v) acc | None -> Imap.remove ptr acc)
    old_src src old

(* A process or device entry is rebuilt when its record was written or
   its table's ghost state moved. *)
let update_spaces f pt_of space_of pages_of old_src src old =
  Imap.fold
    (fun ptr v acc ->
      let a = Imap.find ptr acc and pt = pt_of v in
      if space_of a == Page_table.address_space pt && pages_of a == Page_table.page_closure pt
      then acc
      else Imap.add ptr (f v) acc)
    src (update f old_src src old)

(* α by its definition, every entry built. *)
let rebuild (k : Kernel.t) : A.t =
  let pm = k.Kernel.pm in
  let mem = Page_alloc.views k.Kernel.alloc in
  let of_perm_map f m = Perm_map.fold (fun ptr v acc -> Imap.add ptr (f v) acc) m Imap.empty in
  {
    A.containers = of_perm_map abstract_container pm.Proc_mgr.cntr_perms;
    procs = of_perm_map abstract_proc pm.Proc_mgr.proc_perms;
    threads = of_perm_map abstract_thread pm.Proc_mgr.thrd_perms;
    endpoints = of_perm_map abstract_endpoint pm.Proc_mgr.edpt_perms;
    root = pm.Proc_mgr.root_container;
    run_queue = Proc_mgr.run_queue_list pm;
    current = Proc_mgr.current pm;
    free_4k = mem.Page_alloc.free_4k;
    free_2m = mem.Page_alloc.free_2m;
    free_1g = mem.Page_alloc.free_1g;
    allocated = mem.Page_alloc.allocated;
    mapped = mem.Page_alloc.mapped;
    merged = mem.Page_alloc.merged;
    devices = Imap.map abstract_device k.Kernel.devices;
  }

(* α after a step, from [m]'s: only the entries written since, or whose
   table's ghost state moved, are built. *)
let update_alpha (k : Kernel.t) m =
  let pm = k.Kernel.pm in
  let views = Page_alloc.views k.Kernel.alloc and a = m.alpha in
  {
    A.containers = update abstract_container m.cntrs (Perm_map.map pm.Proc_mgr.cntr_perms) a.A.containers;
    procs =
      update_spaces abstract_proc
        (fun (p : Process.t) -> p.Process.pt)
        (fun (p : A.aproc) -> p.A.ap_space)
        (fun p -> p.A.ap_pt_pages)
        m.procs (Perm_map.map pm.Proc_mgr.proc_perms) a.A.procs;
    threads = update abstract_thread m.thrds (Perm_map.map pm.Proc_mgr.thrd_perms) a.A.threads;
    endpoints = update abstract_endpoint m.edpts (Perm_map.map pm.Proc_mgr.edpt_perms) a.A.endpoints;
    root = pm.Proc_mgr.root_container;
    run_queue = (if queues_unchanged pm m then a.A.run_queue else Proc_mgr.run_queue_list pm);
    current = Proc_mgr.current pm;
    free_4k = views.Page_alloc.free_4k;
    free_2m = views.Page_alloc.free_2m;
    free_1g = views.Page_alloc.free_1g;
    allocated = views.Page_alloc.allocated;
    mapped = views.Page_alloc.mapped;
    merged = views.Page_alloc.merged;
    devices =
      update_spaces abstract_device
        (fun (d : Kernel.device_info) -> d.Kernel.io_pt)
        (fun (d : A.adevice) -> d.A.ad_io_space)
        (fun d -> d.A.ad_pt_pages)
        m.devices k.Kernel.devices a.A.devices;
  }

(* The memo of [alpha], read off [k] now. *)
let memo_of (k : Kernel.t) alpha =
  let pm = k.Kernel.pm in
  let procs = Perm_map.map pm.Proc_mgr.proc_perms and queues = pm.Proc_mgr.queues in
  {
    kernel = k;
    cntrs = Perm_map.map pm.Proc_mgr.cntr_perms;
    procs;
    thrds = Perm_map.map pm.Proc_mgr.thrd_perms;
    edpts = Perm_map.map pm.Proc_mgr.edpt_perms;
    tables = tables k procs;
    queues;
    versions = Sched_queue.versions queues;
    views = Page_alloc.views k.Kernel.alloc;
    devices = k.Kernel.devices;
    alpha;
  }

(* While set, [abstract] builds α by its definition and keeps nothing:
   the cache-free evaluation tests compare with. *)
let full_only = Atomic.make false

let abstract (k : Kernel.t) : A.t =
  if Atomic.get full_only then rebuild k
  else
  match Atomic.get last with
  | Some m when unchanged k m -> m.alpha
  | m ->
    let alpha =
      match m with Some m when m.kernel == k -> update_alpha k m | Some _ | None -> rebuild k
    in
    Atomic.set last (Some (memo_of k alpha));
    alpha

module Backdoor = struct
  let cache_free f =
    Atomic.set full_only true;
    Fun.protect ~finally:(fun () -> Atomic.set full_only false) f
end
