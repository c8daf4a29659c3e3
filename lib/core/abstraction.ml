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

let of_perm_map f m = Perm_map.fold (fun ptr v acc -> Imap.add ptr (f v) acc) m Imap.empty

let abstract (k : Kernel.t) : A.t =
  let pm = k.Kernel.pm in
  let mem = Page_alloc.views k.Kernel.alloc in
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
    devices =
      Imap.map
        (fun (d : Kernel.device_info) ->
          {
            A.ad_owner_proc = d.Kernel.owner_proc;
            ad_io_space = Page_table.address_space d.Kernel.io_pt;
            ad_pt_pages = Page_table.page_closure d.Kernel.io_pt;
            ad_irq_endpoint = d.Kernel.irq_endpoint;
            ad_irq_pending = d.Kernel.irq_pending;
          })
        k.Kernel.devices;
  }
