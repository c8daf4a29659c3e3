open Atmo_util
module Page_alloc = Atmo_pmem.Page_alloc
module Page_state = Atmo_pmem.Page_state
module Page_table = Atmo_pt.Page_table
module Pt_refine = Atmo_pt.Pt_refine
module Proc_mgr = Atmo_pm.Proc_mgr
module Perm_map = Atmo_pm.Perm_map
module Process = Atmo_pm.Process
module Pm_invariants = Atmo_pm.Pm_invariants
module Iommu = Atmo_hw.Iommu
module Phys_mem = Atmo_hw.Phys_mem

let err fmt = Format.kasprintf (fun s -> Error s) fmt
let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let allocator_wf (k : Kernel.t) = Page_alloc.wf k.Kernel.alloc
let pm_wf (k : Kernel.t) = Pm_invariants.all k.Kernel.pm

let page_tables_wf (k : Kernel.t) =
  Perm_map.fold
    (fun ptr (p : Process.t) acc ->
      let* () = acc in
      match Pt_refine.all p.Process.pt with
      | Ok () -> Ok ()
      | Error msg -> err "page table of process 0x%x: %s" ptr msg)
    k.Kernel.pm.Proc_mgr.proc_perms (Ok ())

(* The page closures whose pairwise disjointness constitutes type
   safety: one singleton per kernel object page, one closure per page
   table. *)
let closures (k : Kernel.t) =
  let pm = k.Kernel.pm in
  let singles dom = Iset.fold (fun p acc -> Iset.singleton p :: acc) dom [] in
  let pt_closures =
    Perm_map.fold
      (fun _ (p : Process.t) acc -> Page_table.page_closure p.Process.pt :: acc)
      pm.Proc_mgr.proc_perms []
  in
  let io_closures =
    Imap.fold
      (fun _ (d : Kernel.device_info) acc ->
        Page_table.page_closure d.Kernel.io_pt :: acc)
      k.Kernel.devices []
  in
  singles (Perm_map.dom pm.Proc_mgr.cntr_perms)
  @ singles (Perm_map.dom pm.Proc_mgr.proc_perms)
  @ singles (Perm_map.dom pm.Proc_mgr.thrd_perms)
  @ singles (Perm_map.dom pm.Proc_mgr.edpt_perms)
  @ pt_closures @ io_closures

let closures_disjoint (k : Kernel.t) =
  if Iset.pairwise_disjoint (closures k) then Ok ()
  else err "two kernel objects share a page"

let leak_freedom (k : Kernel.t) =
  let owned = Iset.union_list (closures k) in
  let allocated = Page_alloc.allocated_pages k.Kernel.alloc in
  if Iset.equal owned allocated then Ok ()
  else
    let leaked = Iset.diff allocated owned in
    let phantom = Iset.diff owned allocated in
    (match (Iset.choose_opt leaked, Iset.choose_opt phantom) with
     | Some p, _ -> err "leak: page 0x%x allocated but owned by nothing" p
     | None, Some p -> err "phantom: page 0x%x owned but not allocated" p
     | None, None -> Ok ())

let mapped_consistent (k : Kernel.t) =
  let pm = k.Kernel.pm in
  (* the managed frames' byte range [lo, hi), at the top of memory *)
  let page = Phys_mem.page_size in
  let hi = Phys_mem.page_count (Page_alloc.mem k.Kernel.alloc) * page in
  let lo = hi - (Page_alloc.managed_frames k.Kernel.alloc * page) in
  (* count (space, va) references per frame across all process address
     spaces and all device DMA windows, noting the first entry whose
     block leaves [lo, hi) *)
  let refs = Hashtbl.create 64 in
  let outside = ref None in
  let count who space =
    Imap.iter
      (fun va (e : Page_table.entry) ->
        let frame = e.Page_table.frame in
        if
          (frame < lo || frame + Page_state.bytes_per e.Page_table.size > hi)
          && Option.is_none !outside
        then outside := Some (who, va, e);
        Hashtbl.replace refs frame
          (1 + Option.value ~default:0 (Hashtbl.find_opt refs frame)))
      space
  in
  Perm_map.iter
    (fun ptr (p : Process.t) ->
      count (`Process ptr) (Page_table.address_space p.Process.pt))
    pm.Proc_mgr.proc_perms;
  Imap.iter
    (fun device (d : Kernel.device_info) ->
      count (`Device device) (Page_table.address_space d.Kernel.io_pt))
    k.Kernel.devices;
  let union_mapped =
    Hashtbl.fold (fun f _ acc -> Iset.add f acc) refs Iset.empty
  in
  let alloc_mapped = Page_alloc.mapped_pages k.Kernel.alloc in
  let* () =
    if Iset.equal union_mapped alloc_mapped then Ok ()
    else
      (match Iset.choose_opt (Iset.diff alloc_mapped union_mapped) with
       | Some f -> err "frame 0x%x mapped in allocator but by no process" f
       | None ->
         (match Iset.choose_opt (Iset.diff union_mapped alloc_mapped) with
          | Some f -> err "frame 0x%x mapped by a process but not in allocator" f
          | None -> Ok ()))
  in
  let* () =
    Hashtbl.fold
      (fun frame n acc ->
        let* () = acc in
        match Page_alloc.ref_count k.Kernel.alloc ~addr:frame with
        | Some rc when rc = n -> Ok ()
        | Some rc -> err "frame 0x%x refcount %d but %d mappings" frame rc n
        | None -> err "frame 0x%x mapped but not in Mapped state" frame)
      refs (Ok ())
  in
  match !outside with
  | None -> Ok ()
  | Some (who, va, e) ->
    err "%s: PTE at 0x%x -> frame 0x%x(+%d) outside reservation [0x%x,0x%x)"
      (match who with
       | `Process ptr -> Printf.sprintf "process 0x%x" ptr
       | `Device device -> Printf.sprintf "device %d io_pt" device)
      va e.Page_table.frame (Page_state.bytes_per e.Page_table.size) lo hi

let devices_wf (k : Kernel.t) =
  let* () =
    Imap.fold
      (fun device (d : Kernel.device_info) acc ->
        let* () = acc in
        match
          Perm_map.borrow_opt k.Kernel.pm.Proc_mgr.proc_perms ~ptr:d.Kernel.owner_proc
        with
        | None ->
          err "device %d assigned to dead process 0x%x" device d.Kernel.owner_proc
        | Some p ->
          if p.Process.owner_container <> d.Kernel.owner_container then
            err "device %d charged to the wrong container" device
          else
            (match Iommu.domain_of k.Kernel.iommu ~device with
             | Some root when root = Page_table.cr3 d.Kernel.io_pt ->
               (* the IOMMU table itself satisfies all page-table
                  obligations, and DMA windows are 4 KiB-grained *)
               let* () =
                 match Pt_refine.all d.Kernel.io_pt with
                 | Ok () -> Ok ()
                 | Error m -> err "device %d IOMMU table: %s" device m
               in
               if
                 Imap.for_all
                   (fun _ (e : Page_table.entry) ->
                     e.Page_table.size = Atmo_pmem.Page_state.S4k)
                   (Page_table.address_space d.Kernel.io_pt)
               then Ok ()
               else err "device %d has a non-4K DMA mapping" device
             | Some root ->
               err "device %d IOMMU root 0x%x is not its table root" device root
             | None -> err "device %d assigned but not attached to the IOMMU" device))
      k.Kernel.devices (Ok ())
  in
  (* interrupt routing: the target endpoint is alive, pending counts are
     sane, and interrupts never pend while a receiver is waiting *)
  let* () =
    Imap.fold
      (fun device (d : Kernel.device_info) acc ->
        let* () = acc in
        if d.Kernel.irq_pending < 0 then err "device %d negative irq pending" device
        else
          match d.Kernel.irq_endpoint with
          | None ->
            if d.Kernel.irq_pending = 0 then Ok ()
            else err "device %d pends interrupts with no route" device
          | Some ep ->
            (match Perm_map.borrow_opt k.Kernel.pm.Proc_mgr.edpt_perms ~ptr:ep with
             | None -> err "device %d routed to dead endpoint 0x%x" device ep
             | Some e ->
               if
                 d.Kernel.irq_pending > 0
                 && not (Atmo_pm.Static_list.is_empty e.Atmo_pm.Endpoint.recv_queue)
               then err "device %d pends interrupts past a waiting receiver" device
               else Ok ()))
      k.Kernel.devices (Ok ())
  in
  (* external-charge ground truth: per container, the recorded external
     frames equal the IOMMU tables + DMA-window shares of its devices *)
  let expected = Hashtbl.create 8 in
  Imap.iter
    (fun _ (d : Kernel.device_info) ->
      let c = d.Kernel.owner_container in
      let n =
        Iset.cardinal (Page_table.page_closure d.Kernel.io_pt)
        + Imap.cardinal (Page_table.address_space d.Kernel.io_pt)
      in
      Hashtbl.replace expected c (n + Option.value ~default:0 (Hashtbl.find_opt expected c)))
    k.Kernel.devices;
  Perm_map.fold
    (fun c _ acc ->
      let* () = acc in
      let want = Option.value ~default:0 (Hashtbl.find_opt expected c) in
      let got = Proc_mgr.external_of k.Kernel.pm ~container:c in
      if want = got then Ok ()
      else err "container 0x%x external charge %d but devices account for %d" c got want)
    k.Kernel.pm.Proc_mgr.cntr_perms (Ok ())

(* The cached per-endpoint interrupt backlog must equal the ground
   truth recomputed from the device table (absent key = 0). *)
let irq_backlog_wf (k : Kernel.t) =
  let truth =
    Imap.fold
      (fun _ (d : Kernel.device_info) acc ->
        match d.Kernel.irq_endpoint with
        | Some ep when d.Kernel.irq_pending > 0 ->
          Imap.add ep
            (d.Kernel.irq_pending + Option.value ~default:0 (Imap.find_opt ep acc))
            acc
        | Some _ | None -> acc)
      k.Kernel.devices Imap.empty
  in
  if Imap.equal Int.equal truth k.Kernel.irq_backlog then Ok ()
  else err "irq backlog cache diverged from the device table"

type entry = Kernel.t Pm_invariants.entry

let alloc = Page_alloc.map_id
let pt = Page_table.map_id
let dev = Kernel.devices_id
let cntr = Perm_map.id Proc_mgr.cntr_perms_name
let edpt = Perm_map.id Proc_mgr.edpt_perms_name
let cntr_dom = Perm_map.dom_id Proc_mgr.cntr_perms_name
let proc_dom = Perm_map.dom_id Proc_mgr.proc_perms_name
let thrd_dom = Perm_map.dom_id Proc_mgr.thrd_perms_name
let edpt_dom = Perm_map.dom_id Proc_mgr.edpt_perms_name

let kernel name reads check = { Pm_invariants.name; group = "kernel"; reads; check }

(* The process-manager checks run right after the allocator's, as
   [kernel/pm_wf] always did. *)
let table : entry list =
  kernel "kernel/allocator_wf" [ alloc ] allocator_wf
  :: List.map
       (fun (e : Proc_mgr.t Pm_invariants.entry) ->
         { e with check = (fun (k : Kernel.t) -> e.check k.Kernel.pm) })
       Pm_invariants.table
  @ [
      kernel "kernel/page_tables_wf" [ proc_dom; pt ] page_tables_wf;
      kernel "kernel/closures_disjoint"
        [ cntr_dom; proc_dom; thrd_dom; edpt_dom; pt; dev ]
        closures_disjoint;
      kernel "kernel/leak_freedom"
        [ cntr_dom; proc_dom; thrd_dom; edpt_dom; pt; alloc; dev ]
        leak_freedom;
      kernel "kernel/mapped_consistent" [ proc_dom; pt; alloc; dev ] mapped_consistent;
      kernel "kernel/devices_wf" [ dev; proc_dom; cntr; edpt; pt ] devices_wf;
      kernel "kernel/irq_backlog_wf" [ dev ] irq_backlog_wf;
    ]

let total_wf k =
  List.fold_left
    (fun acc (e : entry) ->
      let* () = acc in
      e.check k)
    (Ok ()) table

(* One [kernel/pm_wf] in place of the run of [pm] entries. *)
let obligations =
  List.fold_right
    (fun (e : entry) acc ->
      match (e.group, acc) with
      | "pm", ("kernel/pm_wf", _) :: _ -> acc
      | "pm", _ -> ("kernel/pm_wf", pm_wf) :: acc
      | _ -> (e.name, e.check) :: acc)
    table []
