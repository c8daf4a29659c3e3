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

module V = Violation

(* Each check below is an enumerator of its violations (see
   [Pm_invariants]); the first-failure forms are at the end. *)

(* [Page_alloc.wf] is one pass that stops at the first broken frame: it
   yields at most one violation. *)
let allocator_wf (k : Kernel.t) v =
  match Page_alloc.wf k.Kernel.alloc with
  | Ok () -> ()
  | Error msg -> v V.Ill_formed (-1) msg

let page_tables_wf (k : Kernel.t) v =
  Perm_map.iter
    (fun ptr (p : Process.t) ->
      Pt_refine.violations p.Process.pt (fun rule page msg ->
          V.report v rule page "page table of process 0x%x: %s" ptr msg))
    k.Kernel.pm.Proc_mgr.proc_perms

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

let closures_disjoint (k : Kernel.t) v =
  if not (Iset.pairwise_disjoint (closures k)) then
    v V.Ill_formed (-1) "two kernel objects share a page"

let leak_freedom (k : Kernel.t) v =
  let owned = Iset.union_list (closures k) in
  let allocated = Page_alloc.allocated_pages k.Kernel.alloc in
  if not (Iset.equal owned allocated) then begin
    Iset.iter
      (fun p -> V.report v V.Leak p "leak: page 0x%x allocated but owned by nothing" p)
      (Iset.diff allocated owned);
    Iset.iter
      (fun p -> V.report v V.Phantom_page p "phantom: page 0x%x owned but not allocated" p)
      (Iset.diff owned allocated)
  end

let pp_space ppf = function
  | `Process ptr -> Format.fprintf ppf "process 0x%x" ptr
  | `Device device -> Format.fprintf ppf "device %d io_pt" device

let mapped_consistent (k : Kernel.t) v =
  let pm = k.Kernel.pm in
  let alloc = k.Kernel.alloc in
  (* the managed frames' byte range [lo, hi), at the top of memory *)
  let page = Phys_mem.page_size in
  let hi = Phys_mem.page_count (Page_alloc.mem alloc) * page in
  let lo = hi - (Page_alloc.managed_frames alloc * page) in
  (* count (space, va) references per frame across all process address
     spaces and all device DMA windows, setting aside the entries whose
     block leaves [lo, hi) and the leaves over a block of another size *)
  let refs = Hashtbl.create 64 in
  let outside = ref [] and resized = ref [] in
  let count who space =
    Imap.iter
      (fun va (e : Page_table.entry) ->
        let frame = e.Page_table.frame in
        if frame < lo || frame + Page_state.bytes_per e.Page_table.size > hi then
          outside := (who, va, e) :: !outside;
        (match Page_alloc.size_of alloc ~addr:frame with
         | Some s when Page_state.equal_size s e.Page_table.size -> ()
         | s -> resized := (who, va, e, s) :: !resized);
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
  let union_mapped = Hashtbl.fold (fun f _ acc -> Iset.add f acc) refs Iset.empty in
  let alloc_mapped = Page_alloc.mapped_pages alloc in
  if not (Iset.equal union_mapped alloc_mapped) then begin
    Iset.iter
      (fun f -> V.report v V.Mapped_leak f "frame 0x%x mapped in allocator but by no process" f)
      (Iset.diff alloc_mapped union_mapped);
    Iset.iter
      (fun f ->
        V.report v V.Pt_bad_leaf_state f "frame 0x%x mapped by a process but not in allocator" f)
      (Iset.diff union_mapped alloc_mapped)
  end;
  Hashtbl.iter
    (fun frame n ->
      match Page_alloc.ref_count alloc ~addr:frame with
      | Some rc when rc = n -> ()
      | Some rc ->
        V.report v (if n > rc then V.Pt_alias else V.Ill_formed) frame
          "frame 0x%x refcount %d but %d mappings" frame rc n
      | None -> V.report v V.Pt_bad_leaf_state frame "frame 0x%x mapped but not in Mapped state" frame)
    refs;
  List.iter
    (fun (who, va, (e : Page_table.entry)) ->
      V.report v V.Ill_formed e.frame
        "%a: PTE at 0x%x -> frame 0x%x(+%d) outside reservation [0x%x,0x%x)" pp_space who va
        e.frame (Page_state.bytes_per e.size) lo hi)
    (List.rev !outside);
  List.iter
    (fun (who, va, (e : Page_table.entry), s) ->
      V.report v V.Pt_bad_leaf_state e.frame "%a: PTE at 0x%x -> %a leaf over a block of size %a"
        pp_space who va Page_state.pp_size e.size
        (Format.pp_print_option
           ~none:(fun ppf () -> Format.pp_print_string ppf "<none>")
           Page_state.pp_size)
        s)
    (List.rev !resized)

let devices_wf (k : Kernel.t) v =
  let pm = k.Kernel.pm in
  Imap.iter
    (fun device (d : Kernel.device_info) ->
      match Perm_map.borrow_opt pm.Proc_mgr.proc_perms ~ptr:d.Kernel.owner_proc with
      | None ->
        V.report v V.Ill_formed d.Kernel.owner_proc "device %d assigned to dead process 0x%x"
          device d.Kernel.owner_proc
      | Some p ->
        if p.Process.owner_container <> d.Kernel.owner_container then
          V.report v V.Ill_formed d.Kernel.owner_proc "device %d charged to the wrong container"
            device
        else (
          match Iommu.domain_of k.Kernel.iommu ~device with
          | Some root when root = Page_table.cr3 d.Kernel.io_pt ->
            (* the IOMMU table itself satisfies all page-table
               obligations, and DMA windows are 4 KiB-grained *)
            Pt_refine.violations d.Kernel.io_pt (fun rule page msg ->
                V.report v rule page "device %d IOMMU table: %s" device msg);
            if
              not
                (Imap.for_all
                   (fun _ (e : Page_table.entry) -> e.Page_table.size = Page_state.S4k)
                   (Page_table.address_space d.Kernel.io_pt))
            then V.report v V.Ill_formed (-1) "device %d has a non-4K DMA mapping" device
          | Some root ->
            V.report v V.Ill_formed root "device %d IOMMU root 0x%x is not its table root" device
              root
          | None ->
            V.report v V.Ill_formed (-1) "device %d assigned but not attached to the IOMMU" device))
    k.Kernel.devices;
  (* interrupt routing: the target endpoint is alive, pending counts are
     sane, and interrupts never pend while a receiver is waiting *)
  Imap.iter
    (fun device (d : Kernel.device_info) ->
      if d.Kernel.irq_pending < 0 then
        V.report v V.Ill_formed (-1) "device %d negative irq pending" device
      else
        match d.Kernel.irq_endpoint with
        | None ->
          if d.Kernel.irq_pending <> 0 then
            V.report v V.Ill_formed (-1) "device %d pends interrupts with no route" device
        | Some ep ->
          (match Perm_map.borrow_opt pm.Proc_mgr.edpt_perms ~ptr:ep with
           | None -> V.report v V.Ill_formed ep "device %d routed to dead endpoint 0x%x" device ep
           | Some e ->
             if
               d.Kernel.irq_pending > 0
               && not (Atmo_pm.Static_list.is_empty e.Atmo_pm.Endpoint.recv_queue)
             then
               V.report v V.Ill_formed ep "device %d pends interrupts past a waiting receiver"
                 device))
    k.Kernel.devices;
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
  Perm_map.iter
    (fun c _ ->
      let want = Option.value ~default:0 (Hashtbl.find_opt expected c) in
      let got = Proc_mgr.external_of pm ~container:c in
      if want <> got then
        V.report v V.Ill_formed c "container 0x%x external charge %d but devices account for %d" c
          got want)
    pm.Proc_mgr.cntr_perms

(* The cached per-endpoint interrupt backlog must equal the ground
   truth recomputed from the device table (absent key = 0). *)
let irq_backlog_wf (k : Kernel.t) v =
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
  if not (Imap.equal Int.equal truth k.Kernel.irq_backlog) then
    v V.Ill_formed (-1) "irq backlog cache diverged from the device table"

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

let kernel name reads violations =
  { Pm_invariants.name; group = "kernel"; reads; violations }

(* The process-manager checks run right after the allocator's, as
   [kernel/pm_wf] always did. *)
let table : entry list =
  kernel "kernel/allocator_wf" [ alloc ] allocator_wf
  :: List.map
       (fun (e : Proc_mgr.t Pm_invariants.entry) ->
         { e with violations = (fun (k : Kernel.t) v -> e.violations k.Kernel.pm v) })
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

let total_wf = V.first (fun k v -> List.iter (fun (e : entry) -> e.violations k v) table)

(* The first-failure form of each check. *)
let allocator_wf = V.first allocator_wf
let pm_wf (k : Kernel.t) = Pm_invariants.all k.Kernel.pm
let page_tables_wf = V.first page_tables_wf
let closures_disjoint = V.first closures_disjoint
let leak_freedom = V.first leak_freedom
let mapped_consistent = V.first mapped_consistent
let devices_wf = V.first devices_wf
let irq_backlog_wf = V.first irq_backlog_wf

(* One [kernel/pm_wf] in place of the run of [pm] entries. *)
let obligations =
  List.fold_right
    (fun (e : entry) acc ->
      match (e.group, acc) with
      | "pm", ("kernel/pm_wf", _) :: _ -> acc
      | "pm", _ -> ("kernel/pm_wf", pm_wf) :: acc
      | _ -> (e.name, Pm_invariants.check e) :: acc)
    table []
