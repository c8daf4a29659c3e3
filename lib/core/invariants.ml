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

(* The managed frames' byte range [lo, hi), at the top of memory *)
let managed_range alloc =
  let page = Phys_mem.page_size in
  let hi = Phys_mem.page_count (Page_alloc.mem alloc) * page in
  (hi - (Page_alloc.managed_frames alloc * page), hi)

let mapped_consistent (k : Kernel.t) v =
  let pm = k.Kernel.pm in
  let alloc = k.Kernel.alloc in
  let lo, hi = managed_range alloc in
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

(* ------------------------------------------------------------------ *)
(* The memory checks' shared view                                      *)

let space_unchanged _ = Page_table.ghost_unchanged

(* [closures k] and the mapping counts of [mapped_consistent], kept
   between checks: the pages some closure (a kernel object's page, a
   table's closure) holds, and the frames some (space, va) mapping
   names, each a set of the pages held once and a map of the holders
   past the first, which is empty while the closures are disjoint and
   no frame is shared. *)
type view = {
  kernel : Kernel.t;
  cntrs : Atmo_pm.Container.t Imap.t;
  procs : Process.t Imap.t;
  thrds : Atmo_pm.Thread.t Imap.t;
  edpts : Atmo_pm.Endpoint.t Imap.t;
  devices : Kernel.device_info Imap.t;
  spaces : Page_table.ghost Imap.t;  (* process -> its address space *)
  io_spaces : Page_table.ghost Imap.t;  (* device -> its DMA window *)
  owned : Iset.t;  (* pages some closure holds *)
  shared : int Imap.t;  (* page -> closures holding it past the first *)
  mapped : Iset.t;  (* frames some mapping names *)
  aliases : int Imap.t;  (* frame -> mappings naming it past the first *)
  outside : int;  (* mappings whose block leaves the managed frames *)
}

(* The view, with the inputs of the last clean [leak_freedom] (the
   owned and allocated sets) and [mapped_consistent] (the spaces and
   the allocator's page-array version).  Published with one write, as
   the other keys are. *)
type memo = {
  view : view;
  leak_clean : (Iset.t * Iset.t) option;
  mapped_clean : (Page_table.ghost Imap.t * Page_table.ghost Imap.t * int) option;
}

let memo : memo option Atomic.t = Atomic.make None

let view_unchanged (k : Kernel.t) w =
  let pm = k.Kernel.pm in
  w.kernel == k
  && Perm_map.map pm.Proc_mgr.cntr_perms == w.cntrs
  && Perm_map.map pm.Proc_mgr.proc_perms == w.procs
  && Perm_map.map pm.Proc_mgr.thrd_perms == w.thrds
  && Perm_map.map pm.Proc_mgr.edpt_perms == w.edpts
  && k.Kernel.devices == w.devices
  && Imap.for_all space_unchanged w.spaces
  && Imap.for_all space_unchanged w.io_spaces

(* One more or one fewer holder of [x] in the multiset [(once, extra)]. *)
let hold once extra x =
  if Iset.mem x !once then
    extra := Imap.add x (1 + Option.value ~default:0 (Imap.find_opt x !extra)) !extra
  else once := Iset.add x !once

let release once extra x =
  match Imap.find_opt x !extra with
  | Some 1 -> extra := Imap.remove x !extra
  | Some n -> extra := Imap.add x (n - 1) !extra
  | None -> once := Iset.remove x !once

(* [w]'s counts moved to [k]'s state: only the objects whose map entry
   appeared or went, and the spaces whose key moved, are counted
   again. *)
let update_view (k : Kernel.t) (w : view) =
  let pm = k.Kernel.pm in
  let lo, hi = managed_range k.Kernel.alloc in
  let owned = ref w.owned and shared = ref w.shared in
  let mapped = ref w.mapped and aliases = ref w.aliases and outside = ref w.outside in
  let is_outside (e : Page_table.entry) =
    e.Page_table.frame < lo || e.Page_table.frame + Page_state.bytes_per e.Page_table.size > hi
  in
  let map _ (e : Page_table.entry) =
    hold mapped aliases e.Page_table.frame;
    if is_outside e then incr outside
  and unmap _ (e : Page_table.entry) =
    release mapped aliases e.Page_table.frame;
    if is_outside e then decr outside
  in
  let objects old m =
    Imap.fold_diff
      (fun p o n () ->
        match (o, n) with
        | None, Some _ -> hold owned shared p
        | Some _, None -> release owned shared p
        | Some _, Some _ | None, None -> ())
      old m ()
  in
  let cntrs = Perm_map.map pm.Proc_mgr.cntr_perms
  and procs = Perm_map.map pm.Proc_mgr.proc_perms
  and thrds = Perm_map.map pm.Proc_mgr.thrd_perms
  and edpts = Perm_map.map pm.Proc_mgr.edpt_perms in
  objects w.cntrs cntrs;
  objects w.procs procs;
  objects w.thrds thrds;
  objects w.edpts edpts;
  (* one space's contribution, from its old to its new state *)
  let move (o : Page_table.ghost option) (n : Page_table.ghost option) =
    match (o, n) with
    | None, Some s ->
      Iset.iter (hold owned shared) s.Page_table.seen_closure;
      Imap.iter map s.Page_table.seen_space
    | Some s, None ->
      Iset.iter (release owned shared) s.Page_table.seen_closure;
      Imap.iter unmap s.Page_table.seen_space
    | Some o, Some n ->
      Iset.iter (release owned shared) (Iset.diff o.Page_table.seen_closure n.Page_table.seen_closure);
      Iset.iter (hold owned shared) (Iset.diff n.Page_table.seen_closure o.Page_table.seen_closure);
      Imap.fold_diff
        (fun va a b () ->
          Option.iter (unmap va) a;
          Option.iter (map va) b)
        o.Page_table.seen_space n.Page_table.seen_space ()
    | None, None -> ()
  in
  (* the spaces of [src]'s tables ([pt_of]), from [old]'s: only a space
     whose table or ghost state moved is counted again *)
  let spaces old old_src src pt_of =
    let spaces =
      Imap.fold
        (fun key v acc ->
          let pt = pt_of v in
          match Imap.find_opt key acc with
          | Some s when s.Page_table.pt == pt && Page_table.ghost_unchanged s -> acc
          | o ->
            let s = Page_table.ghost pt in
            move o (Some s);
            Imap.add key s acc)
        src old
    in
    Imap.fold_diff
      (fun key _ v acc ->
        match (v, Imap.find_opt key acc) with
        | None, Some s ->
          move (Some s) None;
          Imap.remove key acc
        | _ -> acc)
      old_src src spaces
  in
  let space_map = spaces w.spaces w.procs procs (fun (p : Process.t) -> p.Process.pt) in
  let io_spaces =
    spaces w.io_spaces w.devices k.Kernel.devices (fun (d : Kernel.device_info) -> d.Kernel.io_pt)
  in
  {
    kernel = k;
    cntrs;
    procs;
    thrds;
    edpts;
    devices = k.Kernel.devices;
    spaces = space_map;
    io_spaces;
    owned = !owned;
    shared = !shared;
    mapped = !mapped;
    aliases = !aliases;
    outside = !outside;
  }

let empty_view k =
  let none = Imap.empty in
  { kernel = k; cntrs = none; procs = none; thrds = none; edpts = none; devices = none;
    spaces = none; io_spaces = none; owned = Iset.empty; shared = none; mapped = Iset.empty;
    aliases = none; outside = 0 }

(* The kept memo of [k], its view brought up to date. *)
let memo_now (k : Kernel.t) =
  match Atomic.get memo with
  | Some m when view_unchanged k m.view -> m
  | Some m when m.view.kernel == k ->
    let m = { m with view = update_view k m.view } in
    Atomic.set memo (Some m);
    m
  | Some _ | None ->
    let m = { view = update_view k (empty_view k); leak_clean = None; mapped_clean = None } in
    Atomic.set memo (Some m);
    m

let keep f =
  match Atomic.get memo with Some m -> Atomic.set memo (Some (f m)) | None -> ()

(* While set, the memory checks run their full enumerators and keep
   nothing: the cache-free evaluation tests compare with. *)
let full_only = Atomic.make false

(* A keyed memory check: clean at once when the view says so, else the
   full enumerator, so every message is the full check's. *)
let closures_disjoint_keyed k v =
  if Atomic.get full_only || not (Imap.is_empty (memo_now k).view.shared) then
    closures_disjoint k v

let leak_freedom_keyed (k : Kernel.t) v =
  if Atomic.get full_only then leak_freedom k v
  else
  let m = memo_now k in
  let owned = m.view.owned and allocated = Page_alloc.allocated_pages k.Kernel.alloc in
  match m.leak_clean with
  | Some (o, a) when o == owned && a == allocated -> ()
  | Some _ | None ->
    if Iset.equal owned allocated then keep (fun m -> { m with leak_clean = Some (owned, allocated) })
    else leak_freedom k v

(* The full check's clauses over the view: the mapped sets agree, each
   frame's count is its reference count, no block leaves the managed
   frames and every leaf's block has the leaf's size. *)
let mapped_clean (k : Kernel.t) w =
  let alloc = k.Kernel.alloc in
  let sized _ (s : Page_table.ghost) =
    Imap.for_all
      (fun _ (e : Page_table.entry) ->
        match Page_alloc.size_of alloc ~addr:e.Page_table.frame with
        | Some size -> Page_state.equal_size size e.Page_table.size
        | None -> false)
      s.Page_table.seen_space
  in
  w.outside = 0
  && Iset.equal w.mapped (Page_alloc.mapped_pages alloc)
  && Iset.for_all
       (fun f ->
         Page_alloc.ref_count alloc ~addr:f
         = Some (1 + Option.value ~default:0 (Imap.find_opt f w.aliases)))
       w.mapped
  && Imap.for_all sized w.spaces
  && Imap.for_all sized w.io_spaces

(* [mapped_clean] reads the allocator only at the frames some mapping
   names, which are the allocator's mapped frames while it holds, and
   the mapped set.  So with the spaces unchanged, it holds again after
   writes to frames that neither a mapping names nor are mapped now. *)
let unmapped_since alloc (w : view) at =
  let mapped = Page_alloc.mapped_pages alloc and quiet = ref true in
  Page_alloc.written_since alloc at (fun f ->
      if Iset.mem f w.mapped || Iset.mem f mapped then quiet := false)
  && !quiet

let mapped_consistent_keyed (k : Kernel.t) v =
  if Atomic.get full_only then mapped_consistent k v
  else
  let m = memo_now k in
  let w = m.view and alloc = k.Kernel.alloc in
  let now = Page_alloc.version alloc in
  match m.mapped_clean with
  | Some (s, io, at) when s == w.spaces && io == w.io_spaces && at = now -> ()
  | Some (s, io, at) when s == w.spaces && io == w.io_spaces && unmapped_since alloc w at ->
    keep (fun m -> { m with mapped_clean = Some (s, io, now) })
  | Some _ | None ->
    if mapped_clean k w then
      keep (fun m -> { m with mapped_clean = Some (w.spaces, w.io_spaces, now) })
    else mapped_consistent k v

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
        closures_disjoint_keyed;
      kernel "kernel/leak_freedom"
        [ cntr_dom; proc_dom; thrd_dom; edpt_dom; pt; alloc; dev ]
        leak_freedom_keyed;
      kernel "kernel/mapped_consistent" [ proc_dom; pt; alloc; dev ] mapped_consistent_keyed;
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

module Backdoor = struct
  let cache_free f =
    Atomic.set full_only true;
    Fun.protect ~finally:(fun () -> Atomic.set full_only false) f
end
