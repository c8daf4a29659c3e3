open Atmo_util
module A = Abstract_state
module Page_state = Atmo_pmem.Page_state
module Page_table = Atmo_pt.Page_table
module Thread = Atmo_pm.Thread
module Message = Atmo_pm.Message

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let free_frame_total (a : A.t) =
  Frame_set.cardinal a.A.free_4k
  + (512 * Frame_set.cardinal a.A.free_2m)
  + (512 * 512 * Frame_set.cardinal a.A.free_1g)

(* Every managed frame is a head or body of exactly one set, so the sum
   of cardinals is invariant under every call (including merge/split). *)
let accounted (a : A.t) =
  Frame_set.cardinal a.A.free_4k + Frame_set.cardinal a.A.free_2m
  + Frame_set.cardinal a.A.free_1g + Iset.cardinal a.A.allocated
  + Iset.cardinal a.A.mapped + Frame_set.cardinal a.A.merged

let space_frames space =
  Imap.fold (fun _ (e : Page_table.entry) acc -> Iset.add e.Page_table.frame acc) space Iset.empty

(* All frames mapped by any address space or device DMA window (block
   heads only). *)
let all_mapped_heads (a : A.t) =
  let procs =
    Imap.fold (fun _ (p : A.aproc) acc -> Iset.union acc (space_frames p.A.ap_space)) a.A.procs Iset.empty
  in
  Imap.fold
    (fun _ (d : A.adevice) acc -> Iset.union acc (space_frames d.A.ad_io_space))
    a.A.devices procs

let eq_slots (a : (int * int) list) b =
  List.sort compare a = List.sort compare b

(* Expected descriptor table after installing [ep] in [slot]. *)
let slots_with slots slot ep = List.sort compare ((slot, ep) :: slots)

let eq_msg (a : Message.t) (b : Message.t) =
  a.Message.scalars = b.Message.scalars
  && a.Message.page = b.Message.page
  && a.Message.endpoint = b.Message.endpoint

(* The caller leaves the CPU (blocking receive/send): the next runnable
   thread, if any, is popped and becomes Running.  Returns the expected
   (run_queue, current) and the thread whose state flipped to Running. *)
let sched_after_detach (pre : A.t) ~caller ~requeue_caller =
  if pre.A.current = Some caller then begin
    let base = if requeue_caller then pre.A.run_queue @ [ caller ] else pre.A.run_queue in
    match base with
    | [] -> ([], None, None)
    | next :: rest -> (rest, Some next, if next = caller then None else Some next)
  end
  else
    (* a non-current caller just leaves (or stays in) the queue *)
    let q = List.filter (fun x -> x <> caller) pre.A.run_queue in
    ((if requeue_caller then pre.A.run_queue else q), pre.A.current, None)

(* A rendezvous woke [partner]: it joins the run-queue tail and, when
   the caller held the CPU, the caller is preempted behind it and the
   head of the resulting queue takes the CPU — the partner whenever the
   queue was empty, which is the direct switch the IPC fastpath
   specialises.  Returns the expected (run_queue, current) and the
   thread that took the CPU. *)
let sched_after_rendezvous (pre : A.t) ~caller ~partner =
  if pre.A.current = Some caller then
    match pre.A.run_queue @ [ partner; caller ] with
    | next :: rest -> (rest, Some next, Some next)
    | [] -> assert false
  else (pre.A.run_queue @ [ partner ], pre.A.current, None)

(* ------------------------------------------------------------------ *)
(* Clause machinery                                                    *)

type ck = (string * bool) list

let c name b : ck = [ (name, b) ]
let ( @& ) (a : ck) (b : ck) = a @ b

(* Frame-condition bundle: everything except the exempted parts is
   unchanged. *)
let unchanged_bundle ?(cntrs = Iset.empty) ?(procs = Iset.empty) ?(threads = Iset.empty)
    ?(edpts = Iset.empty) ?(sched = false) ?(memory = false) ?(devices = false)
    (pre : A.t) (post : A.t) : ck =
  c "frame/containers" (A.containers_unchanged_except pre post cntrs)
  @& c "frame/procs" (A.procs_unchanged_except pre post procs)
  @& c "frame/threads" (A.threads_unchanged_except pre post threads)
  @& c "frame/endpoints" (A.endpoints_unchanged_except pre post edpts)
  @& (if sched then []
      else
        c "frame/run_queue" (pre.A.run_queue = post.A.run_queue)
        @& c "frame/current" (pre.A.current = post.A.current))
  @& (if memory then [] else c "frame/memory" (A.memory_unchanged pre post))
  @& if devices then [] else c "frame/devices" (A.devices_unchanged_except pre post Iset.empty)

(* Exact container evolution: [post] container equals [pre] container
   with the given field updates applied. *)
let container_is (post : A.t) ptr (expected : A.acontainer) : ck =
  match Imap.find_opt ptr post.A.containers with
  | None -> c "container/alive" false
  | Some got -> c (Printf.sprintf "container/0x%x" ptr) (A.equal_acontainer got expected)

(* ------------------------------------------------------------------ *)
(* Per-call success specifications                                     *)

let caller_context (pre : A.t) ~thread =
  match Imap.find_opt thread pre.A.threads with
  | None -> None
  | Some th ->
    (match Imap.find_opt th.A.at_owner_proc pre.A.procs with
     | None -> None
     | Some p -> Some (th, th.A.at_owner_proc, p, p.A.ap_owner_container))

let spec_mmap ~(pre : A.t) ~(post : A.t) ~thread ~va ~count ~size ~perm frames : ck =
  match caller_context pre ~thread with
  | None -> c "mmap/caller_alive" false
  | Some (_, proc, pre_p, cntr) ->
    let bytes = Page_state.bytes_per size in
    let fp = Page_state.frames_per size in
    let vas = List.init count (fun i -> va + (i * bytes)) in
    (match Imap.find_opt proc post.A.procs with
     | None -> c "mmap/proc_survives" false
     | Some post_p ->
       let new_tables = Iset.diff post_p.A.ap_pt_pages pre_p.A.ap_pt_pages in
       let n_tables = Iset.cardinal new_tables in
       c "mmap/count" (List.length frames = count)
       (* each virtual address in va_range gets its page, with the
          requested size and permission (Listing 1, lines 23-26) *)
       @& c "mmap/new_mappings"
            (List.for_all2
               (fun v f ->
                 match Imap.find_opt v post_p.A.ap_space with
                 | Some e ->
                   e.Page_table.frame = f
                   && Page_state.equal_size e.Page_table.size size
                   && Atmo_hw.Pte_bits.equal_perm e.Page_table.perm perm
                 | None -> false)
               vas frames)
       (* virtual addresses outside va_range are not changed *)
       @& c "mmap/space_frame"
            (A.space_unchanged_except pre post ~proc (Iset.of_list vas))
       (* newly allocated pages were free pages *)
       @& c "mmap/frames_were_free" (List.for_all (A.page_is_free pre) frames)
       (* each page is mapped uniquely *)
       @& c "mmap/frames_unique"
            (Iset.cardinal (Iset.of_list frames) = List.length frames)
       @& c "mmap/frames_now_mapped"
            (Iset.equal post.A.mapped (Iset.union pre.A.mapped (Iset.of_list frames)))
       @& c "mmap/tables_allocated"
            (Iset.equal post.A.allocated (Iset.union pre.A.allocated new_tables))
       @& c "mmap/pt_monotone" (Iset.subset pre_p.A.ap_pt_pages post_p.A.ap_pt_pages)
       @& c "mmap/free_drop"
            (free_frame_total pre - free_frame_total post = (count * fp) + n_tables)
       (* the caller's container is charged exactly *)
       @& (match Imap.find_opt cntr pre.A.containers with
           | None -> c "mmap/container_alive" false
           | Some cc ->
             container_is post cntr
               { cc with A.ac_used = cc.A.ac_used + (count * fp) + n_tables })
       (* the process object changed only in its address space / tables *)
       @& c "mmap/proc_only_space"
            (A.equal_aproc post_p
               { pre_p with A.ap_space = post_p.A.ap_space; ap_pt_pages = post_p.A.ap_pt_pages })
       @& unchanged_bundle ~cntrs:(Iset.singleton cntr) ~procs:(Iset.singleton proc)
            ~memory:true pre post)

let spec_munmap ~(pre : A.t) ~(post : A.t) ~thread ~va ~count ~size : ck =
  match caller_context pre ~thread with
  | None -> c "munmap/caller_alive" false
  | Some (_, proc, pre_p, cntr) ->
    let bytes = Page_state.bytes_per size in
    let fp = Page_state.frames_per size in
    let vas = List.init count (fun i -> va + (i * bytes)) in
    (match Imap.find_opt proc post.A.procs with
     | None -> c "munmap/proc_survives" false
     | Some post_p ->
       let unmapped_frames =
         List.filter_map
           (fun v ->
             Option.map (fun (e : Page_table.entry) -> e.Page_table.frame)
               (Imap.find_opt v pre_p.A.ap_space))
           vas
         |> Iset.of_list
       in
       c "munmap/were_mapped"
         (List.for_all
            (fun v ->
              match Imap.find_opt v pre_p.A.ap_space with
              | Some e -> Page_state.equal_size e.Page_table.size size
              | None -> false)
            vas)
       @& c "munmap/now_unmapped"
            (List.for_all (fun v -> not (Imap.mem v post_p.A.ap_space)) vas)
       @& c "munmap/space_frame"
            (A.space_unchanged_except pre post ~proc (Iset.of_list vas))
       (* a frame stays mapped iff some surviving mapping still names it *)
       @& c "munmap/mapped_evolution"
            (Iset.equal post.A.mapped (all_mapped_heads post))
       @& c "munmap/allocated_unchanged" (Iset.equal pre.A.allocated post.A.allocated)
       @& c "munmap/free_growth"
            (free_frame_total post - free_frame_total pre
             = Iset.cardinal (Iset.diff unmapped_frames post.A.mapped) * fp)
       @& (match Imap.find_opt cntr pre.A.containers with
           | None -> c "munmap/container_alive" false
           | Some cc ->
             container_is post cntr { cc with A.ac_used = cc.A.ac_used - (count * fp) })
       @& c "munmap/proc_only_space"
            (A.equal_aproc post_p { pre_p with A.ap_space = post_p.A.ap_space })
       @& unchanged_bundle ~cntrs:(Iset.singleton cntr) ~procs:(Iset.singleton proc)
            ~memory:true pre post)

let spec_mprotect ~(pre : A.t) ~(post : A.t) ~thread ~va ~perm : ck =
  match caller_context pre ~thread with
  | None -> c "mprotect/caller_alive" false
  | Some (_, proc, pre_p, _) ->
    (match (Imap.find_opt va pre_p.A.ap_space, Imap.find_opt proc post.A.procs) with
     | Some e, Some post_p ->
       c "mprotect/perm_updated"
         (match Imap.find_opt va post_p.A.ap_space with
          | Some e' -> Page_table.equal_entry e' { e with Page_table.perm }
          | None -> false)
       @& c "mprotect/space_frame"
            (A.space_unchanged_except pre post ~proc (Iset.singleton va))
       @& c "mprotect/proc_only_space"
            (A.equal_aproc post_p { pre_p with A.ap_space = post_p.A.ap_space })
       @& unchanged_bundle ~procs:(Iset.singleton proc) pre post
     | None, _ -> c "mprotect/was_mapped" false
     | _, None -> c "mprotect/proc_survives" false)

let spec_new_container ~(pre : A.t) ~(post : A.t) ~thread ~quota ~cpus child : ck =
  match caller_context pre ~thread with
  | None -> c "new_container/caller_alive" false
  | Some (_, _, _, parent) ->
    (match Imap.find_opt parent pre.A.containers with
     | None -> c "new_container/parent_alive" false
     | Some pc ->
       let expected_child =
         {
           A.ac_parent = Some parent;
           ac_children = [];
           ac_procs = [];
           ac_quota = quota;
           ac_used = 1;
           ac_delegated = 0;
           ac_cpus = cpus;
           ac_depth = pc.A.ac_depth + 1;
           ac_path = pc.A.ac_path @ [ parent ];
           ac_subtree = Iset.empty;
         }
       in
       c "new_container/fresh" (not (Imap.mem child pre.A.containers))
       @& c "new_container/page_was_free" (A.page_is_free pre child)
       @& (match Imap.find_opt child post.A.containers with
           | Some got -> c "new_container/child_state" (A.equal_acontainer got expected_child)
           | None -> c "new_container/child_exists" false)
       @& container_is post parent
            {
              pc with
              A.ac_children = pc.A.ac_children @ [ child ];
              ac_delegated = pc.A.ac_delegated + quota;
              ac_subtree = Iset.add child pc.A.ac_subtree;
            }
       (* every ancestor's ghost subtree gains the child and nothing else
          changes (the paper's new_container_ensures, Listing 3) *)
       @& List.concat_map
            (fun anc ->
              match (Imap.find_opt anc pre.A.containers, Imap.find_opt anc post.A.containers) with
              | Some a, Some a' ->
                c
                  (Printf.sprintf "new_container/ancestor_0x%x" anc)
                  (A.equal_acontainer a' { a with A.ac_subtree = Iset.add child a.A.ac_subtree })
              | _ -> c "new_container/ancestor_alive" false)
            pc.A.ac_path
       @& c "new_container/allocated"
            (Iset.equal post.A.allocated (Iset.add child pre.A.allocated))
       @& c "new_container/free_drop" (free_frame_total pre - free_frame_total post = 1)
       @& c "new_container/mapped_unchanged" (Iset.equal pre.A.mapped post.A.mapped)
       @& unchanged_bundle
            ~cntrs:(Iset.add child (Iset.add parent (Iset.of_list pc.A.ac_path)))
            ~memory:true pre post)

let spec_new_process ~(pre : A.t) ~(post : A.t) ~thread proc : ck =
  match caller_context pre ~thread with
  | None -> c "new_process/caller_alive" false
  | Some (_, caller_proc, pre_cp, cntr) ->
    let new_pages = Iset.diff post.A.allocated pre.A.allocated in
    let pt_pages = Iset.remove proc new_pages in
    c "new_process/fresh" (not (Imap.mem proc pre.A.procs))
    @& c "new_process/two_pages"
         (Iset.cardinal new_pages = 2 && Iset.mem proc new_pages)
    @& c "new_process/pages_were_free"
         (Iset.for_all (A.page_is_free pre) new_pages)
    @& (match Imap.find_opt proc post.A.procs with
        | Some got ->
          c "new_process/state"
            (A.equal_aproc got
               {
                 A.ap_owner_container = cntr;
                 ap_parent = Some caller_proc;
                 ap_children = [];
                 ap_threads = [];
                 ap_space = Imap.empty;
                 ap_pt_pages = pt_pages;
               })
        | None -> c "new_process/exists" false)
    @& (match Imap.find_opt caller_proc post.A.procs with
        | Some got ->
          c "new_process/parent_children"
            (A.equal_aproc got { pre_cp with A.ap_children = pre_cp.A.ap_children @ [ proc ] })
        | None -> c "new_process/parent_survives" false)
    @& (match Imap.find_opt cntr pre.A.containers with
        | None -> c "new_process/container_alive" false
        | Some cc ->
          container_is post cntr
            { cc with A.ac_used = cc.A.ac_used + 2; ac_procs = cc.A.ac_procs @ [ proc ] })
    @& c "new_process/free_drop" (free_frame_total pre - free_frame_total post = 2)
    @& c "new_process/mapped_unchanged" (Iset.equal pre.A.mapped post.A.mapped)
    @& unchanged_bundle ~cntrs:(Iset.singleton cntr)
         ~procs:(Iset.of_list [ proc; caller_proc ]) ~memory:true pre post

let spec_new_thread ~(pre : A.t) ~(post : A.t) ~thread th_new : ck =
  match caller_context pre ~thread with
  | None -> c "new_thread/caller_alive" false
  | Some (_, caller_proc, pre_cp, cntr) ->
    c "new_thread/fresh" (not (Imap.mem th_new pre.A.threads))
    @& c "new_thread/page_was_free" (A.page_is_free pre th_new)
    @& (match Imap.find_opt th_new post.A.threads with
        | Some got ->
          c "new_thread/state"
            (A.equal_athread got
               {
                 A.at_owner_proc = caller_proc;
                 at_state = Thread.Runnable;
                 at_slots = [];
                 at_msg = None;
               })
        | None -> c "new_thread/exists" false)
    @& (match Imap.find_opt caller_proc post.A.procs with
        | Some got ->
          c "new_thread/proc_threads"
            (A.equal_aproc got { pre_cp with A.ap_threads = pre_cp.A.ap_threads @ [ th_new ] })
        | None -> c "new_thread/proc_survives" false)
    @& c "new_thread/enqueued" (post.A.run_queue = pre.A.run_queue @ [ th_new ])
    @& c "new_thread/current_unchanged" (pre.A.current = post.A.current)
    @& (match Imap.find_opt cntr pre.A.containers with
        | None -> c "new_thread/container_alive" false
        | Some cc -> container_is post cntr { cc with A.ac_used = cc.A.ac_used + 1 })
    @& c "new_thread/allocated" (Iset.equal post.A.allocated (Iset.add th_new pre.A.allocated))
    @& c "new_thread/free_drop" (free_frame_total pre - free_frame_total post = 1)
    @& unchanged_bundle ~cntrs:(Iset.singleton cntr) ~procs:(Iset.singleton caller_proc)
         ~threads:(Iset.singleton th_new) ~sched:true ~memory:true pre post

let spec_new_endpoint ~(pre : A.t) ~(post : A.t) ~thread ~slot ep : ck =
  match caller_context pre ~thread with
  | None -> c "new_endpoint/caller_alive" false
  | Some (pre_th, _, _, cntr) ->
    c "new_endpoint/fresh" (not (Imap.mem ep pre.A.endpoints))
    @& c "new_endpoint/page_was_free" (A.page_is_free pre ep)
    @& c "new_endpoint/slot_was_empty" (not (List.mem_assoc slot pre_th.A.at_slots))
    @& (match Imap.find_opt ep post.A.endpoints with
        | Some got ->
          c "new_endpoint/state"
            (A.equal_aendpoint got
               {
                 A.ae_owner_container = cntr;
                 ae_send_queue = [];
                 ae_recv_queue = [];
                 ae_refcount = 1;
               })
        | None -> c "new_endpoint/exists" false)
    @& (match Imap.find_opt thread post.A.threads with
        | Some got ->
          c "new_endpoint/slot_installed"
            (A.equal_athread got
               { pre_th with A.at_slots = slots_with pre_th.A.at_slots slot ep })
        | None -> c "new_endpoint/thread_survives" false)
    @& (match Imap.find_opt cntr pre.A.containers with
        | None -> c "new_endpoint/container_alive" false
        | Some cc -> container_is post cntr { cc with A.ac_used = cc.A.ac_used + 1 })
    @& c "new_endpoint/allocated" (Iset.equal post.A.allocated (Iset.add ep pre.A.allocated))
    @& c "new_endpoint/free_drop" (free_frame_total pre - free_frame_total post = 1)
    @& unchanged_bundle ~cntrs:(Iset.singleton cntr) ~threads:(Iset.singleton thread)
         ~edpts:(Iset.singleton ep) ~memory:true pre post

let spec_close_endpoint ~(pre : A.t) ~(post : A.t) ~thread ~slot : ck =
  match caller_context pre ~thread with
  | None -> c "close_endpoint/caller_alive" false
  | Some (pre_th, _, _, _) ->
    (match List.assoc_opt slot pre_th.A.at_slots with
     | None -> c "close_endpoint/slot_held" false
     | Some ep ->
       let pre_e = Imap.find ep pre.A.endpoints in
       c "close_endpoint/slot_cleared"
         (match Imap.find_opt thread post.A.threads with
          | Some got ->
            A.equal_athread got
              { pre_th with A.at_slots = List.remove_assoc slot pre_th.A.at_slots }
          | None -> false)
       @&
       if pre_e.A.ae_refcount = 1 then
         c "close_endpoint/freed" (not (Imap.mem ep post.A.endpoints))
         @& c "close_endpoint/irq_routes_cleared"
              (Imap.equal A.equal_adevice post.A.devices
                 (Imap.map
                    (fun (d : A.adevice) ->
                      if d.A.ad_irq_endpoint = Some ep then
                        { d with A.ad_irq_endpoint = None; ad_irq_pending = 0 }
                      else d)
                    pre.A.devices))
         @& c "close_endpoint/page_released"
              (Iset.equal post.A.allocated (Iset.remove ep pre.A.allocated))
         @& c "close_endpoint/free_growth" (free_frame_total post - free_frame_total pre = 1)
         @& (match Imap.find_opt pre_e.A.ae_owner_container pre.A.containers with
             | None -> c "close_endpoint/owner_alive" false
             | Some cc ->
               container_is post pre_e.A.ae_owner_container
                 { cc with A.ac_used = cc.A.ac_used - 1 })
         @& unchanged_bundle
              ~cntrs:(Iset.singleton pre_e.A.ae_owner_container)
              ~threads:(Iset.singleton thread) ~edpts:(Iset.singleton ep) ~memory:true
              ~devices:true pre post
       else
         c "close_endpoint/refcount_drop"
           (match Imap.find_opt ep post.A.endpoints with
            | Some got ->
              A.equal_aendpoint got { pre_e with A.ae_refcount = pre_e.A.ae_refcount - 1 }
            | None -> false)
         @& unchanged_bundle ~threads:(Iset.singleton thread) ~edpts:(Iset.singleton ep)
              pre post)

(* grants as seen from the spec: what the receiver gains.  [rendezvous]
   is the endpoint the message went through, with the record the
   rendezvous alone leaves it (its queue popped). *)
let grant_clauses ~(pre : A.t) ~(post : A.t) ~sender ~receiver ~(msg : Message.t)
    ~rendezvous:(ep, (popped : A.aendpoint)) : ck =
  let s_th = Imap.find sender pre.A.threads in
  let r_th = Imap.find receiver pre.A.threads in
  let r_proc = r_th.A.at_owner_proc in
  let page_ck =
    match msg.Message.page with
    | None ->
      c "ipc/no_page_grant"
        (A.procs_unchanged_except pre post Iset.empty && A.memory_unchanged pre post)
    | Some g ->
      let s_proc = s_th.A.at_owner_proc in
      let s_space = A.get_address_space pre ~proc:s_proc in
      (match Imap.find_opt g.Message.src_vaddr s_space with
       | None -> c "ipc/page_grant_src_mapped" false
       | Some e ->
         let pre_rp = Imap.find r_proc pre.A.procs in
         (match Imap.find_opt r_proc post.A.procs with
          | None -> c "ipc/receiver_proc_survives" false
          | Some post_rp ->
            let new_tables = Iset.diff post_rp.A.ap_pt_pages pre_rp.A.ap_pt_pages in
            let n_tables = Iset.cardinal new_tables in
            let r_cntr = pre_rp.A.ap_owner_container in
            c "ipc/page_mapped_in_receiver"
              (match Imap.find_opt g.Message.dst_vaddr post_rp.A.ap_space with
               | Some e' -> Page_table.equal_entry e' e
               | None -> false)
            @& c "ipc/receiver_space_frame"
                 (A.space_unchanged_except pre post ~proc:r_proc
                    (Iset.singleton g.Message.dst_vaddr))
            @& c "ipc/frame_stays_mapped" (Iset.equal post.A.mapped pre.A.mapped)
            @& c "ipc/tables_allocated"
                 (Iset.equal post.A.allocated (Iset.union pre.A.allocated new_tables))
            @& c "ipc/free_drop" (free_frame_total pre - free_frame_total post = n_tables)
            @& (match Imap.find_opt r_cntr pre.A.containers with
                | None -> c "ipc/receiver_container_alive" false
                | Some cc ->
                  container_is post r_cntr
                    { cc with A.ac_used = cc.A.ac_used + 1 + n_tables })
            @& c "ipc/procs_frame" (A.procs_unchanged_except pre post (Iset.singleton r_proc))
            @& c "ipc/containers_frame"
                 (A.containers_unchanged_except pre post (Iset.singleton r_cntr))))
  in
  let edpt_ck =
    match msg.Message.endpoint with
    | None -> c "ipc/no_endpoint_grant" true
    | Some g ->
      (match List.assoc_opt g.Message.src_slot s_th.A.at_slots with
       | None -> c "ipc/endpoint_grant_src_held" false
       | Some ep2 ->
         c "ipc/endpoint_installed"
           (match Imap.find_opt receiver post.A.threads with
            | Some got -> List.assoc_opt g.Message.dst_slot got.A.at_slots = Some ep2
            | None -> false)
         @& c "ipc/endpoint_refcount"
              (match (Imap.find_opt ep2 pre.A.endpoints, Imap.find_opt ep2 post.A.endpoints) with
               | Some e, Some e' ->
                 (* granting the rendezvous endpoint itself: its one
                    record carries the popped queue and the new reference *)
                 let e = if ep2 = ep then popped else e in
                 A.equal_aendpoint e' { e with A.ae_refcount = e.A.ae_refcount + 1 }
               | _ -> false))
  in
  page_ck @& edpt_ck

let spec_send ~(pre : A.t) ~(post : A.t) ~thread ~slot ~(msg : Message.t)
    (ret : Syscall.ret) : ck =
  match caller_context pre ~thread with
  | None -> c "send/caller_alive" false
  | Some (pre_th, _, _, _) ->
    (match List.assoc_opt slot pre_th.A.at_slots with
     | None -> c "send/slot_held" false
     | Some ep ->
       let pre_e = Imap.find ep pre.A.endpoints in
       (match ret with
        | Syscall.Runit ->
          (* immediate rendezvous with a waiting receiver *)
          (match pre_e.A.ae_recv_queue with
           | [] -> c "send/receiver_was_waiting" false
           | receiver :: rest ->
             let touched_edpts =
               match msg.Message.endpoint with
               | Some g ->
                 (match List.assoc_opt g.Message.src_slot pre_th.A.at_slots with
                  | Some ep2 -> Iset.of_list [ ep; ep2 ]
                  | None -> Iset.singleton ep)
               | None -> Iset.singleton ep
             in
             let q, cur, running =
               sched_after_rendezvous pre ~caller:thread ~partner:receiver
             in
             let touched_threads =
               Iset.of_list
                 (thread :: receiver
                  :: (match running with Some w -> [ w ] | None -> []))
             in
             c "send/receiver_dequeued"
               (match Imap.find_opt ep post.A.endpoints with
                | Some e' ->
                  e'.A.ae_recv_queue = rest
                  && e'.A.ae_send_queue = pre_e.A.ae_send_queue
                  && e'.A.ae_refcount >= pre_e.A.ae_refcount
                | None -> false)
             @& c "send/receiver_woken"
                  (match Imap.find_opt receiver post.A.threads with
                   | Some r ->
                     Thread.equal_sched_state r.A.at_state
                       (if cur = Some receiver then Thread.Running else Thread.Runnable)
                     && (match r.A.at_msg with Some m -> eq_msg m msg | None -> false)
                   | None -> false)
             @& c "send/sched_evolution" (post.A.run_queue = q && post.A.current = cur)
             @& c "send/next_running"
                  (match running with
                   | None -> true
                   | Some w when w = receiver -> true
                   | Some w ->
                     (match Imap.find_opt w post.A.threads with
                      | Some wt -> Thread.equal_sched_state wt.A.at_state Thread.Running
                      | None -> false))
             @& c "send/sender_evolution"
                  (match Imap.find_opt thread post.A.threads with
                   | Some s ->
                     A.equal_athread s
                       { pre_th with
                         A.at_state =
                           (if pre.A.current = Some thread then Thread.Runnable
                            else pre_th.A.at_state);
                       }
                   | None -> false)
             @& grant_clauses ~pre ~post ~sender:thread ~receiver ~msg
                  ~rendezvous:(ep, { pre_e with A.ae_recv_queue = rest })
             @& c "send/threads_frame"
                  (A.threads_unchanged_except pre post touched_threads)
             @& c "send/endpoints_frame" (A.endpoints_unchanged_except pre post touched_edpts)
             @& c "send/devices_unchanged" (A.devices_unchanged_except pre post Iset.empty))
        | Syscall.Rblocked ->
          let q, cur, woken = sched_after_detach pre ~caller:thread ~requeue_caller:false in
          c "send/no_receiver" (pre_e.A.ae_recv_queue = [])
          @& c "send/sender_blocked"
               (match Imap.find_opt thread post.A.threads with
                | Some s ->
                  Thread.equal_sched_state s.A.at_state (Thread.Blocked_send ep)
                  && (match s.A.at_msg with Some m -> eq_msg m msg | None -> false)
                  && eq_slots s.A.at_slots pre_th.A.at_slots
                | None -> false)
          @& c "send/queued"
               (match Imap.find_opt ep post.A.endpoints with
                | Some e' ->
                  A.equal_aendpoint e'
                    { pre_e with A.ae_send_queue = pre_e.A.ae_send_queue @ [ thread ] }
                | None -> false)
          @& c "send/sched_evolution"
               (post.A.run_queue = q && post.A.current = cur
                &&
                match woken with
                | None -> true
                | Some w ->
                  (match Imap.find_opt w post.A.threads with
                   | Some wt -> Thread.equal_sched_state wt.A.at_state Thread.Running
                   | None -> false))
          @& unchanged_bundle
               ~threads:
                 (Iset.of_list (thread :: (match woken with Some w -> [ w ] | None -> [])))
               ~edpts:(Iset.singleton ep) ~sched:true pre post
        | _ -> c "send/ret_shape" false))

let spec_recv ~(pre : A.t) ~(post : A.t) ~thread ~slot (ret : Syscall.ret) : ck =
  match caller_context pre ~thread with
  | None -> c "recv/caller_alive" false
  | Some (pre_th, _, _, _) ->
    (match List.assoc_opt slot pre_th.A.at_slots with
     | None -> c "recv/slot_held" false
     | Some ep ->
       let pre_e = Imap.find ep pre.A.endpoints in
       (match ret with
        | Syscall.Rmsg msg when pre_e.A.ae_send_queue = [] ->
          (* interrupt delivery: a pending irq routed to this endpoint is
             consumed instead of blocking *)
          (match
             Imap.fold
               (fun device (d : A.adevice) acc ->
                 match acc with
                 | Some _ -> acc
                 | None ->
                   if d.A.ad_irq_endpoint = Some ep && d.A.ad_irq_pending > 0 then
                     Some (device, d)
                   else None)
               pre.A.devices None
           with
           | None -> c "recv/sender_or_irq_was_waiting" false
           | Some (device, d0) ->
             c "recv/irq_msg_shape"
               (msg.Message.scalars = [ device ] && msg.Message.page = None
                && msg.Message.endpoint = None)
             @& c "recv/irq_pending_consumed"
                  (match Imap.find_opt device post.A.devices with
                   | Some d1 ->
                     A.equal_adevice d1
                       { d0 with A.ad_irq_pending = d0.A.ad_irq_pending - 1 }
                   | None -> false)
             @& c "recv/irq_caller_carries_msg"
                  (match Imap.find_opt thread post.A.threads with
                   | Some r ->
                     Thread.equal_sched_state r.A.at_state pre_th.A.at_state
                     && (match r.A.at_msg with Some m -> eq_msg m msg | None -> false)
                   | None -> false)
             @& c "recv/irq_devices_frame"
                  (A.devices_unchanged_except pre post (Iset.singleton device))
             @& unchanged_bundle ~threads:(Iset.singleton thread) ~devices:true pre post)
        | Syscall.Rmsg msg ->
          (match pre_e.A.ae_send_queue with
           | [] -> c "recv/sender_was_waiting" false
           | sender :: rest ->
             let s_pre = Imap.find sender pre.A.threads in
             let touched_edpts =
               match msg.Message.endpoint with
               | Some g ->
                 (match List.assoc_opt g.Message.src_slot s_pre.A.at_slots with
                  | Some ep2 -> Iset.of_list [ ep; ep2 ]
                  | None -> Iset.singleton ep)
               | None -> Iset.singleton ep
             in
             let q, cur, running =
               sched_after_rendezvous pre ~caller:thread ~partner:sender
             in
             let touched_threads =
               Iset.of_list
                 (thread :: sender
                  :: (match running with Some w -> [ w ] | None -> []))
             in
             c "recv/msg_is_senders"
               (match s_pre.A.at_msg with Some m -> eq_msg m msg | None -> false)
             @& c "recv/sender_dequeued"
                  (match Imap.find_opt ep post.A.endpoints with
                   | Some e' ->
                     e'.A.ae_send_queue = rest
                     && e'.A.ae_recv_queue = pre_e.A.ae_recv_queue
                     && e'.A.ae_refcount >= pre_e.A.ae_refcount
                   | None -> false)
             @& c "recv/sender_woken"
                  (match Imap.find_opt sender post.A.threads with
                   | Some s ->
                     Thread.equal_sched_state s.A.at_state
                       (if cur = Some sender then Thread.Running else Thread.Runnable)
                     && s.A.at_msg = None
                   | None -> false)
             @& c "recv/sched_evolution" (post.A.run_queue = q && post.A.current = cur)
             @& c "recv/next_running"
                  (match running with
                   | None -> true
                   | Some w when w = sender -> true
                   | Some w ->
                     (match Imap.find_opt w post.A.threads with
                      | Some wt -> Thread.equal_sched_state wt.A.at_state Thread.Running
                      | None -> false))
             @& c "recv/caller_carries_msg"
                  (match Imap.find_opt thread post.A.threads with
                   | Some r ->
                     Thread.equal_sched_state r.A.at_state
                       (if pre.A.current = Some thread then Thread.Runnable
                        else pre_th.A.at_state)
                     && (match r.A.at_msg with Some m -> eq_msg m msg | None -> false)
                   | None -> false)
             @& grant_clauses ~pre ~post ~sender ~receiver:thread ~msg
                  ~rendezvous:(ep, { pre_e with A.ae_send_queue = rest })
             @& c "recv/threads_frame"
                  (A.threads_unchanged_except pre post touched_threads)
             @& c "recv/endpoints_frame" (A.endpoints_unchanged_except pre post touched_edpts)
             @& c "recv/devices_unchanged" (A.devices_unchanged_except pre post Iset.empty))
        | Syscall.Rblocked ->
          let q, cur, woken = sched_after_detach pre ~caller:thread ~requeue_caller:false in
          c "recv/no_sender" (pre_e.A.ae_send_queue = [])
          @& c "recv/caller_blocked"
               (match Imap.find_opt thread post.A.threads with
                | Some r ->
                  Thread.equal_sched_state r.A.at_state (Thread.Blocked_recv ep)
                  && r.A.at_msg = None
                  && eq_slots r.A.at_slots pre_th.A.at_slots
                | None -> false)
          @& c "recv/queued"
               (match Imap.find_opt ep post.A.endpoints with
                | Some e' ->
                  A.equal_aendpoint e'
                    { pre_e with A.ae_recv_queue = pre_e.A.ae_recv_queue @ [ thread ] }
                | None -> false)
          @& c "recv/sched_evolution"
               (post.A.run_queue = q && post.A.current = cur
                &&
                match woken with
                | None -> true
                | Some w ->
                  (match Imap.find_opt w post.A.threads with
                   | Some wt -> Thread.equal_sched_state wt.A.at_state Thread.Running
                   | None -> false))
          @& unchanged_bundle
               ~threads:
                 (Iset.of_list (thread :: (match woken with Some w -> [ w ] | None -> [])))
               ~edpts:(Iset.singleton ep) ~sched:true pre post
        | _ -> c "recv/ret_shape" false))

let spec_recv_reject ~(pre : A.t) ~(post : A.t) ~thread ~slot : ck =
  match caller_context pre ~thread with
  | None -> c "recv_reject/caller_alive" false
  | Some (pre_th, _, _, _) ->
    (match List.assoc_opt slot pre_th.A.at_slots with
     | None -> c "recv_reject/slot_held" false
     | Some ep ->
       let pre_e = Imap.find ep pre.A.endpoints in
       (match pre_e.A.ae_send_queue with
        | [] -> c "recv_reject/sender_was_waiting" false
        | sender :: rest ->
          let s_pre = Imap.find sender pre.A.threads in
          c "recv_reject/sender_dequeued"
            (match Imap.find_opt ep post.A.endpoints with
             | Some e' -> A.equal_aendpoint e' { pre_e with A.ae_send_queue = rest }
             | None -> false)
          @& c "recv_reject/sender_woken"
               (match Imap.find_opt sender post.A.threads with
                | Some s ->
                  A.equal_athread s
                    { s_pre with A.at_state = Thread.Runnable; at_msg = None }
                | None -> false)
          @& c "recv_reject/sender_enqueued" (post.A.run_queue = pre.A.run_queue @ [ sender ])
          @& c "recv_reject/current_unchanged" (pre.A.current = post.A.current)
          @& unchanged_bundle ~threads:(Iset.singleton sender) ~edpts:(Iset.singleton ep)
               ~sched:true pre post))

let spec_yield ~(pre : A.t) ~(post : A.t) ~thread : ck =
  match Imap.find_opt thread pre.A.threads with
  | None -> c "yield/caller_alive" false
  | Some pre_th ->
    (match pre_th.A.at_state with
     | Thread.Running ->
       let q, cur, _ = sched_after_detach pre ~caller:thread ~requeue_caller:true in
       let touched =
         Iset.of_list (thread :: (match cur with Some w -> [ w ] | None -> []))
       in
       c "yield/sched_evolution" (post.A.run_queue = q && post.A.current = cur)
       @& c "yield/next_running"
            (match cur with
             | None -> true
             | Some w ->
               (match Imap.find_opt w post.A.threads with
                | Some wt -> Thread.equal_sched_state wt.A.at_state Thread.Running
                | None -> false))
       @& c "yield/caller_state"
            (match Imap.find_opt thread post.A.threads with
             | Some t ->
               if cur = Some thread then
                 Thread.equal_sched_state t.A.at_state Thread.Running
               else Thread.equal_sched_state t.A.at_state Thread.Runnable
             | None -> false)
       @& unchanged_bundle ~threads:touched ~sched:true pre post
     | Thread.Runnable -> c "yield/noop" (A.equal pre post)
     | Thread.Blocked_send _ | Thread.Blocked_recv _ -> c "yield/caller_not_blocked" false)

(* shared machinery for the two termination calls *)
let termination_sets (pre : A.t) ~dead_cntrs ~root_procs =
  (* dead processes: those owned by dead containers plus the given
     process subtrees (children closure computed from the abstract
     state) *)
  let rec close_procs frontier acc =
    match frontier with
    | [] -> acc
    | p :: rest ->
      if Iset.mem p acc then close_procs rest acc
      else
        let acc = Iset.add p acc in
        (match Imap.find_opt p pre.A.procs with
         | Some pr -> close_procs (pr.A.ap_children @ rest) acc
         | None -> close_procs rest acc)
  in
  let owned_by_dead =
    Imap.fold
      (fun p (pr : A.aproc) acc ->
        if Iset.mem pr.A.ap_owner_container dead_cntrs then p :: acc else acc)
      pre.A.procs []
  in
  let dead_procs = close_procs (owned_by_dead @ root_procs) Iset.empty in
  let dead_threads =
    Imap.fold
      (fun th (t : A.athread) acc ->
        if Iset.mem t.A.at_owner_proc dead_procs then Iset.add th acc else acc)
      pre.A.threads Iset.empty
  in
  (* reference drops per endpoint from dying threads' descriptor tables *)
  let dropped = Hashtbl.create 16 in
  Iset.iter
    (fun th ->
      let t = Imap.find th pre.A.threads in
      List.iter
        (fun (_, ep) ->
          Hashtbl.replace dropped ep
            (1 + Option.value ~default:0 (Hashtbl.find_opt dropped ep)))
        t.A.at_slots)
    dead_threads;
  let dead_endpoints =
    Imap.fold
      (fun ep (e : A.aendpoint) acc ->
        let drops = Option.value ~default:0 (Hashtbl.find_opt dropped ep) in
        if e.A.ae_refcount - drops <= 0 then Iset.add ep acc else acc)
      pre.A.endpoints Iset.empty
  in
  (dead_procs, dead_threads, dead_endpoints, dropped)

let dead_pages (pre : A.t) ~dead_cntrs ~dead_procs ~dead_threads ~dead_endpoints =
  let pt_pages =
    Iset.fold
      (fun p acc ->
        match Imap.find_opt p pre.A.procs with
        | Some pr -> Iset.union acc pr.A.ap_pt_pages
        | None -> acc)
      dead_procs Iset.empty
  in
  (* IOMMU tables of devices whose owner dies are freed with them *)
  let io_pages =
    Imap.fold
      (fun _ (d : A.adevice) acc ->
        if Iset.mem d.A.ad_owner_proc dead_procs then Iset.union acc d.A.ad_pt_pages
        else acc)
      pre.A.devices Iset.empty
  in
  Iset.union_list [ dead_cntrs; dead_procs; dead_threads; dead_endpoints; pt_pages; io_pages ]

let termination_common_clauses ~(pre : A.t) ~(post : A.t) ~dead_cntrs ~dead_procs
    ~dead_threads ~dead_endpoints : ck =
  c "terminate/containers_gone"
    (Iset.equal (Imap.dom post.A.containers) (Iset.diff (Imap.dom pre.A.containers) dead_cntrs))
  @& c "terminate/procs_gone"
       (Iset.equal (Imap.dom post.A.procs) (Iset.diff (Imap.dom pre.A.procs) dead_procs))
  @& c "terminate/threads_gone"
       (Iset.equal (Imap.dom post.A.threads) (Iset.diff (Imap.dom pre.A.threads) dead_threads))
  @& c "terminate/endpoints_gone"
       (Iset.equal (Imap.dom post.A.endpoints)
          (Iset.diff (Imap.dom pre.A.endpoints) dead_endpoints))
  @& c "terminate/pages_released"
       (Iset.equal post.A.allocated
          (Iset.diff pre.A.allocated
             (dead_pages pre ~dead_cntrs ~dead_procs ~dead_threads ~dead_endpoints)))
  @& c "terminate/mapped_evolution" (Iset.equal post.A.mapped (all_mapped_heads post))
  @& c "terminate/run_queue"
       (post.A.run_queue = List.filter (fun th -> not (Iset.mem th dead_threads)) pre.A.run_queue)
  @& c "terminate/current"
       (post.A.current
        = (match pre.A.current with
           | Some cth when Iset.mem cth dead_threads -> None
           | other -> other))
  @& c "terminate/devices"
       (Imap.equal A.equal_adevice post.A.devices
          (Imap.filter
             (fun _ (d : A.adevice) -> not (Iset.mem d.A.ad_owner_proc dead_procs))
             pre.A.devices
           |> Imap.map (fun (d : A.adevice) ->
                  match d.A.ad_irq_endpoint with
                  | Some ep when Iset.mem ep dead_endpoints ->
                    { d with A.ad_irq_endpoint = None; ad_irq_pending = 0 }
                  | Some _ | None -> d)))
  (* surviving threads keep their state except queue removals never
     apply to them (their slots may still reference surviving
     endpoints, whose refcounts already account for the drops) *)
  @& c "terminate/surviving_threads_unchanged"
       (Imap.for_all
          (fun th (t : A.athread) ->
            match Imap.find_opt th pre.A.threads with
            | Some t0 -> A.equal_athread t t0
            | None -> false)
          post.A.threads)

let spec_terminate_container ~(pre : A.t) ~(post : A.t) ~thread ~container : ck =
  match caller_context pre ~thread with
  | None -> c "terminate_container/caller_alive" false
  | Some (_, _, _, caller_cntr) ->
    (match Imap.find_opt container pre.A.containers with
     | None -> c "terminate_container/target_alive" false
     | Some victim ->
       let caller_c = Imap.find caller_cntr pre.A.containers in
       let dead_cntrs = Iset.add container victim.A.ac_subtree in
       let dead_procs, dead_threads, dead_endpoints, _ =
         termination_sets pre ~dead_cntrs ~root_procs:[]
       in
       let parent = Option.value ~default:(-1) victim.A.ac_parent in
       (* endpoints owned inside the subtree that survive are harvested *)
       let harvested =
         Imap.fold
           (fun ep (e : A.aendpoint) acc ->
             if Iset.mem e.A.ae_owner_container dead_cntrs && not (Iset.mem ep dead_endpoints)
             then Iset.add ep acc
             else acc)
           pre.A.endpoints Iset.empty
       in
       c "terminate_container/capability" (Iset.mem container caller_c.A.ac_subtree)
       @& termination_common_clauses ~pre ~post ~dead_cntrs ~dead_procs ~dead_threads
            ~dead_endpoints
       @& c "terminate_container/harvested_reowned"
            (Iset.for_all
               (fun ep ->
                 match Imap.find_opt ep post.A.endpoints with
                 | Some e -> e.A.ae_owner_container = parent
                 | None -> false)
               harvested)
       @& (match Imap.find_opt parent post.A.containers with
           | None -> c "terminate_container/parent_survives" false
           | Some p ->
             let p0 = Imap.find parent pre.A.containers in
             c "terminate_container/parent_update"
               (p.A.ac_children = List.filter (fun x -> x <> container) p0.A.ac_children
                && p.A.ac_delegated = p0.A.ac_delegated - victim.A.ac_quota
                && Iset.equal p.A.ac_subtree (Iset.diff p0.A.ac_subtree dead_cntrs)
                && p.A.ac_quota = p0.A.ac_quota))
       @& c "terminate_container/ancestors_shrunk"
            (List.for_all
               (fun anc ->
                 match (Imap.find_opt anc pre.A.containers, Imap.find_opt anc post.A.containers) with
                 | Some a0, Some a1 ->
                   Iset.equal a1.A.ac_subtree (Iset.diff a0.A.ac_subtree dead_cntrs)
                 | _ -> false)
               victim.A.ac_path))

let spec_terminate_process ~(pre : A.t) ~(post : A.t) ~thread ~proc : ck =
  match caller_context pre ~thread with
  | None -> c "terminate_process/caller_alive" false
  | Some (_, caller_proc, _, _) ->
    (match Imap.find_opt proc pre.A.procs with
     | None -> c "terminate_process/target_alive" false
     | Some victim ->
       let dead_procs, dead_threads, dead_endpoints, _ =
         termination_sets pre ~dead_cntrs:Iset.empty ~root_procs:[ proc ]
       in
       (* capability: the victim descends from the caller's process *)
       let rec descends p fuel =
         fuel > 0
         &&
         match Imap.find_opt p pre.A.procs with
         | Some pr ->
           (match pr.A.ap_parent with
            | Some par -> par = caller_proc || descends par (fuel - 1)
            | None -> false)
         | None -> false
       in
       c "terminate_process/capability" (descends proc (Imap.cardinal pre.A.procs))
       @& c "terminate_process/containers_survive"
            (Iset.equal (Imap.dom pre.A.containers) (Imap.dom post.A.containers))
       @& termination_common_clauses ~pre ~post ~dead_cntrs:Iset.empty ~dead_procs
            ~dead_threads ~dead_endpoints
       @& c "terminate_process/parent_children"
            (match victim.A.ap_parent with
             | None -> true
             | Some par ->
               (match (Imap.find_opt par pre.A.procs, Imap.find_opt par post.A.procs) with
                | Some p0, Some p1 ->
                  p1.A.ap_children = List.filter (fun x -> x <> proc) p0.A.ap_children
                | _ -> false)))

let spec_assign_device ~(pre : A.t) ~(post : A.t) ~thread ~device : ck =
  match caller_context pre ~thread with
  | None -> c "assign_device/caller_alive" false
  | Some (_, proc, _, cntr) ->
    let new_pages = Iset.diff post.A.allocated pre.A.allocated in
    c "assign_device/was_unassigned" (not (Imap.mem device pre.A.devices))
    @& c "assign_device/one_table_page"
         (Iset.cardinal new_pages = 1 && Iset.for_all (A.page_is_free pre) new_pages)
    @& c "assign_device/installed"
         (match Imap.find_opt device post.A.devices with
          | Some d ->
            d.A.ad_owner_proc = proc
            && Imap.is_empty d.A.ad_io_space
            && Iset.equal d.A.ad_pt_pages new_pages
          | None -> false)
    @& c "assign_device/devices_frame"
         (A.devices_unchanged_except pre post (Iset.singleton device))
    @& c "assign_device/free_drop" (free_frame_total pre - free_frame_total post = 1)
    @& c "assign_device/mapped_unchanged" (Iset.equal pre.A.mapped post.A.mapped)
    @& (match Imap.find_opt cntr pre.A.containers with
        | None -> c "assign_device/container_alive" false
        | Some cc -> container_is post cntr { cc with A.ac_used = cc.A.ac_used + 1 })
    @& unchanged_bundle ~cntrs:(Iset.singleton cntr) ~devices:true ~memory:true pre post

let spec_io_map ~(pre : A.t) ~(post : A.t) ~thread ~device ~iova ~va : ck =
  match caller_context pre ~thread with
  | None -> c "io_map/caller_alive" false
  | Some (_, proc, pre_p, cntr) ->
    (match (Imap.find_opt device pre.A.devices, Imap.find_opt device post.A.devices) with
     | Some d0, Some d1 ->
       let new_tables = Iset.diff d1.A.ad_pt_pages d0.A.ad_pt_pages in
       let n_tables = Iset.cardinal new_tables in
       c "io_map/capability" (d0.A.ad_owner_proc = proc)
       @& c "io_map/source_mapped"
            (match Imap.find_opt va pre_p.A.ap_space with
             | Some e ->
               Page_state.equal_size e.Page_table.size Page_state.S4k
               && (match Imap.find_opt iova d1.A.ad_io_space with
                   | Some e' -> Page_table.equal_entry e' e
                   | None -> false)
             | None -> false)
       @& c "io_map/was_unmapped" (not (Imap.mem iova d0.A.ad_io_space))
       @& c "io_map/window_frame"
            (Imap.same_on_complement ~eq:Page_table.equal_entry d0.A.ad_io_space
               d1.A.ad_io_space (Iset.singleton iova))
       @& c "io_map/frame_stays_mapped" (Iset.equal pre.A.mapped post.A.mapped)
       @& c "io_map/tables_allocated"
            (Iset.equal post.A.allocated (Iset.union pre.A.allocated new_tables))
       @& c "io_map/free_drop" (free_frame_total pre - free_frame_total post = n_tables)
       @& (match Imap.find_opt cntr pre.A.containers with
           | None -> c "io_map/container_alive" false
           | Some cc ->
             container_is post cntr { cc with A.ac_used = cc.A.ac_used + 1 + n_tables })
       @& c "io_map/devices_frame"
            (A.devices_unchanged_except pre post (Iset.singleton device))
       @& unchanged_bundle ~cntrs:(Iset.singleton cntr) ~devices:true ~memory:true pre
            post
     | _ -> c "io_map/device_alive" false)

let spec_io_unmap ~(pre : A.t) ~(post : A.t) ~thread ~device ~iova : ck =
  match caller_context pre ~thread with
  | None -> c "io_unmap/caller_alive" false
  | Some (_, proc, _, cntr) ->
    (match (Imap.find_opt device pre.A.devices, Imap.find_opt device post.A.devices) with
     | Some d0, Some d1 ->
       (match Imap.find_opt iova d0.A.ad_io_space with
        | None -> c "io_unmap/was_mapped" false
        | Some e ->
          c "io_unmap/capability" (d0.A.ad_owner_proc = proc)
          @& c "io_unmap/now_unmapped" (not (Imap.mem iova d1.A.ad_io_space))
          @& c "io_unmap/window_frame"
               (Imap.same_on_complement ~eq:Page_table.equal_entry d0.A.ad_io_space
                  d1.A.ad_io_space (Iset.singleton iova))
          @& c "io_unmap/tables_kept" (Iset.equal d0.A.ad_pt_pages d1.A.ad_pt_pages)
          @& c "io_unmap/mapped_evolution" (Iset.equal post.A.mapped (all_mapped_heads post))
          @& c "io_unmap/allocated_unchanged" (Iset.equal pre.A.allocated post.A.allocated)
          @& c "io_unmap/free_growth"
               (free_frame_total post - free_frame_total pre
                = (if Iset.mem e.Page_table.frame post.A.mapped then 0 else 1))
          @& (match Imap.find_opt cntr pre.A.containers with
              | None -> c "io_unmap/container_alive" false
              | Some cc -> container_is post cntr { cc with A.ac_used = cc.A.ac_used - 1 })
          @& c "io_unmap/devices_frame"
               (A.devices_unchanged_except pre post (Iset.singleton device))
          @& unchanged_bundle ~cntrs:(Iset.singleton cntr) ~devices:true ~memory:true pre
               post)
     | _ -> c "io_unmap/device_alive" false)

let spec_register_irq ~(pre : A.t) ~(post : A.t) ~thread ~device ~slot : ck =
  match caller_context pre ~thread with
  | None -> c "register_irq/caller_alive" false
  | Some (pre_th, proc, _, _) ->
    (match (Imap.find_opt device pre.A.devices, Imap.find_opt device post.A.devices) with
     | Some d0, Some d1 ->
       c "register_irq/capability" (d0.A.ad_owner_proc = proc)
       @& c "register_irq/was_unrouted" (d0.A.ad_irq_endpoint = None)
       @& c "register_irq/slot_held"
            (match List.assoc_opt slot pre_th.A.at_slots with
             | Some ep -> d1.A.ad_irq_endpoint = Some ep
             | None -> false)
       @& c "register_irq/only_route_changed"
            (A.equal_adevice d1 { d0 with A.ad_irq_endpoint = d1.A.ad_irq_endpoint })
       @& c "register_irq/devices_frame"
            (A.devices_unchanged_except pre post (Iset.singleton device))
       @& unchanged_bundle ~devices:true pre post
     | _ -> c "register_irq/device_alive" false)

let spec_irq_fire ~(pre : A.t) ~(post : A.t) ~device : ck =
  match Imap.find_opt device pre.A.devices with
  | None -> c "irq_fire/spurious_dropped" (A.equal pre post)
  | Some d0 ->
    (match d0.A.ad_irq_endpoint with
     | None -> c "irq_fire/unrouted_dropped" (A.equal pre post)
     | Some ep ->
       let pre_e = Imap.find ep pre.A.endpoints in
       (match pre_e.A.ae_recv_queue with
        | receiver :: rest ->
          (* delivered like an immediate send of [device] *)
          c "irq_fire/receiver_dequeued"
            (match Imap.find_opt ep post.A.endpoints with
             | Some e' -> A.equal_aendpoint e' { pre_e with A.ae_recv_queue = rest }
             | None -> false)
          @& c "irq_fire/receiver_woken"
               (match Imap.find_opt receiver post.A.threads with
                | Some r ->
                  Thread.equal_sched_state r.A.at_state Thread.Runnable
                  && (match r.A.at_msg with
                      | Some m -> m.Message.scalars = [ device ] && m.Message.page = None
                                  && m.Message.endpoint = None
                      | None -> false)
                | None -> false)
          @& c "irq_fire/receiver_enqueued" (post.A.run_queue = pre.A.run_queue @ [ receiver ])
          @& c "irq_fire/current_unchanged" (pre.A.current = post.A.current)
          @& c "irq_fire/device_unchanged"
               (match Imap.find_opt device post.A.devices with
                | Some d1 -> A.equal_adevice d1 d0
                | None -> false)
          @& unchanged_bundle ~threads:(Iset.singleton receiver) ~edpts:(Iset.singleton ep)
               ~devices:true ~sched:true pre post
          @& c "irq_fire/devices_frame" (A.devices_unchanged_except pre post Iset.empty)
        | [] ->
          c "irq_fire/pended"
            (match Imap.find_opt device post.A.devices with
             | Some d1 ->
               A.equal_adevice d1 { d0 with A.ad_irq_pending = d0.A.ad_irq_pending + 1 }
             | None -> false)
          @& c "irq_fire/devices_frame"
               (A.devices_unchanged_except pre post (Iset.singleton device))
          @& unchanged_bundle ~devices:true pre post))

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)

let success_clauses ~pre ~post ~thread (call : Syscall.t) (ret : Syscall.ret) : ck =
  match (call, ret) with
  | Syscall.Mmap { va; count; size; perm }, Syscall.Rmapped frames ->
    spec_mmap ~pre ~post ~thread ~va ~count ~size ~perm frames
  | Syscall.Munmap { va; count; size }, Syscall.Runit ->
    spec_munmap ~pre ~post ~thread ~va ~count ~size
  | Syscall.Mprotect { va; perm }, Syscall.Runit -> spec_mprotect ~pre ~post ~thread ~va ~perm
  | Syscall.New_container { quota; cpus }, Syscall.Rptr child ->
    spec_new_container ~pre ~post ~thread ~quota ~cpus child
  | Syscall.New_process, Syscall.Rptr p -> spec_new_process ~pre ~post ~thread p
  | Syscall.New_thread, Syscall.Rptr th -> spec_new_thread ~pre ~post ~thread th
  | Syscall.New_endpoint { slot }, Syscall.Rptr ep ->
    spec_new_endpoint ~pre ~post ~thread ~slot ep
  | Syscall.Close_endpoint { slot }, Syscall.Runit ->
    spec_close_endpoint ~pre ~post ~thread ~slot
  | Syscall.Send { slot; msg }, ((Syscall.Runit | Syscall.Rblocked) as r) ->
    spec_send ~pre ~post ~thread ~slot ~msg r
  | Syscall.Recv { slot }, ((Syscall.Rmsg _ | Syscall.Rblocked) as r) ->
    spec_recv ~pre ~post ~thread ~slot r
  | Syscall.Send_nb { slot; msg }, (Syscall.Runit as r) ->
    (* success of a non-blocking send is exactly the immediate-transfer
       case of send; the would-block case is an atomic error *)
    spec_send ~pre ~post ~thread ~slot ~msg r
  | Syscall.Recv_nb { slot }, (Syscall.Rmsg _ as r) -> spec_recv ~pre ~post ~thread ~slot r
  | Syscall.Recv_reject { slot }, Syscall.Runit -> spec_recv_reject ~pre ~post ~thread ~slot
  | Syscall.Yield, Syscall.Runit -> spec_yield ~pre ~post ~thread
  | Syscall.Terminate_container { container }, Syscall.Runit ->
    spec_terminate_container ~pre ~post ~thread ~container
  | Syscall.Terminate_process { proc }, Syscall.Runit ->
    spec_terminate_process ~pre ~post ~thread ~proc
  | Syscall.Assign_device { device }, Syscall.Runit ->
    spec_assign_device ~pre ~post ~thread ~device
  | Syscall.Io_map { device; iova; va }, Syscall.Runit ->
    spec_io_map ~pre ~post ~thread ~device ~iova ~va
  | Syscall.Io_unmap { device; iova }, Syscall.Runit ->
    spec_io_unmap ~pre ~post ~thread ~device ~iova
  | Syscall.Register_irq { device; slot }, Syscall.Runit ->
    spec_register_irq ~pre ~post ~thread ~device ~slot
  | Syscall.Irq_fire { device }, Syscall.Runit -> spec_irq_fire ~pre ~post ~device
  | _, _ -> c "ret_shape" false

(* A step that wrote no allocator state leaves α's six sets shared. *)
let conserved (pre : A.t) (post : A.t) =
  (pre.A.free_4k == post.A.free_4k && pre.A.free_2m == post.A.free_2m
   && pre.A.free_1g == post.A.free_1g && pre.A.allocated == post.A.allocated
   && pre.A.mapped == post.A.mapped && pre.A.merged == post.A.merged)
  || accounted pre = accounted post

let clauses ~pre ~post ~thread call ret : ck =
  let universal = c "conserved_frames" (conserved pre post) in
  match ret with
  | Syscall.Rerr _ -> universal @& c "error_atomic" (A.equal pre post)
  | _ -> universal @& success_clauses ~pre ~post ~thread call ret

let check ~pre ~post ~thread call ret =
  let cs = clauses ~pre ~post ~thread call ret in
  match List.find_opt (fun (_, ok) -> not ok) cs with
  | None -> Ok ()
  | Some (name, _) ->
    Error (Printf.sprintf "%s: clause '%s' violated" (Syscall.name call) name)
