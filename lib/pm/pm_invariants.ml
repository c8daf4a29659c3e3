open Atmo_util
module Page_table = Atmo_pt.Page_table

module V = Violation

(* Each check below is an enumerator: it hands every violation it finds
   to the sink [v], first-failure order first.  A check that finds a
   structure too broken for its later clauses to mean anything stops
   there. *)

let containers_wf (pm : Proc_mgr.t) v =
  Perm_map.iter
    (fun ptr c -> if not (Container.wf c) then V.report v V.Ill_formed ptr "container 0x%x not wf" ptr)
    pm.Proc_mgr.cntr_perms

(* prefix of length d of a list *)
let rec prefix d = function
  | _ when d = 0 -> []
  | [] -> []
  | x :: rest -> x :: prefix (d - 1) rest

let path_wf (pm : Proc_mgr.t) v =
  Perm_map.iter
    (fun ptr (c : Container.t) ->
      List.iteri
        (fun d anc ->
          match Perm_map.borrow_opt pm.Proc_mgr.cntr_perms ~ptr:anc with
          | None -> V.report v V.Ill_formed ptr "path of 0x%x names dead container 0x%x" ptr anc
          | Some a ->
            if a.Container.path <> prefix d c.Container.path then
              V.report v V.Ill_formed ptr
                "path prefix of 0x%x at depth %d differs from path of 0x%x" ptr d anc)
        c.Container.path)
    pm.Proc_mgr.cntr_perms

let parent_child_wf (pm : Proc_mgr.t) v =
  let cntrs = pm.Proc_mgr.cntr_perms in
  Perm_map.iter
    (fun ptr (c : Container.t) ->
      (match c.Container.parent with
       | None ->
         if ptr <> pm.Proc_mgr.root_container then
           V.report v V.Ill_formed ptr "0x%x has no parent but is not the root" ptr
         else if c.Container.path <> [] then V.report v V.Ill_formed ptr "root has non-empty path"
       | Some parent ->
         (match Perm_map.borrow_opt cntrs ~ptr:parent with
          | None -> V.report v V.Ill_formed ptr "parent 0x%x of 0x%x is dead" parent ptr
          | Some p ->
            if not (Static_list.mem p.Container.children ~eq:( = ) ptr) then
              V.report v V.Ill_formed ptr "0x%x missing from children of its parent 0x%x" ptr
                parent
            else if
              not
                (c.Container.path <> []
                && List.nth c.Container.path (c.Container.depth - 1) = parent)
            then V.report v V.Ill_formed ptr "last path element of 0x%x is not its parent" ptr));
      (* every listed child acknowledges us *)
      List.iter
        (fun child ->
          match Perm_map.borrow_opt cntrs ~ptr:child with
          | None -> V.report v V.Ill_formed ptr "child 0x%x of 0x%x is dead" child ptr
          | Some ch ->
            if ch.Container.parent <> Some ptr then
              V.report v V.Ill_formed ptr "child 0x%x does not point back at 0x%x" child ptr)
        (Static_list.to_list c.Container.children))
    cntrs

let subtree_wf (pm : Proc_mgr.t) v =
  let cntrs = pm.Proc_mgr.cntr_perms in
  (* direction 1: membership in a subtree implies ancestry via path *)
  Perm_map.iter
    (fun ptr (c : Container.t) ->
      Iset.iter
        (fun d ->
          match Perm_map.borrow_opt cntrs ~ptr:d with
          | None -> V.report v V.Ill_formed ptr "subtree of 0x%x contains dead container 0x%x" ptr d
          | Some dc ->
            if not (List.mem ptr dc.Container.path) then
              V.report v V.Ill_formed ptr "0x%x in subtree of 0x%x but 0x%x not on its path" d ptr
                ptr)
        c.Container.subtree)
    cntrs;
  (* direction 2: ancestry via path implies subtree membership *)
  Perm_map.iter
    (fun ptr (c : Container.t) ->
      List.iter
        (fun anc ->
          match Perm_map.borrow_opt cntrs ~ptr:anc with
          | None -> V.report v V.Ill_formed ptr "path of 0x%x names dead container 0x%x" ptr anc
          | Some a ->
            if not (Iset.mem ptr a.Container.subtree) then
              V.report v V.Ill_formed ptr "0x%x on path of 0x%x but subtree misses it" anc ptr)
        c.Container.path)
    cntrs

let process_tree_wf (pm : Proc_mgr.t) v =
  Perm_map.iter
    (fun ptr (p : Process.t) ->
      if not (Process.wf p) then V.report v V.Ill_formed ptr "process 0x%x not wf" ptr;
      (match Perm_map.borrow_opt pm.Proc_mgr.cntr_perms ~ptr:p.Process.owner_container with
       | None -> V.report v V.Ill_formed ptr "process 0x%x owned by dead container" ptr
       | Some c ->
         if not (Static_list.mem c.Container.procs ~eq:( = ) ptr) then
           V.report v V.Ill_formed ptr "container 0x%x does not list process 0x%x"
             p.Process.owner_container ptr);
      (match p.Process.parent with
       | None -> ()
       | Some parent ->
         (match Perm_map.borrow_opt pm.Proc_mgr.proc_perms ~ptr:parent with
          | None -> V.report v V.Ill_formed ptr "parent process 0x%x of 0x%x is dead" parent ptr
          | Some pp ->
            if pp.Process.owner_container <> p.Process.owner_container then
              V.report v V.Ill_formed ptr
                "process 0x%x and its parent live in different containers" ptr
            else if not (Static_list.mem pp.Process.children ~eq:( = ) ptr) then
              V.report v V.Ill_formed ptr "parent 0x%x does not list child process 0x%x" parent
                ptr));
      List.iter
        (fun child ->
          match Perm_map.borrow_opt pm.Proc_mgr.proc_perms ~ptr:child with
          | None -> V.report v V.Ill_formed ptr "child process 0x%x of 0x%x is dead" child ptr
          | Some ch ->
            if ch.Process.parent <> Some ptr then
              V.report v V.Ill_formed ptr "child process 0x%x does not point back at 0x%x" child
                ptr)
        (Static_list.to_list p.Process.children);
      List.iter
        (fun th ->
          match Perm_map.borrow_opt pm.Proc_mgr.thrd_perms ~ptr:th with
          | None -> V.report v V.Ill_formed th "thread 0x%x of process 0x%x is dead" th ptr
          | Some thread ->
            if thread.Thread.owner_proc <> ptr then
              V.report v V.Ill_formed th "thread 0x%x does not point back at process 0x%x" th ptr)
        (Static_list.to_list p.Process.threads))
    pm.Proc_mgr.proc_perms;
  Perm_map.iter
    (fun ptr (th : Thread.t) ->
      if not (Thread.wf th) then V.report v V.Ill_formed ptr "thread 0x%x not wf" ptr;
      match Perm_map.borrow_opt pm.Proc_mgr.proc_perms ~ptr:th.Thread.owner_proc with
      | None -> V.report v V.Ill_formed ptr "thread 0x%x owned by dead process" ptr
      | Some p ->
        if not (Static_list.mem p.Process.threads ~eq:( = ) ptr) then
          V.report v V.Ill_formed ptr "process 0x%x does not list thread 0x%x"
            th.Thread.owner_proc ptr)
    pm.Proc_mgr.thrd_perms

let scheduler_wf (pm : Proc_mgr.t) v =
  let n = Proc_mgr.sched_cpus pm in
  (* every per-CPU deque must be structurally sound before its contents
     mean anything (traversals agree, no cycles): a broken one ends the
     check *)
  let sound = ref true in
  for c = 0 to n - 1 do
    match Sched_queue.wf (Proc_mgr.queue pm ~cpu:c) with
    | Ok () -> ()
    | Error msg ->
      sound := false;
      V.report v V.Queue_corrupt (-1) "cpu %d run queue deque not wf: %s" c msg
  done;
  if !sound then begin
    (* the run queues contain only live, runnable threads, each once: a
       sound deque holds a thread at most once, so a duplicate sits in a
       later CPU's queue *)
    let rec queued_later th c =
      c < n && (Sched_queue.mem (Proc_mgr.queue pm ~cpu:c) th || queued_later th (c + 1))
    in
    for c = 0 to n - 1 do
      Sched_queue.iter (Proc_mgr.queue pm ~cpu:c) (fun th ->
          match Perm_map.borrow_opt pm.Proc_mgr.thrd_perms ~ptr:th with
          | None -> V.report v V.Sched_incoherent th "run queue contains dead thread 0x%x" th
          | Some thread ->
            if thread.Thread.state <> Thread.Runnable then
              V.report v V.Sched_incoherent th "run queue contains non-runnable thread 0x%x" th
            else if queued_later th (c + 1) then
              V.report v V.Queue_corrupt th "thread 0x%x queued more than once" th)
    done;
    Perm_map.iter
      (fun ptr (th : Thread.t) ->
        match th.Thread.state with
        | Thread.Runnable ->
          if not (Proc_mgr.queued_anywhere pm ~thread:ptr) then
            V.report v V.Sched_incoherent ptr "runnable thread 0x%x missing from every run queue"
              ptr
        | Thread.Running ->
          if Proc_mgr.cpu_of_current pm ~thread:ptr = None then
            V.report v V.Sched_incoherent ptr
              "thread 0x%x claims Running but is current on no CPU" ptr
        | Thread.Blocked_send e ->
          (match Perm_map.borrow_opt pm.Proc_mgr.edpt_perms ~ptr:e with
           | None ->
             V.report v V.Ill_formed ptr "thread 0x%x blocked sending on dead endpoint 0x%x" ptr e
           | Some ep ->
             if not (Static_list.mem ep.Endpoint.send_queue ~eq:( = ) ptr) then
               V.report v V.Ill_formed ptr "thread 0x%x not on send queue of 0x%x" ptr e)
        | Thread.Blocked_recv e ->
          (match Perm_map.borrow_opt pm.Proc_mgr.edpt_perms ~ptr:e with
           | None ->
             V.report v V.Ill_formed ptr "thread 0x%x blocked receiving on dead endpoint 0x%x" ptr
               e
           | Some ep ->
             if not (Static_list.mem ep.Endpoint.recv_queue ~eq:( = ) ptr) then
               V.report v V.Ill_formed ptr "thread 0x%x not on recv queue of 0x%x" ptr e))
      pm.Proc_mgr.thrd_perms;
    (* every CPU's current thread is alive, Running and in no run queue *)
    for c = 0 to n - 1 do
      match Proc_mgr.current_of pm ~cpu:c with
      | None -> ()
      | Some cur ->
        (match Perm_map.borrow_opt pm.Proc_mgr.thrd_perms ~ptr:cur with
         | None -> V.report v V.Sched_incoherent cur "cpu %d current thread 0x%x is dead" c cur
         | Some thread ->
           if thread.Thread.state <> Thread.Running then
             V.report v V.Sched_incoherent cur "cpu %d current thread 0x%x is %a, not Running" c
               cur Thread.pp_sched_state thread.Thread.state);
        if Proc_mgr.queued_anywhere pm ~thread:cur then
          V.report v V.Sched_incoherent cur "cpu %d current thread 0x%x sits in a run queue" c cur
    done;
    (* the steal ledger never outlives its threads: an entry naming a
       dead thread is a terminate that raced the steal *)
    List.iter
      (fun (thief, victim, th) ->
        if not (Perm_map.mem pm.Proc_mgr.thrd_perms ~ptr:th) then
          V.report v V.Lost_steal th
            "steal ledger entry (cpu %d stole from cpu %d) names dead thread 0x%x" thief victim th)
      (Proc_mgr.steal_ledger pm)
  end

let endpoints_wf (pm : Proc_mgr.t) v =
  (* count references from descriptor tables *)
  let refs = Hashtbl.create 16 in
  Perm_map.iter
    (fun _ th ->
      List.iter
        (fun (_, e) ->
          Hashtbl.replace refs e (1 + Option.value ~default:0 (Hashtbl.find_opt refs e)))
        (Thread.slots th))
    pm.Proc_mgr.thrd_perms;
  (* every slot names a live endpoint *)
  Perm_map.iter
    (fun ptr th ->
      List.iter
        (fun (i, e) ->
          if not (Perm_map.mem pm.Proc_mgr.edpt_perms ~ptr:e) then
            V.report v V.Ill_formed e "slot %d of thread 0x%x names dead endpoint 0x%x" i ptr e)
        (Thread.slots th))
    pm.Proc_mgr.thrd_perms;
  Perm_map.iter
    (fun ptr (e : Endpoint.t) ->
      if not (Endpoint.wf e) then V.report v V.Ill_formed ptr "endpoint 0x%x not wf" ptr;
      let expected = Option.value ~default:0 (Hashtbl.find_opt refs ptr) in
      if e.Endpoint.refcount <> expected then
        V.report v V.Ill_formed ptr "endpoint 0x%x refcount %d but %d slots name it" ptr
          e.Endpoint.refcount expected;
      (* an endpoint charged to a dead container leaks its page *)
      (match Perm_map.borrow_opt pm.Proc_mgr.cntr_perms ~ptr:e.Endpoint.owner_container with
       | None -> V.report v V.Leak ptr "endpoint 0x%x owned by dead container" ptr
       | Some _ -> ());
      let queue_ok which q blocked_on =
        List.iter
          (fun th ->
            match Perm_map.borrow_opt pm.Proc_mgr.thrd_perms ~ptr:th with
            | None -> V.report v V.Ill_formed ptr "%s queue of 0x%x holds dead thread 0x%x" which ptr th
            | Some thread ->
              if not (Thread.equal_sched_state thread.Thread.state (blocked_on ptr)) then
                V.report v V.Ill_formed ptr "%s queue of 0x%x holds thread 0x%x in state %a" which
                  ptr th Thread.pp_sched_state thread.Thread.state)
          (Static_list.to_list q)
      in
      queue_ok "send" e.Endpoint.send_queue (fun p -> Thread.Blocked_send p);
      queue_ok "recv" e.Endpoint.recv_queue (fun p -> Thread.Blocked_recv p))
    pm.Proc_mgr.edpt_perms

let quota_wf (pm : Proc_mgr.t) v =
  Perm_map.iter
    (fun ptr (c : Container.t) ->
      let real = Proc_mgr.used_by_container pm ~container:ptr in
      if c.Container.used <> real then
        V.report v V.Ill_formed ptr "container 0x%x charges used=%d but owns %d pages" ptr
          c.Container.used real;
      let delegated =
        List.fold_left
          (fun acc child ->
            acc + (Perm_map.borrow pm.Proc_mgr.cntr_perms ~ptr:child).Container.quota)
          0
          (Static_list.to_list c.Container.children)
      in
      if c.Container.delegated <> delegated then
        V.report v V.Ill_formed ptr "container 0x%x delegated=%d but children hold %d" ptr
          c.Container.delegated delegated)
    pm.Proc_mgr.cntr_perms

type 'st entry = {
  name : string;
  group : string;
  reads : string list;
  violations : 'st -> V.sink -> unit;
}

let cntr = Perm_map.id Proc_mgr.cntr_perms_name
let proc = Perm_map.id Proc_mgr.proc_perms_name
let thrd = Perm_map.id Proc_mgr.thrd_perms_name
let edpt = Perm_map.id Proc_mgr.edpt_perms_name

let pm name reads violations = { name; group = "pm"; reads; violations }

let table =
  [
    pm "pm/containers_wf" [ cntr ] containers_wf;
    pm "pm/path_wf" [ cntr ] path_wf;
    pm "pm/parent_child_wf" [ cntr ] parent_child_wf;
    pm "pm/subtree_wf" [ cntr ] subtree_wf;
    pm "pm/process_tree_wf" [ cntr; proc; thrd ] process_tree_wf;
    pm "pm/scheduler_wf" [ thrd; edpt ] scheduler_wf;
    pm "pm/endpoints_wf" [ thrd; edpt; cntr ] endpoints_wf;
    pm "pm/quota_wf"
      [ cntr; Perm_map.dom_id Proc_mgr.proc_perms_name;
        Perm_map.dom_id Proc_mgr.thrd_perms_name; edpt; Page_table.map_id ]
      quota_wf;
  ]

let check e = V.first e.violations
let all = V.first (fun pm v -> List.iter (fun e -> e.violations pm v) table)

(* The first-failure form of each check. *)
let containers_wf = V.first containers_wf
let path_wf = V.first path_wf
let parent_child_wf = V.first parent_child_wf
let subtree_wf = V.first subtree_wf
let process_tree_wf = V.first process_tree_wf
let scheduler_wf = V.first scheduler_wf
let endpoints_wf = V.first endpoints_wf
let quota_wf = V.first quota_wf
