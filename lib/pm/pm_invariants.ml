open Atmo_util
module Page_table = Atmo_pt.Page_table

module V = Violation

(* Each check below is an enumerator: it hands every violation it finds
   to the sink [v], first-failure order first.  A check that finds a
   structure too broken for its later clauses to mean anything stops
   there.

   Every check is a list of per-object clauses.  Run over [All] keys,
   each clause visits every object of its map in key order: that is the
   full enumerator.  Run over [Only] a scope, it visits just the
   scope's objects of that map: the keyed run of [table] below, which
   re-checks only the objects a step wrote and their neighbours. *)

(* Which objects a run visits: every key, or those of a scope. *)
type scope = {
  cntrs : Iset.t;
  procs : Iset.t;
  thrds : Iset.t;
  edpts : Iset.t;
  sched : bool;  (* the run queues, the per-CPU currents or the steal ledger moved *)
  slots : Iset.t Imap.t;  (* endpoint -> every [(thread lsl 4) lor slot] naming it *)
}

type keys = All | Only of scope

(* [f ptr v] at each key of [m] the run visits, in key order. *)
let visit only m keys f =
  match keys with
  | All -> Imap.iter f m
  | Only s ->
    Iset.iter (fun ptr -> match Imap.find_opt ptr m with Some v -> f ptr v | None -> ()) (only s)

let on_cntrs (pm : Proc_mgr.t) = visit (fun s -> s.cntrs) (Perm_map.map pm.Proc_mgr.cntr_perms)
let on_procs (pm : Proc_mgr.t) = visit (fun s -> s.procs) (Perm_map.map pm.Proc_mgr.proc_perms)
let on_thrds (pm : Proc_mgr.t) = visit (fun s -> s.thrds) (Perm_map.map pm.Proc_mgr.thrd_perms)
let on_edpts (pm : Proc_mgr.t) = visit (fun s -> s.edpts) (Perm_map.map pm.Proc_mgr.edpt_perms)

let containers_wf pm keys v =
  on_cntrs pm keys (fun ptr c ->
      if not (Container.wf c) then V.report v V.Ill_formed ptr "container 0x%x not wf" ptr)

(* prefix of length d of a list *)
let rec prefix d = function
  | _ when d = 0 -> []
  | [] -> []
  | x :: rest -> x :: prefix (d - 1) rest

let path_wf (pm : Proc_mgr.t) keys v =
  on_cntrs pm keys (fun ptr (c : Container.t) ->
      List.iteri
        (fun d anc ->
          match Perm_map.borrow_opt pm.Proc_mgr.cntr_perms ~ptr:anc with
          | None -> V.report v V.Ill_formed ptr "path of 0x%x names dead container 0x%x" ptr anc
          | Some a ->
            if a.Container.path <> prefix d c.Container.path then
              V.report v V.Ill_formed ptr
                "path prefix of 0x%x at depth %d differs from path of 0x%x" ptr d anc)
        c.Container.path)

let parent_child_wf (pm : Proc_mgr.t) keys v =
  let cntrs = pm.Proc_mgr.cntr_perms in
  on_cntrs pm keys (fun ptr (c : Container.t) ->
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

let subtree_wf (pm : Proc_mgr.t) keys v =
  let cntrs = pm.Proc_mgr.cntr_perms in
  (* direction 1: membership in a subtree implies ancestry via path *)
  on_cntrs pm keys (fun ptr (c : Container.t) ->
      Iset.iter
        (fun d ->
          match Perm_map.borrow_opt cntrs ~ptr:d with
          | None -> V.report v V.Ill_formed ptr "subtree of 0x%x contains dead container 0x%x" ptr d
          | Some dc ->
            if not (List.mem ptr dc.Container.path) then
              V.report v V.Ill_formed ptr "0x%x in subtree of 0x%x but 0x%x not on its path" d ptr
                ptr)
        c.Container.subtree);
  (* direction 2: ancestry via path implies subtree membership *)
  on_cntrs pm keys (fun ptr (c : Container.t) ->
      List.iter
        (fun anc ->
          match Perm_map.borrow_opt cntrs ~ptr:anc with
          | None -> V.report v V.Ill_formed ptr "path of 0x%x names dead container 0x%x" ptr anc
          | Some a ->
            if not (Iset.mem ptr a.Container.subtree) then
              V.report v V.Ill_formed ptr "0x%x on path of 0x%x but subtree misses it" anc ptr)
        c.Container.path)

let process_tree_wf (pm : Proc_mgr.t) keys v =
  on_procs pm keys (fun ptr (p : Process.t) ->
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
        (Static_list.to_list p.Process.threads));
  on_thrds pm keys (fun ptr (th : Thread.t) ->
      if not (Thread.wf th) then V.report v V.Ill_formed ptr "thread 0x%x not wf" ptr;
      match Perm_map.borrow_opt pm.Proc_mgr.proc_perms ~ptr:th.Thread.owner_proc with
      | None -> V.report v V.Ill_formed ptr "thread 0x%x owned by dead process" ptr
      | Some p ->
        if not (Static_list.mem p.Process.threads ~eq:( = ) ptr) then
          V.report v V.Ill_formed ptr "process 0x%x does not list thread 0x%x"
            th.Thread.owner_proc ptr)

(* The scheduler's clauses, one per CPU's deque, per queued thread, per
   thread, per CPU's current and per steal-ledger entry. *)

let deque_wf pm v c =
  match Sched_queue.wf (Proc_mgr.queue pm ~cpu:c) with
  | Ok () -> true
  | Error msg ->
    V.report v V.Queue_corrupt (-1) "cpu %d run queue deque not wf: %s" c msg;
    false

(* the run queues contain only live, runnable threads, each once: a
   sound deque holds a thread at most once, so a duplicate sits in a
   later CPU's queue *)
let queued_wf (pm : Proc_mgr.t) v c th =
  let n = Proc_mgr.sched_cpus pm in
  let rec queued_later th c =
    c < n && (Sched_queue.mem (Proc_mgr.queue pm ~cpu:c) th || queued_later th (c + 1))
  in
  match Perm_map.borrow_opt pm.Proc_mgr.thrd_perms ~ptr:th with
  | None -> V.report v V.Sched_incoherent th "run queue contains dead thread 0x%x" th
  | Some thread ->
    if thread.Thread.state <> Thread.Runnable then
      V.report v V.Sched_incoherent th "run queue contains non-runnable thread 0x%x" th
    else if queued_later th (c + 1) then
      V.report v V.Queue_corrupt th "thread 0x%x queued more than once" th

let thread_sched_wf (pm : Proc_mgr.t) v ptr (th : Thread.t) =
  match th.Thread.state with
  | Thread.Runnable ->
    if not (Proc_mgr.queued_anywhere pm ~thread:ptr) then
      V.report v V.Sched_incoherent ptr "runnable thread 0x%x missing from every run queue" ptr
  | Thread.Running ->
    if Proc_mgr.cpu_of_current pm ~thread:ptr = None then
      V.report v V.Sched_incoherent ptr "thread 0x%x claims Running but is current on no CPU" ptr
  | Thread.Blocked_send e ->
    (match Perm_map.borrow_opt pm.Proc_mgr.edpt_perms ~ptr:e with
     | None -> V.report v V.Ill_formed ptr "thread 0x%x blocked sending on dead endpoint 0x%x" ptr e
     | Some ep ->
       if not (Static_list.mem ep.Endpoint.send_queue ~eq:( = ) ptr) then
         V.report v V.Ill_formed ptr "thread 0x%x not on send queue of 0x%x" ptr e)
  | Thread.Blocked_recv e ->
    (match Perm_map.borrow_opt pm.Proc_mgr.edpt_perms ~ptr:e with
     | None ->
       V.report v V.Ill_formed ptr "thread 0x%x blocked receiving on dead endpoint 0x%x" ptr e
     | Some ep ->
       if not (Static_list.mem ep.Endpoint.recv_queue ~eq:( = ) ptr) then
         V.report v V.Ill_formed ptr "thread 0x%x not on recv queue of 0x%x" ptr e)

(* every CPU's current thread is alive, Running and in no run queue *)
let current_wf (pm : Proc_mgr.t) v c =
  match Proc_mgr.current_of pm ~cpu:c with
  | None -> ()
  | Some cur ->
    (match Perm_map.borrow_opt pm.Proc_mgr.thrd_perms ~ptr:cur with
     | None -> V.report v V.Sched_incoherent cur "cpu %d current thread 0x%x is dead" c cur
     | Some thread ->
       if thread.Thread.state <> Thread.Running then
         V.report v V.Sched_incoherent cur "cpu %d current thread 0x%x is %a, not Running" c cur
           Thread.pp_sched_state thread.Thread.state);
    if Proc_mgr.queued_anywhere pm ~thread:cur then
      V.report v V.Sched_incoherent cur "cpu %d current thread 0x%x sits in a run queue" c cur

(* the steal ledger never outlives its threads: an entry naming a dead
   thread is a terminate that raced the steal *)
let ledger_wf (pm : Proc_mgr.t) v (thief, victim, th) =
  if not (Perm_map.mem pm.Proc_mgr.thrd_perms ~ptr:th) then
    V.report v V.Lost_steal th "steal ledger entry (cpu %d stole from cpu %d) names dead thread 0x%x"
      thief victim th

let scheduler_wf (pm : Proc_mgr.t) keys v =
  let n = Proc_mgr.sched_cpus pm in
  match keys with
  | Only s when not s.sched ->
    (* the deques, currents and ledger are those of a clean run: only
       the written threads' own clauses can have changed *)
    Iset.iter
      (fun th ->
        for c = 0 to n - 1 do
          if Sched_queue.mem (Proc_mgr.queue pm ~cpu:c) th then queued_wf pm v c th
        done;
        Option.iter (thread_sched_wf pm v th) (Perm_map.borrow_opt pm.Proc_mgr.thrd_perms ~ptr:th);
        for c = 0 to n - 1 do
          if Proc_mgr.current_of pm ~cpu:c = Some th then current_wf pm v c
        done)
      s.thrds;
    List.iter
      (fun ((_, _, th) as entry) -> if Iset.mem th s.thrds then ledger_wf pm v entry)
      (Proc_mgr.steal_ledger pm)
  | All | Only _ ->
    (* every per-CPU deque must be structurally sound before its
       contents mean anything (traversals agree, no cycles): a broken
       one ends the check *)
    let sound = ref true in
    for c = 0 to n - 1 do
      if not (deque_wf pm v c) then sound := false
    done;
    if !sound then begin
      for c = 0 to n - 1 do
        Sched_queue.iter (Proc_mgr.queue pm ~cpu:c) (queued_wf pm v c)
      done;
      Perm_map.iter (thread_sched_wf pm v) pm.Proc_mgr.thrd_perms;
      for c = 0 to n - 1 do
        current_wf pm v c
      done;
      List.iter (ledger_wf pm v) (Proc_mgr.steal_ledger pm)
    end

(* The slots naming each endpoint: [(thread lsl 4) lor slot], so a
   thread naming an endpoint twice counts twice. *)
let slot_key th i = (th lsl 4) lor i

let add_slots ptr th index =
  List.fold_left
    (fun index (i, e) ->
      let s = Option.value ~default:Iset.empty (Imap.find_opt e index) in
      Imap.add e (Iset.add (slot_key ptr i) s) index)
    index (Thread.slots th)

let remove_slots ptr th index =
  List.fold_left
    (fun index (i, e) ->
      match Imap.find_opt e index with
      | None -> index
      | Some s ->
        let s = Iset.remove (slot_key ptr i) s in
        if Iset.is_empty s then Imap.remove e index else Imap.add e s index)
    index (Thread.slots th)

let endpoints_wf (pm : Proc_mgr.t) keys v =
  (* count references from descriptor tables *)
  let refs =
    match keys with
    | Only s -> fun e -> Option.fold ~none:0 ~some:Iset.cardinal (Imap.find_opt e s.slots)
    | All ->
      let refs = Hashtbl.create 16 in
      Perm_map.iter
        (fun _ th ->
          List.iter
            (fun (_, e) ->
              Hashtbl.replace refs e (1 + Option.value ~default:0 (Hashtbl.find_opt refs e)))
            (Thread.slots th))
        pm.Proc_mgr.thrd_perms;
      fun e -> Option.value ~default:0 (Hashtbl.find_opt refs e)
  in
  (* every slot names a live endpoint *)
  on_thrds pm keys (fun ptr th ->
      List.iter
        (fun (i, e) ->
          if not (Perm_map.mem pm.Proc_mgr.edpt_perms ~ptr:e) then
            V.report v V.Ill_formed e "slot %d of thread 0x%x names dead endpoint 0x%x" i ptr e)
        (Thread.slots th));
  on_edpts pm keys (fun ptr (e : Endpoint.t) ->
      if not (Endpoint.wf e) then V.report v V.Ill_formed ptr "endpoint 0x%x not wf" ptr;
      let expected = refs ptr in
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

let quota_wf (pm : Proc_mgr.t) keys v =
  on_cntrs pm keys (fun ptr (c : Container.t) ->
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

(* ------------------------------------------------------------------ *)
(* The keyed run                                                       *)

(* Everything a check reads, captured: the four maps (persistent
   values, so an unchanged one is the same value), each process's page
   table with its two ghost values ([quota_wf] counts them), each
   deque's write version, a copy of the per-CPU currents, the steal
   ledger and the external charges. *)
type input = {
  pm : Proc_mgr.t;
  cntrs : Container.t Imap.t;
  procs : Process.t Imap.t;
  thrds : Thread.t Imap.t;
  edpts : Endpoint.t Imap.t;
  tables : Page_table.ghost Imap.t;
  queues : Sched_queue.t array;
  versions : int array;
  currents : int option array;
  ledger : (int * int * int) list;
  external_used : int Imap.t;
  slots : Iset.t Imap.t;  (* the slot index of [thrds], as in [scope] *)
}

(* A top-level loop: a local one would allocate its closure per call. *)
let rec currents_from (pm : Proc_mgr.t) currents c =
  c = Array.length currents
  || (match (Proc_mgr.current_of pm ~cpu:c, currents.(c)) with
      | Some a, Some b -> a = b && currents_from pm currents (c + 1)
      | None, None -> currents_from pm currents (c + 1)
      | Some _, None | None, Some _ -> false)

let currents_equal (pm : Proc_mgr.t) currents =
  Array.length currents = Proc_mgr.sched_cpus pm && currents_from pm currents 0

let external_equal (pm : Proc_mgr.t) m =
  Hashtbl.length pm.Proc_mgr.external_used = Imap.cardinal m
  && Hashtbl.fold
       (fun c n ok -> ok && match Imap.find_opt c m with Some n' -> n = n' | None -> false)
       pm.Proc_mgr.external_used true

let sched_unchanged (pm : Proc_mgr.t) i =
  pm.Proc_mgr.queues == i.queues
  && Sched_queue.at_versions i.queues i.versions
  && currents_equal pm i.currents
  && Proc_mgr.steal_ledger pm == i.ledger

let unchanged (pm : Proc_mgr.t) i =
  Perm_map.map pm.Proc_mgr.cntr_perms == i.cntrs
  && Perm_map.map pm.Proc_mgr.proc_perms == i.procs
  && Perm_map.map pm.Proc_mgr.thrd_perms == i.thrds
  && Perm_map.map pm.Proc_mgr.edpt_perms == i.edpts
  && Imap.for_all (fun _ -> Page_table.ghost_unchanged) i.tables
  && sched_unchanged pm i
  && external_equal pm i.external_used

let update_slots old_thrds thrds index =
  Imap.fold_diff
    (fun ptr o n index ->
      let index = match o with Some th -> remove_slots ptr th index | None -> index in
      match n with Some th -> add_slots ptr th index | None -> index)
    old_thrds thrds index

(* The input now; the slot index is updated from [from]'s. *)
let capture ?from (pm : Proc_mgr.t) =
  let procs = Perm_map.map pm.Proc_mgr.proc_perms
  and thrds = Perm_map.map pm.Proc_mgr.thrd_perms in
  {
    pm;
    cntrs = Perm_map.map pm.Proc_mgr.cntr_perms;
    procs;
    thrds;
    edpts = Perm_map.map pm.Proc_mgr.edpt_perms;
    tables = Imap.map (fun (p : Process.t) -> Page_table.ghost p.Process.pt) procs;
    queues = pm.Proc_mgr.queues;
    versions = Sched_queue.versions pm.Proc_mgr.queues;
    currents = Array.of_list (Proc_mgr.currents_list pm);
    ledger = Proc_mgr.steal_ledger pm;
    external_used = Hashtbl.fold Imap.add pm.Proc_mgr.external_used Imap.empty;
    slots =
      (match from with
       | Some f -> update_slots f.thrds thrds f.slots
       | None -> update_slots Imap.empty thrds Imap.empty);
  }

let some_list = function Some x -> [ x ] | None -> []

(* The objects whose clauses a step from [b] to [cur] can have changed:
   the written objects, and every object with a clause that reads one
   of them.  A clause at an object reads the objects its own fields
   name, and [b] passed every clause, so the inverse links of [b]'s
   value of a written object name those readers; the aggregate clauses
   ([quota_wf]'s counts, an endpoint's reference count) also read the
   new value.  Each rule below adds its neighbours for both the old and
   the new value of each written object:
   - a container's path (its ancestors, whose subtree, child and quota
     clauses read it: the parent is on the path) and subtree (its
     descendants, whose path, subtree and parent clauses read it: the
     children are in it), and its processes (whose clause reads its
     process list); once gone, every endpoint (whose clause reads
     whether its owner lives);
   - a process's parent, children and threads, whose clauses read its
     links, and its owner when it appeared, went or moved, whose quota
     counts its pages;
   - a thread's process, whose clause reads its owner link, the
     endpoint it is blocked on, whose queue clause reads its state, the
     endpoints its slots name, whose reference counts count them, and
     its container when it appeared, went or moved;
   - an endpoint's queued threads, whose scheduler clause reads its
     queues, its owner when it appeared, went or moved, and, once gone,
     the threads whose slots named it ([b]'s slot index);
   - a process whose page table's ghost state moved, and a container
     whose external charge changed: that container, whose quota counts
     them.
   A moved run queue, current or steal ledger runs the scheduler check
   in full. *)
let scope_of b cur =
  let cntrs = ref Iset.empty and procs = ref Iset.empty in
  let thrds = ref Iset.empty and edpts = ref Iset.empty in
  let add set x = set := Iset.add x !set in
  let all_edpts = ref false in
  Imap.fold_diff
    (fun ptr o n () ->
      add cntrs ptr;
      if n = None then all_edpts := true;
      List.iter
        (fun (c : Container.t) ->
          List.iter (add cntrs) c.Container.path;
          cntrs := Iset.union c.Container.subtree !cntrs;
          Static_list.iter (add procs) c.Container.procs)
        (some_list o @ some_list n))
    b.cntrs cur.cntrs ();
  (* [quota_wf] reads another container's objects only for whether
     they exist and whom they belong to *)
  let owner_moved owner o n =
    match (o, n) with Some a, Some b -> owner a <> owner b | _ -> true
  in
  Imap.fold_diff
    (fun ptr o n () ->
      add procs ptr;
      let moved = owner_moved (fun (p : Process.t) -> p.Process.owner_container) o n in
      List.iter
        (fun (p : Process.t) ->
          Option.iter (add procs) p.Process.parent;
          Static_list.iter (add procs) p.Process.children;
          Static_list.iter (add thrds) p.Process.threads;
          if moved then add cntrs p.Process.owner_container)
        (some_list o @ some_list n))
    b.procs cur.procs ();
  Imap.iter
    (fun ptr (g : Page_table.ghost) ->
      match Imap.find_opt ptr b.tables with
      | Some g' when g.pt == g'.pt && g.seen_space == g'.seen_space && g.seen_closure == g'.seen_closure
        -> ()
      | Some _ | None -> add cntrs (Imap.find ptr cur.procs).Process.owner_container)
    cur.tables;
  (* a thread's container is looked up in the process map of its own
     side *)
  let thread moved procs_of (th : Thread.t) =
    add procs th.Thread.owner_proc;
    (match th.Thread.state with
     | Thread.Blocked_send e | Thread.Blocked_recv e -> add edpts e
     | Thread.Runnable | Thread.Running -> ());
    List.iter (fun (_, e) -> add edpts e) (Thread.slots th);
    if moved then
      match Imap.find_opt th.Thread.owner_proc procs_of with
      | Some (p : Process.t) -> add cntrs p.Process.owner_container
      | None -> ()
  in
  Imap.fold_diff
    (fun ptr o n () ->
      add thrds ptr;
      let moved = owner_moved (fun (th : Thread.t) -> th.Thread.owner_proc) o n in
      Option.iter (thread moved b.procs) o;
      Option.iter (thread moved cur.procs) n)
    b.thrds cur.thrds ();
  Imap.fold_diff
    (fun ptr o n () ->
      add edpts ptr;
      let moved = owner_moved (fun (e : Endpoint.t) -> e.Endpoint.owner_container) o n in
      List.iter
        (fun (e : Endpoint.t) ->
          Static_list.iter (add thrds) e.Endpoint.send_queue;
          Static_list.iter (add thrds) e.Endpoint.recv_queue;
          if moved then add cntrs e.Endpoint.owner_container)
        (some_list o @ some_list n);
      if n = None then
        Option.iter
          (Iset.iter (fun key -> add thrds (key asr 4)))
          (Imap.find_opt ptr b.slots))
    b.edpts cur.edpts ();
  Imap.fold_diff (fun c _ _ () -> add cntrs c) b.external_used cur.external_used ();
  {
    cntrs = !cntrs;
    procs = !procs;
    thrds = !thrds;
    edpts = (if !all_edpts then Imap.dom cur.edpts else !edpts);
    sched =
      not
        (cur.queues == b.queues
        && Array.length cur.versions = Array.length b.versions
        && Array.for_all2 Int.equal cur.versions b.versions
        && Array.length cur.currents = Array.length b.currents
        && Array.for_all2 (Option.equal Int.equal) cur.currents b.currents
        && cur.ledger == b.ledger);
    slots = cur.slots;
  }

let cntr = Perm_map.id Proc_mgr.cntr_perms_name
let proc = Perm_map.id Proc_mgr.proc_perms_name
let thrd = Perm_map.id Proc_mgr.thrd_perms_name
let edpt = Perm_map.id Proc_mgr.edpt_perms_name

(* Every check with the map ids it reads, in evaluation order. *)
let checks =
  [
    ("pm/containers_wf", [ cntr ], containers_wf);
    ("pm/path_wf", [ cntr ], path_wf);
    ("pm/parent_child_wf", [ cntr ], parent_child_wf);
    ("pm/subtree_wf", [ cntr ], subtree_wf);
    ("pm/process_tree_wf", [ cntr; proc; thrd ], process_tree_wf);
    ("pm/scheduler_wf", [ thrd; edpt ], scheduler_wf);
    ("pm/endpoints_wf", [ thrd; edpt; cntr ], endpoints_wf);
    ( "pm/quota_wf",
      [ cntr; Perm_map.dom_id Proc_mgr.proc_perms_name;
        Perm_map.dom_id Proc_mgr.thrd_perms_name; edpt; Page_table.map_id ],
      quota_wf );
  ]

type 'st entry = {
  name : string;
  group : string;
  reads : string list;
  violations : 'st -> V.sink -> unit;
}

(* What the keyed runs keep: the last input captured, the input of each
   check's last clean run, and the last scope computed.  Published
   with one write of an immutable record, so two checks racing on
   [Runner.run_parallel]'s domains may both run in full or lose each
   other's key, but never see half a state. *)
type state = {
  latest : input;
  clean : input option array;  (* per check of [checks], in order *)
  last_scope : (input * input * scope) option;
}

let state : state option Atomic.t = Atomic.make None

exception Found

let finds check pm keys =
  match check pm keys (fun _ _ _ -> raise_notrace Found) with
  | () -> false
  | exception Found -> true

(* The input now: the latest one while it stands. *)
let input_now st pm =
  match st with
  | Some s when s.latest.pm == pm ->
    if unchanged pm s.latest then s.latest else capture ~from:s.latest pm
  | Some _ | None -> capture pm

let scope_between st b cur =
  match st with
  | Some { last_scope = Some (b', cur', scope); _ } when b' == b && cur' == cur -> scope
  | Some _ | None -> scope_of b cur

let publish pm i cur ~clean ~scope =
  let clean_now =
    match Atomic.get state with
    | Some s when s.latest.pm == pm -> Array.copy s.clean
    | Some _ | None -> Array.make (List.length checks) None
  in
  if clean then clean_now.(i) <- Some cur;
  Atomic.set state (Some { latest = cur; clean = clean_now; last_scope = scope })

(* Check [i] of [checks], keyed: nothing to do while the input of its
   last clean run stands; after a step, its clauses at the step's scope
   only; and the full enumerator when that finds anything (so every
   message is the full check's) or no clean run is known.  Only clean
   verdicts are kept. *)
(* While set, every check runs its full enumerator and keeps nothing:
   the cache-free evaluation tests compare with. *)
let full_only = Atomic.make false

let keyed i check (pm : Proc_mgr.t) v =
  if Atomic.get full_only then check pm All v
  else
  let st = Atomic.get state in
  let base = match st with Some s when s.latest.pm == pm -> s.clean.(i) | Some _ | None -> None in
  match base with
  | Some b when unchanged pm b -> ()
  | Some _ | None ->
    let cur = input_now st pm in
    let scope, clean =
      match base with
      | Some b ->
        let scope = scope_between st b cur in
        (Some (b, cur, scope), not (finds check pm (Only scope)))
      | None -> (None, false)
    in
    let clean =
      clean
      ||
      let found = ref false in
      check pm All (fun rule page msg ->
          found := true;
          v rule page msg);
      not !found
    in
    publish pm i cur ~clean ~scope

let table =
  List.mapi
    (fun i (name, reads, check) -> { name; group = "pm"; reads; violations = keyed i check })
    checks

let check e = V.first e.violations
let rec all_latest s i =
  i = Array.length s.clean
  || (match s.clean.(i) with Some b -> b == s.latest && all_latest s (i + 1) | None -> false)

(* While every entry's last clean input is the latest input and it
   stands, every entry would report nothing: one comparison answers for
   all eight. *)
let all pm =
  match Atomic.get state with
  | Some s
    when (not (Atomic.get full_only)) && s.latest.pm == pm && all_latest s 0
         && unchanged pm s.latest ->
    Ok ()
  | Some _ | None -> V.first (fun pm v -> List.iter (fun e -> e.violations pm v) table) pm

(* The first-failure form of each check: the full enumerator, which
   never consults a key. *)
let full check = V.first (fun pm -> check pm All)
let containers_wf = full containers_wf
let path_wf = full path_wf
let parent_child_wf = full parent_child_wf
let subtree_wf = full subtree_wf
let process_tree_wf = full process_tree_wf
let scheduler_wf = full scheduler_wf
let endpoints_wf = full endpoints_wf
let quota_wf = full quota_wf

module Backdoor = struct
  let cache_free f =
    Atomic.set full_only true;
    Fun.protect ~finally:(fun () -> Atomic.set full_only false) f
end
