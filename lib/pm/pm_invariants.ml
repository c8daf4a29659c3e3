open Atmo_util
module Page_table = Atmo_pt.Page_table

let err fmt = Format.kasprintf (fun s -> Error s) fmt
let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let fold_ok f map =
  Perm_map.fold
    (fun ptr v acc ->
      let* () = acc in
      f ptr v)
    map (Ok ())

let containers_wf (pm : Proc_mgr.t) =
  fold_ok
    (fun ptr c ->
      if Container.wf c then Ok () else err "container 0x%x not wf" ptr)
    pm.Proc_mgr.cntr_perms

(* prefix of length d of a list *)
let rec prefix d = function
  | _ when d = 0 -> []
  | [] -> []
  | x :: rest -> x :: prefix (d - 1) rest

let path_wf (pm : Proc_mgr.t) =
  fold_ok
    (fun ptr (c : Container.t) ->
      let rec at_depth d = function
        | [] -> Ok ()
        | anc :: rest ->
          (match Perm_map.borrow_opt pm.Proc_mgr.cntr_perms ~ptr:anc with
           | None -> err "path of 0x%x names dead container 0x%x" ptr anc
           | Some a ->
             if a.Container.path = prefix d c.Container.path then at_depth (d + 1) rest
             else err "path prefix of 0x%x at depth %d differs from path of 0x%x" ptr d anc)
      in
      at_depth 0 c.Container.path)
    pm.Proc_mgr.cntr_perms

let parent_child_wf (pm : Proc_mgr.t) =
  let cntrs = pm.Proc_mgr.cntr_perms in
  fold_ok
    (fun ptr (c : Container.t) ->
      let* () =
        match c.Container.parent with
        | None ->
          if ptr <> pm.Proc_mgr.root_container then
            err "0x%x has no parent but is not the root" ptr
          else if c.Container.path <> [] then err "root has non-empty path"
          else Ok ()
        | Some parent ->
          (match Perm_map.borrow_opt cntrs ~ptr:parent with
           | None -> err "parent 0x%x of 0x%x is dead" parent ptr
           | Some p ->
             if not (Static_list.mem p.Container.children ~eq:( = ) ptr) then
               err "0x%x missing from children of its parent 0x%x" ptr parent
             else if
               c.Container.path <> []
               && List.nth c.Container.path (c.Container.depth - 1) = parent
             then Ok ()
             else err "last path element of 0x%x is not its parent" ptr)
      in
      (* every listed child acknowledges us *)
      List.fold_left
        (fun acc child ->
          let* () = acc in
          match Perm_map.borrow_opt cntrs ~ptr:child with
          | None -> err "child 0x%x of 0x%x is dead" child ptr
          | Some ch ->
            if ch.Container.parent = Some ptr then Ok ()
            else err "child 0x%x does not point back at 0x%x" child ptr)
        (Ok ())
        (Static_list.to_list c.Container.children))
    cntrs

let subtree_wf (pm : Proc_mgr.t) =
  let cntrs = pm.Proc_mgr.cntr_perms in
  let* () =
    (* direction 1: membership in a subtree implies ancestry via path *)
    fold_ok
      (fun ptr (c : Container.t) ->
        Iset.fold
          (fun d acc ->
            let* () = acc in
            match Perm_map.borrow_opt cntrs ~ptr:d with
            | None -> err "subtree of 0x%x contains dead container 0x%x" ptr d
            | Some dc ->
              if List.mem ptr dc.Container.path then Ok ()
              else err "0x%x in subtree of 0x%x but 0x%x not on its path" d ptr ptr)
          c.Container.subtree (Ok ()))
      cntrs
  in
  (* direction 2: ancestry via path implies subtree membership *)
  fold_ok
    (fun ptr (c : Container.t) ->
      List.fold_left
        (fun acc anc ->
          let* () = acc in
          match Perm_map.borrow_opt cntrs ~ptr:anc with
          | None -> err "path of 0x%x names dead container 0x%x" ptr anc
          | Some a ->
            if Iset.mem ptr a.Container.subtree then Ok ()
            else err "0x%x on path of 0x%x but subtree misses it" anc ptr)
        (Ok ()) c.Container.path)
    pm.Proc_mgr.cntr_perms

let process_tree_wf (pm : Proc_mgr.t) =
  let* () =
    fold_ok
      (fun ptr (p : Process.t) ->
        let* () = if Process.wf p then Ok () else err "process 0x%x not wf" ptr in
        let* () =
          match Perm_map.borrow_opt pm.Proc_mgr.cntr_perms ~ptr:p.Process.owner_container with
          | None -> err "process 0x%x owned by dead container" ptr
          | Some c ->
            if Static_list.mem c.Container.procs ~eq:( = ) ptr then Ok ()
            else err "container 0x%x does not list process 0x%x" p.Process.owner_container ptr
        in
        let* () =
          match p.Process.parent with
          | None -> Ok ()
          | Some parent ->
            (match Perm_map.borrow_opt pm.Proc_mgr.proc_perms ~ptr:parent with
             | None -> err "parent process 0x%x of 0x%x is dead" parent ptr
             | Some pp ->
               if pp.Process.owner_container <> p.Process.owner_container then
                 err "process 0x%x and its parent live in different containers" ptr
               else if Static_list.mem pp.Process.children ~eq:( = ) ptr then Ok ()
               else err "parent 0x%x does not list child process 0x%x" parent ptr)
        in
        let* () =
          List.fold_left
            (fun acc child ->
              let* () = acc in
              match Perm_map.borrow_opt pm.Proc_mgr.proc_perms ~ptr:child with
              | None -> err "child process 0x%x of 0x%x is dead" child ptr
              | Some ch ->
                if ch.Process.parent = Some ptr then Ok ()
                else err "child process 0x%x does not point back at 0x%x" child ptr)
            (Ok ())
            (Static_list.to_list p.Process.children)
        in
        List.fold_left
          (fun acc th ->
            let* () = acc in
            match Perm_map.borrow_opt pm.Proc_mgr.thrd_perms ~ptr:th with
            | None -> err "thread 0x%x of process 0x%x is dead" th ptr
            | Some thread ->
              if thread.Thread.owner_proc = ptr then Ok ()
              else err "thread 0x%x does not point back at process 0x%x" th ptr)
          (Ok ())
          (Static_list.to_list p.Process.threads))
      pm.Proc_mgr.proc_perms
  in
  fold_ok
    (fun ptr (th : Thread.t) ->
      let* () = if Thread.wf th then Ok () else err "thread 0x%x not wf" ptr in
      match Perm_map.borrow_opt pm.Proc_mgr.proc_perms ~ptr:th.Thread.owner_proc with
      | None -> err "thread 0x%x owned by dead process" ptr
      | Some p ->
        if Static_list.mem p.Process.threads ~eq:( = ) ptr then Ok ()
        else err "process 0x%x does not list thread 0x%x" th.Thread.owner_proc ptr)
    pm.Proc_mgr.thrd_perms

let count_in_list x l = List.length (List.filter (fun y -> y = x) l)

let scheduler_wf (pm : Proc_mgr.t) =
  let* () =
    (* every per-CPU deque must be structurally sound before its
       contents mean anything (traversals agree, no cycles) *)
    let n = Proc_mgr.sched_cpus pm in
    let rec check_q c =
      if c >= n then Ok ()
      else
        match Sched_queue.wf (Proc_mgr.queue pm ~cpu:c) with
        | Ok () -> check_q (c + 1)
        | Error msg -> err "cpu %d run queue deque not wf: %s" c msg
    in
    check_q 0
  in
  let queue = Proc_mgr.run_queue_list pm in
  let* () =
    (* the run queue contains only live, runnable threads, each once *)
    List.fold_left
      (fun acc th ->
        let* () = acc in
        match Perm_map.borrow_opt pm.Proc_mgr.thrd_perms ~ptr:th with
        | None -> err "run queue contains dead thread 0x%x" th
        | Some thread ->
          if thread.Thread.state <> Thread.Runnable then
            err "run queue contains non-runnable thread 0x%x" th
          else if count_in_list th queue <> 1 then
            err "thread 0x%x queued more than once" th
          else Ok ())
      (Ok ()) queue
  in
  fold_ok
    (fun ptr (th : Thread.t) ->
      match th.Thread.state with
      | Thread.Runnable ->
        if Proc_mgr.queued_anywhere pm ~thread:ptr then Ok ()
        else err "runnable thread 0x%x missing from every run queue" ptr
      | Thread.Running ->
        if Proc_mgr.cpu_of_current pm ~thread:ptr <> None then Ok ()
        else err "thread 0x%x claims Running but is current on no CPU" ptr
      | Thread.Blocked_send e ->
        (match Perm_map.borrow_opt pm.Proc_mgr.edpt_perms ~ptr:e with
         | None -> err "thread 0x%x blocked sending on dead endpoint 0x%x" ptr e
         | Some ep ->
           if Static_list.mem ep.Endpoint.send_queue ~eq:( = ) ptr then Ok ()
           else err "thread 0x%x not on send queue of 0x%x" ptr e)
      | Thread.Blocked_recv e ->
        (match Perm_map.borrow_opt pm.Proc_mgr.edpt_perms ~ptr:e with
         | None -> err "thread 0x%x blocked receiving on dead endpoint 0x%x" ptr e
         | Some ep ->
           if Static_list.mem ep.Endpoint.recv_queue ~eq:( = ) ptr then Ok ()
           else err "thread 0x%x not on recv queue of 0x%x" ptr e))
    pm.Proc_mgr.thrd_perms

let endpoints_wf (pm : Proc_mgr.t) =
  (* count references from descriptor tables *)
  let refs = Hashtbl.create 16 in
  Perm_map.iter
    (fun _ th ->
      List.iter
        (fun (_, e) ->
          Hashtbl.replace refs e (1 + Option.value ~default:0 (Hashtbl.find_opt refs e)))
        (Thread.slots th))
    pm.Proc_mgr.thrd_perms;
  let* () =
    (* every slot names a live endpoint *)
    fold_ok
      (fun ptr th ->
        List.fold_left
          (fun acc (i, e) ->
            let* () = acc in
            if Perm_map.mem pm.Proc_mgr.edpt_perms ~ptr:e then Ok ()
            else err "slot %d of thread 0x%x names dead endpoint 0x%x" i ptr e)
          (Ok ()) (Thread.slots th))
      pm.Proc_mgr.thrd_perms
  in
  fold_ok
    (fun ptr (e : Endpoint.t) ->
      let* () = if Endpoint.wf e then Ok () else err "endpoint 0x%x not wf" ptr in
      let expected = Option.value ~default:0 (Hashtbl.find_opt refs ptr) in
      let* () =
        if e.Endpoint.refcount = expected then Ok ()
        else err "endpoint 0x%x refcount %d but %d slots name it" ptr e.Endpoint.refcount expected
      in
      let* () =
        match Perm_map.borrow_opt pm.Proc_mgr.cntr_perms ~ptr:e.Endpoint.owner_container with
        | None -> err "endpoint 0x%x owned by dead container" ptr
        | Some _ -> Ok ()
      in
      let queue_ok which q blocked_on =
        List.fold_left
          (fun acc th ->
            let* () = acc in
            match Perm_map.borrow_opt pm.Proc_mgr.thrd_perms ~ptr:th with
            | None -> err "%s queue of 0x%x holds dead thread 0x%x" which ptr th
            | Some thread ->
              if Thread.equal_sched_state thread.Thread.state (blocked_on ptr) then Ok ()
              else err "%s queue of 0x%x holds thread 0x%x in state %a" which ptr th
                  Thread.pp_sched_state thread.Thread.state)
          (Ok ()) (Static_list.to_list q)
      in
      let* () =
        queue_ok "send" e.Endpoint.send_queue (fun p -> Thread.Blocked_send p)
      in
      queue_ok "recv" e.Endpoint.recv_queue (fun p -> Thread.Blocked_recv p))
    pm.Proc_mgr.edpt_perms

let quota_wf (pm : Proc_mgr.t) =
  fold_ok
    (fun ptr (c : Container.t) ->
      let real = Proc_mgr.used_by_container pm ~container:ptr in
      let* () =
        if c.Container.used = real then Ok ()
        else err "container 0x%x charges used=%d but owns %d pages" ptr c.Container.used real
      in
      let delegated =
        List.fold_left
          (fun acc child ->
            acc + (Perm_map.borrow pm.Proc_mgr.cntr_perms ~ptr:child).Container.quota)
          0
          (Static_list.to_list c.Container.children)
      in
      if c.Container.delegated = delegated then Ok ()
      else
        err "container 0x%x delegated=%d but children hold %d" ptr c.Container.delegated
          delegated)
    pm.Proc_mgr.cntr_perms

type 'st entry = {
  name : string;
  group : string;
  reads : string list;
  check : 'st -> (unit, string) result;
}

let cntr = Perm_map.id Proc_mgr.cntr_perms_name
let proc = Perm_map.id Proc_mgr.proc_perms_name
let thrd = Perm_map.id Proc_mgr.thrd_perms_name
let edpt = Perm_map.id Proc_mgr.edpt_perms_name

let pm name reads check = { name; group = "pm"; reads; check }

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

let all pm =
  List.fold_left
    (fun acc e ->
      let* () = acc in
      e.check pm)
    (Ok ()) table
