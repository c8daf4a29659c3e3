open Atmo_util

let err fmt = Format.kasprintf (fun s -> Error s) fmt
let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

exception Broken of string

(* Recompute the root path of [ptr] by chasing parent pointers; the
   recursion depth is bounded by the number of containers. *)
let derive_path (pm : Proc_mgr.t) ptr =
  let bound = Perm_map.cardinal pm.Proc_mgr.cntr_perms in
  let rec up p fuel =
    if fuel < 0 then raise (Broken (Printf.sprintf "parent chain from 0x%x too long" ptr));
    match Perm_map.borrow_opt pm.Proc_mgr.cntr_perms ~ptr:p with
    | None -> raise (Broken (Printf.sprintf "dead container 0x%x on parent chain" p))
    | Some c ->
      (match c.Container.parent with
       | None -> []
       | Some parent -> up parent (fuel - 1) @ [ parent ])
  in
  up ptr bound

(* Recompute the descendant set by recursive descent.  Deliberately
   hierarchical: each node's subtree is re-derived from scratch for
   every ancestor that contains it, reproducing the repeated-unrolling
   cost of a recursive specification. *)
let rec derive_subtree (pm : Proc_mgr.t) ptr fuel =
  if fuel < 0 then raise (Broken (Printf.sprintf "descent from 0x%x too deep" ptr));
  match Perm_map.borrow_opt pm.Proc_mgr.cntr_perms ~ptr with
  | None -> raise (Broken (Printf.sprintf "dead container 0x%x in child list" ptr))
  | Some c ->
    List.fold_left
      (fun acc child ->
        Iset.add child (Iset.union acc (derive_subtree pm child (fuel - 1))))
      Iset.empty
      (Static_list.to_list c.Container.children)

let guarded f = try f () with Broken msg -> Error msg

let path_wf (pm : Proc_mgr.t) =
  guarded (fun () ->
      Perm_map.fold
        (fun ptr (c : Container.t) acc ->
          let* () = acc in
          let derived = derive_path pm ptr in
          if derived = c.Container.path then Ok ()
          else err "recursive path of 0x%x disagrees with ghost path" ptr)
        pm.Proc_mgr.cntr_perms (Ok ()))

let subtree_wf (pm : Proc_mgr.t) =
  guarded (fun () ->
      let bound = Perm_map.cardinal pm.Proc_mgr.cntr_perms in
      Perm_map.fold
        (fun ptr (c : Container.t) acc ->
          let* () = acc in
          let derived = derive_subtree pm ptr bound in
          if Iset.equal derived c.Container.subtree then Ok ()
          else err "recursive subtree of 0x%x disagrees with ghost subtree" ptr)
        pm.Proc_mgr.cntr_perms (Ok ()))

let acyclic (pm : Proc_mgr.t) =
  guarded (fun () ->
      Perm_map.fold
        (fun ptr (_ : Container.t) acc ->
          let* () = acc in
          ignore (derive_path pm ptr);
          Ok ())
        pm.Proc_mgr.cntr_perms (Ok ()))

let obligations =
  [
    ("pm_rec/path_wf", path_wf);
    ("pm_rec/subtree_wf", subtree_wf);
    ("pm_rec/acyclic", acyclic);
  ]

let reads = [ Perm_map.id Proc_mgr.cntr_perms_name ]

let all pm =
  List.fold_left
    (fun acc (_, check) ->
      let* () = acc in
      check pm)
    (Ok ()) obligations
