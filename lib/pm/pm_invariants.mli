(** Flat, non-recursive invariants of the process manager.

    Each function is one named proof obligation from the paper's
    well-formedness hierarchy, written in the flat style of §4.1: all
    quantification ranges over the global permission maps; parent/child
    and ancestry facts come from the ghost [path]/[subtree] fields, so no
    check recurses over the tree.

    {!Pm_invariants_rec} restates the tree obligations recursively (the
    formulation flat storage exists to avoid) for the ablation
    benchmarks.

    {!table} declares each check once, as an enumerator of its
    violations, with the map ids it reads; the kernel-wide table
    [Atmo_core.Invariants.table] includes it.  The functions below are
    the first-failure forms of the table's checks.

    Each check is a list of per-object clauses, and its full enumerator
    runs every clause at every object of its map, in key order.  The
    table's entries run keyed: each keeps the input of its last clean
    run (the four permission maps, each process's page-table ghost
    state, the run queues' write versions, the per-CPU currents, the
    steal ledger and the external charges).  While that input stands an
    entry reports nothing at once; after a step it diffs each map by
    physical equality ({!Atmo_util.Imap.fold_diff}) and runs its clauses
    only at the written objects and their neighbours, read from both the
    old and the new value of each (parent, children, path, subtree,
    owner, a slot's endpoint, an endpoint's queues).  A keyed run that
    finds anything runs the full enumerator, so every message is the
    full check's; only clean verdicts are kept.  The first-failure
    functions below are the full enumerators and never consult a key. *)

type 'st entry = {
  name : string;  (** obligation name, e.g. ["pm/quota_wf"] *)
  group : string;  (** ["pm"] here; ["kernel"] for kernel-wide checks *)
  reads : string list;
      (** the map ids ({!Perm_map.id}, {!Perm_map.dom_id}, and the other
          layers' ids) whose mutation can change the verdict: a cached
          verdict stays valid while none of them is dirty *)
  violations : 'st -> Atmo_util.Violation.sink -> unit;
      (** hands every violation of the check to the sink, the one
          {!check} reports first *)
}
(** One well-formedness check over a state of type ['st]. *)

val check : 'st entry -> 'st -> (unit, string) result
(** The entry's first violation. *)

val containers_wf : Proc_mgr.t -> (unit, string) result
(** Node-local well-formedness of every container ({!Container.wf}:
    non-negative accounting, depth equal to path length), in the paper's
    [threads_wf]-style global map quantification. *)

val path_wf : Proc_mgr.t -> (unit, string) result
(** The paper's [resolve_path_wf]: for any container [c] and any depth
    [d] along its path, [c]'s path prefix of length [d] equals the path
    of the ancestor at depth [d]. *)

val parent_child_wf : Proc_mgr.t -> (unit, string) result
(** Parent pointers, child lists and the root are mutually consistent;
    the last path element is the parent. *)

val subtree_wf : Proc_mgr.t -> (unit, string) result
(** Bidirectional: [c'] is in [subtree c] iff [c] is on [path c'] —
    the invariant the isolation proof (§4.3) quantifies over. *)

val process_tree_wf : Proc_mgr.t -> (unit, string) result
(** Processes sit in existing containers that list them; the
    per-container process tree has consistent parent/children; threads
    are listed by their owning process; dangling pointers are absent. *)

val scheduler_wf : Proc_mgr.t -> (unit, string) result
(** Every per-CPU deque is structurally sound; a thread is in the run
    queues exactly when runnable (exactly once), is [current] exactly
    when running, and sits on an endpoint queue exactly when blocked on
    that endpoint; every CPU's current thread is alive, [Running] and in
    no run queue; and the steal ledger names only live threads. *)

val endpoints_wf : Proc_mgr.t -> (unit, string) result
(** Every descriptor slot points at a live endpoint; each endpoint's
    reference count equals the number of slots naming it; its owner
    container is live (else a [Leak]); queues only contain
    appropriately blocked threads. *)

val quota_wf : Proc_mgr.t -> (unit, string) result
(** Accounting ground truth: each container's [used] equals its real
    page consumption, [delegated] equals the sum of live children's
    quotas, and availability is non-negative. *)

val table : Proc_mgr.t entry list
(** Every check above, in evaluation order. *)

val all : Proc_mgr.t -> (unit, string) result
(** The first failure over {!table}. *)

(** {2 Test backdoor} *)
module Backdoor : sig
  val cache_free : (unit -> 'a) -> 'a
  (** [cache_free f] runs [f] with every entry of {!table} running its
      full enumerator, reading and keeping no input, so the kept inputs
      are the same after: tests compare keyed verdicts with cache-free
      ones without cutting the chain of keyed runs. *)
end
