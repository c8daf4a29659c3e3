(** The abstraction function α: concrete kernel → abstract state Ψ.

    The refinement theorem relates every concrete transition to the
    abstract specification through this function; it reads the flat
    permission maps, the ghost address-space maps of every page table,
    and the allocator's spec views, producing a pure
    {!Atmo_spec.Abstract_state.t} snapshot.

    The last α is kept with the input it was built from: the four
    permission maps, the device table, each page table's address space
    and closure, the run queues' write versions, the current thread and
    the allocator's views.  While that input stands, [abstract] returns
    the same α; after a step it rebuilds only the entries whose object
    was written (or whose page table's ghost state moved), so pre- and
    post-α share every untouched entry physically.  The result equals a
    rebuilt α ({!Atmo_spec.Abstract_state.equal}) but its maps may
    differ in tree shape, so α must not be marshalled as a state key. *)

val abstract : Kernel.t -> Atmo_spec.Abstract_state.t

(** {2 Test backdoor} *)
module Backdoor : sig
  val cache_free : (unit -> 'a) -> 'a
  (** [cache_free f] runs [f] with [abstract] building α by its
      definition, reading and keeping no kept α, so the kept one is the
      same after: tests compare kept results with cache-free ones
      without cutting the chain of updates. *)
end
