(* The scheduler's run queue as an intrusive O(1) deque.

   Thread identifiers are the addresses of their object pages, so each
   thread's "list node" is its frame index into the {!Atmo_pmem.Dll}
   prev/next arrays — the same mechanism the paper's allocator uses for
   its free lists, with the same O(1) unlink.  This replaces the former
   [int list] representation, whose detach path filtered the whole queue
   on every blocking send/receive. *)

module Dll = Atmo_pmem.Dll
module Phys_mem = Atmo_hw.Phys_mem

type t = Dll.t

let create mem =
  Dll.create ~capacity:(Phys_mem.page_count mem) ~name:"run_queue"

let id_of thread =
  if thread land (Phys_mem.page_size - 1) <> 0 then
    invalid_arg "Sched_queue: thread id is not page-aligned";
  thread / Phys_mem.page_size

let thread_of id = id * Phys_mem.page_size

let length = Dll.length
let version = Dll.version
let versions qs = Array.map version qs

(* A top-level loop: a local one would allocate its closure per call. *)
let rec versions_from qs vs i = i = Array.length qs || (version qs.(i) = vs.(i) && versions_from qs vs (i + 1))
let at_versions qs vs = Array.length qs = Array.length vs && versions_from qs vs 0
let is_empty = Dll.is_empty
let mem t thread = Dll.mem t (id_of thread)
let push_back t thread = Dll.push_back t (id_of thread)
let push_front t thread = Dll.push_front t (id_of thread)
let pop_front t = Option.map thread_of (Dll.pop_front t)
let pop_back t = Option.map thread_of (Dll.pop_back t)
let peek_front t = Option.map thread_of (Dll.peek_front t)
let remove t thread = Dll.remove t (id_of thread)

(* Filter semantics of the old list representation: removing an absent
   thread is a no-op (termination paths sweep threads that may or may
   not be queued). *)
let remove_if_queued t thread =
  let id = id_of thread in
  if Dll.mem t id then Dll.remove t id

let drain t =
  let rec go acc = match pop_front t with None -> List.rev acc | Some th -> go (th :: acc) in
  go []

let iter t f = Dll.iter t (fun id -> f (thread_of id))
let to_list t = List.map thread_of (Dll.to_list t)
let wf = Dll.wf
