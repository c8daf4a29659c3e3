open Atmo_util
module Phys_mem = Atmo_hw.Phys_mem
open Page_state

type purpose = Kernel | User

type views = {
  free_4k : Frame_set.t;
  free_2m : Frame_set.t;
  free_1g : Frame_set.t;
  merged : Frame_set.t;
  allocated : Iset.t;
  mapped : Iset.t;
}

(* The input of [wf]: the page array's write version and each free
   list's. *)
type key = { pages : int; list4k : int; list2m : int; list1g : int }

(* The last [views] and the page array's version it was read at. *)
type memo = { at : int; views : views }

(* The page array is dense.  Each frame has one code byte holding its
   kind (the state without its argument) and its block size, and one
   [aux] int holding a [Mapped] frame's reference count or a [Merged]
   frame's head.  Reserved frames read Free/4K but are never managed. *)
type t = {
  mem : Phys_mem.t;
  first : int;  (* first managed frame index *)
  nframes : int;  (* total frames in the machine *)
  codes : Bytes.t;  (* indexed by frame number *)
  aux : int array;  (* indexed by frame number *)
  free4k : Dll.t;
  free2m : Dll.t;
  free1g : Dll.t;
  mutable journal : (unit -> unit) list option;
      (* while {!atomically} runs: the inverse of every superpage merge
         and split so far, newest first *)
  mutable version : int;  (* advances on every write to [codes] or [aux] *)
  mutable log : int array;
      (* once a reader started it ([start_logs]), the frames write [v]
         wrote, in slot [v mod Dll.log_length]: the first frame
         [lsl 20], [lor] their count *)
  mutable logged_from : int;  (* the version [log] starts at *)
  (* Each published with one field write, so checks racing on other
     domains read either whole. *)
  mutable clean_wf : key option;
  mutable memo : memo option;
}

let frame_addr i = i * Phys_mem.page_size
let frame_of_addr a = a / Phys_mem.page_size

(* A code byte: the kind in bits 2-3, the size's order in bits 0-1, so
   a fresh all-zero array is every frame Free/4K. *)
type kind = Free_k | Allocated_k | Mapped_k | Merged_k

let order_of = function S4k -> 0 | S2m -> 1 | S1g -> 2
let size_of_order = function 0 -> S4k | 1 -> S2m | _ -> S1g
let kind_bits = function Free_k -> 0 | Allocated_k -> 4 | Mapped_k -> 8 | Merged_k -> 12
let code kind size = kind_bits kind lor order_of size
let kind_of c = match c lsr 2 with 0 -> Free_k | 1 -> Allocated_k | 2 -> Mapped_k | _ -> Merged_k
let size_of_code c = size_of_order (c land 3)

let code_at t i = Char.code (Bytes.get t.codes i)

(* The page array's only writers: each logs the [n] frames from [lo]
   it wrote and advances the array's version. *)
let log_mask = Dll.log_length - 1
let count_bits = 20

let logged t lo n =
  let log = t.log in
  if Array.length log > 0 then Array.unsafe_set log (t.version land log_mask) ((lo lsl count_bits) lor n);
  t.version <- t.version + 1

let set t i kind size =
  Bytes.set t.codes i (Char.unsafe_chr (code kind size));
  logged t i 1

let set_aux t i n =
  t.aux.(i) <- n;
  logged t i 1

(* How many frames the writes since version [v] wrote, counted with
   repeats; [max_int] when the log no longer reaches back to [v]. *)
let written t v =
  if v < t.logged_from || t.version - v > Dll.log_length then max_int
  else begin
    let n = ref 0 in
    for w = v to t.version - 1 do
      n := !n + (t.log.(w land log_mask) land ((1 lsl count_bits) - 1))
    done;
    !n
  end

(* [f] on each frame the writes since [v] wrote, which the log holds. *)
let iter_written t v f =
  for w = v to t.version - 1 do
    let e = t.log.(w land log_mask) in
    let lo = e lsr count_bits in
    for i = lo to lo + (e land ((1 lsl count_bits) - 1)) - 1 do
      f i
    done
  done

let kind_at t i = kind_of (code_at t i)
let size_at t i = size_of_code (code_at t i)

let state_at t i =
  match kind_at t i with
  | Free_k -> Free
  | Allocated_k -> Allocated
  | Mapped_k -> Mapped t.aux.(i)
  | Merged_k -> Merged t.aux.(i)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* The first frame of [[i, stop)] whose code is not [c], or [stop]:
   bytes are compared up to an eight-frame boundary, then eight frames
   per 64-bit load.  [stop] is at most the array's length. *)
let run_end t c i stop =
  let codes = t.codes and ch = Char.unsafe_chr c in
  let i = ref i in
  while !i < stop && !i land 7 <> 0 && Bytes.unsafe_get codes !i = ch do
    incr i
  done;
  if !i land 7 = 0 then begin
    let word = Int64.mul (Int64.of_int c) 0x0101010101010101L in
    while !i + 8 <= stop && get64u codes !i = word do
      i := !i + 8
    done;
    while !i < stop && Bytes.unsafe_get codes !i = ch do
      incr i
    done
  end;
  !i

(* [runs t f] calls [f c lo hi] on each maximal run [[lo, hi)] of
   managed frames whose code bytes all equal [c], in frame order. *)
let runs t f =
  let i = ref t.first in
  while !i < t.nframes do
    let lo = !i in
    let c = code_at t lo in
    let hi = run_end t c (lo + 1) t.nframes in
    f c lo hi;
    i := hi
  done

(* Allocator events on the mutation stream.  Each event site ticks the
   always-on [map_id] counter, whoever subscribes, and builds its event
   only when an [Alloc] subscriber wants it. *)
type event =
  | Created of t
  | Claim of { alloc : t; addr : int; frames : int; purpose : purpose }
  | Free_request of { alloc : t; addr : int; what : string }
  | Release of { alloc : t; addr : int; frames : int }
  | Merge of { alloc : t; addr : int; frames : int }
  | Split of { alloc : t; addr : int; frames : int }
  | Share of { alloc : t; addr : int }

type Mutation.event += Alloc of event

let map_id = "pmem/alloc"
let muts = Mutation.counter Mutation.Alloc map_id

let note ev = Mutation.emit Mutation.Alloc (Alloc ev)

let mem t = t.mem

let create mem ~reserved_frames =
  let nframes = Phys_mem.page_count mem in
  if reserved_frames < 0 || reserved_frames >= nframes then
    invalid_arg "Page_alloc.create: bad reserved_frames";
  let t =
    {
      mem;
      first = reserved_frames;
      nframes;
      codes = Bytes.make nframes (Char.chr (code Free_k S4k));
      aux = Array.make nframes 0;
      free4k = Dll.create ~capacity:nframes ~name:"free4k";
      free2m = Dll.create ~capacity:nframes ~name:"free2m";
      free1g = Dll.create ~capacity:nframes ~name:"free1g";
      journal = None;
      version = 0;
      log = [||];
      logged_from = max_int;
      clean_wf = None;
      memo = None;
    }
  in
  for i = reserved_frames to nframes - 1 do
    Dll.push_back t.free4k i
  done;
  if Mutation.tick muts then note (Created t);
  t

(* The logs a per-range reader needs: the page array's and each free
   list's, from now on. *)
let start_logs t =
  if Array.length t.log = 0 then begin
    t.log <- Array.make Dll.log_length 0;
    t.logged_from <- t.version
  end;
  Dll.start_log t.free4k;
  Dll.start_log t.free2m;
  Dll.start_log t.free1g

let managed_frames t = t.nframes - t.first
let free_count_4k t = Dll.length t.free4k
let free_count_2m t = Dll.length t.free2m

let managed t i = i >= t.first && i < t.nframes

let free_list t = function S4k -> t.free4k | S2m -> t.free2m | S1g -> t.free1g

let head_frame t ~addr op =
  let i = frame_of_addr addr in
  if not (managed t i) then
    invalid_arg (Printf.sprintf "Page_alloc.%s: 0x%x unmanaged" op addr);
  if not (Phys_mem.is_page_aligned addr) then
    invalid_arg (Printf.sprintf "Page_alloc.%s: 0x%x unaligned" op addr);
  i

let zero_block t i size =
  for j = i to i + frames_per size - 1 do
    Phys_mem.zero_page t.mem ~addr:(frame_addr j)
  done

let alloc_ctr = Atmo_obs.Metrics.counter "pmem/alloc"
let free_ctr = Atmo_obs.Metrics.counter "pmem/free"
let merge_ctr = Atmo_obs.Metrics.counter "pmem/superpage_merge"

let claim t i size purpose =
  if Mutation.tick muts then
    note (Claim { alloc = t; addr = frame_addr i; frames = frames_per size; purpose });
  (match purpose with
   | Kernel -> set t i Allocated_k size
   | User ->
     set t i Mapped_k size;
     set_aux t i 1);
  zero_block t i size;
  if Atmo_obs.Sink.tracing () then begin
    Atmo_obs.Sink.emit_page_alloc ~addr:(frame_addr i) ~order:(order_of size) ();
    Atmo_obs.Metrics.Counter.incr alloc_ctr
  end;
  frame_addr i

let journal t undo = match t.journal with Some l -> t.journal <- Some (undo :: l) | None -> ()

(* Are the [span / frames_per sub] aligned blocks of [sub] size headed
   at [head] all free? *)
let subs_free t ~head ~sub ~span =
  let c = code Free_k sub and stride = frames_per sub in
  if stride = 1 then run_end t c head (head + span) = head + span
  else
    let rec go k = k >= span || (code_at t (head + k) = c && go (k + stride)) in
    go 0

(* Point the body frames of the [stride]-frame block at [head] at it. *)
let absorb t ~head ~stride =
  Bytes.fill t.codes (head + 1) (stride - 1) (Char.chr (code Merged_k S4k));
  Array.fill t.aux (head + 1) (stride - 1) head;
  logged t (head + 1) (stride - 1)

(* Merge the free [sub] blocks covering the aligned [super] block at
   [head] into one free block.  Constituent heads are unlinked from
   their free list in O(1) via the page-array node indices; every
   absorbed frame — sub-heads and their bodies alike — is re-pointed at
   the new super-head. *)
let rec merge_block t ~head ~sub ~super =
  let stride = frames_per sub in
  let span = frames_per super in
  (* Every constituent is free, so no live translation should target the
     range — shooting it anyway keeps the TLB protocol airtight against
     a use-after-free mapping that the sanitizer would also flag. *)
  Atmo_hw.Tlb.shoot_frames t.mem ~lo:(frame_addr head) ~hi:(frame_addr (head + span));
  let sub_list = free_list t sub in
  let k = ref 0 in
  while !k < span do
    Dll.remove sub_list (head + !k);
    k := !k + stride
  done;
  absorb t ~head ~stride:span;
  set t head Free_k super;
  Dll.push_back (free_list t super) head;
  if Mutation.tick muts then note (Merge { alloc = t; addr = frame_addr head; frames = span });
  journal t (fun () ->
      Dll.remove (free_list t super) head;
      split_block t ~head ~super ~sub);
  if Atmo_obs.Sink.tracing () then begin
    Atmo_obs.Sink.emit_superpage_merge ~head:(frame_addr head) ~order:(order_of super) ();
    Atmo_obs.Metrics.Counter.incr merge_ctr
  end

(* Split the free [super] block at [head] (already off its free list)
   into free blocks of [sub] size; body frames are re-pointed at their
   new sub-heads. *)
and split_block t ~head ~super ~sub =
  let stride = frames_per sub in
  let span = frames_per super in
  Atmo_hw.Tlb.shoot_frames t.mem ~lo:(frame_addr head) ~hi:(frame_addr (head + span));
  let sub_list = free_list t sub in
  set t head Free_k sub;
  Dll.push_back sub_list head;
  let k = ref stride in
  while !k < span do
    let j = head + !k in
    set t j Free_k sub;
    Dll.push_back sub_list j;
    k := !k + stride
  done;
  if stride > 1 then
    for g = 0 to (span / stride) - 1 do
      absorb t ~head:(head + (g * stride)) ~stride
    done;
  if Mutation.tick muts then note (Split { alloc = t; addr = frame_addr head; frames = span });
  journal t (fun () -> merge_block t ~head ~sub ~super)

let aligned_start t span = (t.first + span - 1) / span * span

(* Scan the page array for an aligned run of free [sub] blocks and merge
   it into one [super] block (the paper's superpage formation). *)
let try_merge t ~sub ~super =
  let span = frames_per super in
  let rec scan head =
    if head + span > t.nframes then false
    else if subs_free t ~head ~sub ~span then begin
      merge_block t ~head ~sub ~super;
      true
    end
    else scan (head + span)
  in
  scan (aligned_start t span)

let try_merge_2m t = try_merge t ~sub:S4k ~super:S2m

(* A gigabyte region can be promoted when each of its 2 MiB groups is a
   free 2 MiB block or 512 free 4 KiB frames.  The region is found
   before anything is merged, so a failed promotion changes nothing;
   only the chosen region's 4 KiB groups are merged on the way up. *)
let try_merge_1g t =
  let span = frames_per S1g and group = frames_per S2m in
  let group_free g = subs_free t ~head:g ~sub:S2m ~span:group || subs_free t ~head:g ~sub:S4k ~span:group in
  let rec region_free head g = g >= head + span || (group_free g && region_free head (g + group)) in
  let rec scan head =
    if head + span > t.nframes then false
    else if region_free head head then begin
      let g = ref head in
      while !g < head + span do
        if equal_size (size_at t !g) S4k then merge_block t ~head:!g ~sub:S4k ~super:S2m;
        g := !g + group
      done;
      merge_block t ~head ~sub:S2m ~super:S1g;
      true
    end
    else scan (head + span)
  in
  scan (aligned_start t span)

let rec alloc_4k t ~purpose =
  match Dll.pop_front t.free4k with
  | Some i -> Some (claim t i S4k purpose)
  | None ->
    (match Dll.pop_front t.free2m with
     | Some head ->
       split_block t ~head ~super:S2m ~sub:S4k;
       alloc_4k t ~purpose
     | None ->
       (match Dll.pop_front t.free1g with
        | Some head ->
          split_block t ~head ~super:S1g ~sub:S2m;
          alloc_4k t ~purpose
        | None -> None))

let rec alloc_2m t ~purpose =
  match Dll.pop_front t.free2m with
  | Some i -> Some (claim t i S2m purpose)
  | None ->
    if try_merge_2m t then alloc_2m t ~purpose
    else
      (match Dll.pop_front t.free1g with
       | Some head ->
         split_block t ~head ~super:S1g ~sub:S2m;
         alloc_2m t ~purpose
       | None -> None)

let rec alloc_1g t ~purpose =
  match Dll.pop_front t.free1g with
  | Some i -> Some (claim t i S1g purpose)
  | None -> if try_merge_1g t then alloc_1g t ~purpose else None

(* The undo actions run unjournaled, newest first; the caller has
   released every block it claimed, so each block or its parts is free
   again. *)
let atomically t f =
  (match t.journal with
   | Some _ -> invalid_arg "Page_alloc.atomically: already inside a transaction"
   | None -> ());
  t.journal <- Some [];
  let r = try f () with exn -> t.journal <- None; raise exn in
  let undo = Option.value t.journal ~default:[] in
  t.journal <- None;
  (match r with Error _ -> List.iter (fun inverse -> inverse ()) undo | Ok _ -> ());
  r

let release t i =
  let size = size_at t i in
  if Mutation.tick muts then
    note (Release { alloc = t; addr = frame_addr i; frames = frames_per size });
  set t i Free_k size;
  Dll.push_back (free_list t size) i;
  if Atmo_obs.Sink.tracing () then begin
    Atmo_obs.Sink.emit_page_free ~addr:(frame_addr i) ~order:(order_of size) ();
    Atmo_obs.Metrics.Counter.incr free_ctr
  end

let free_kernel_page t ~addr =
  if Mutation.tick muts then note (Free_request { alloc = t; addr; what = "free_kernel_page" });
  let i = head_frame t ~addr "free_kernel_page" in
  match kind_at t i with
  | Allocated_k -> release t i
  | Free_k | Mapped_k | Merged_k ->
    invalid_arg
      (Format.asprintf "Page_alloc.free_kernel_page: 0x%x is %a" addr pp_state (state_at t i))

let inc_ref t ~addr =
  let i = head_frame t ~addr "inc_ref" in
  match kind_at t i with
  | Mapped_k ->
    if Mutation.tick muts then note (Share { alloc = t; addr });
    set_aux t i (t.aux.(i) + 1)
  | Free_k | Allocated_k | Merged_k ->
    invalid_arg
      (Format.asprintf "Page_alloc.inc_ref: 0x%x is %a" addr pp_state (state_at t i))

let dec_ref t ~addr =
  if Mutation.tick muts then note (Free_request { alloc = t; addr; what = "dec_ref" });
  let i = head_frame t ~addr "dec_ref" in
  match kind_at t i with
  | Mapped_k when t.aux.(i) = 1 ->
    release t i;
    `Freed
  | Mapped_k ->
    set_aux t i (t.aux.(i) - 1);
    `Live
  | Free_k | Allocated_k | Merged_k ->
    invalid_arg
      (Format.asprintf "Page_alloc.dec_ref: 0x%x is %a" addr pp_state (state_at t i))

let ref_count t ~addr =
  let i = head_frame t ~addr "ref_count" in
  match kind_at t i with
  | Mapped_k -> Some t.aux.(i)
  | Free_k | Allocated_k | Merged_k -> None

let state_of t ~addr =
  let i = frame_of_addr addr in
  if managed t i then Some (state_at t i) else None

let size_of t ~addr =
  let i = frame_of_addr addr in
  if not (managed t i) then None
  else
    match kind_at t i with
    | Merged_k -> None
    | Free_k | Allocated_k | Mapped_k ->
      (* constant options: the query allocates nothing *)
      (match size_at t i with S4k -> Some S4k | S2m -> Some S2m | S1g -> Some S1g)

let is_free t ~addr =
  let i = frame_of_addr addr in
  managed t i && kind_at t i = Free_k

(* Frames in increasing order, consed onto [acc] *)
let add_frames acc lo hi =
  for i = lo to hi - 1 do
    acc := frame_addr i :: !acc
  done

(* One scan of the page array.  A set equal to the same set of [prev]
   (the last views) is [prev]'s own, so readers comparing views kept
   across a write to another set see it unchanged at once. *)
let scan_views ?prev t =
  let draft () = Frame_set.draft ~lo:t.first ~hi:t.nframes in
  let free_4k = draft () and free_2m = draft () and free_1g = draft () and merged = draft () in
  let allocated = ref [] and mapped = ref [] in
  runs t (fun c lo hi ->
      match kind_of c with
      | Free_k ->
        let set = match size_of_code c with S4k -> free_4k | S2m -> free_2m | S1g -> free_1g in
        Frame_set.set_range set ~lo ~hi
      | Merged_k -> Frame_set.set_range merged ~lo ~hi
      | Allocated_k -> add_frames allocated lo hi
      | Mapped_k -> add_frames mapped lo hi);
  let dense old d =
    let s = Frame_set.freeze d in
    match prev with Some p when Frame_set.equal (old p) s -> old p | Some _ | None -> s
  and ordered old l =
    match prev with
    | Some p -> Iset.of_sorted_over (old p) (List.rev l)
    | None -> Iset.of_sorted_list (List.rev l)
  in
  {
    free_4k = dense (fun v -> v.free_4k) free_4k;
    free_2m = dense (fun v -> v.free_2m) free_2m;
    free_1g = dense (fun v -> v.free_1g) free_1g;
    merged = dense (fun v -> v.merged) merged;
    allocated = ordered (fun v -> v.allocated) !allocated;
    mapped = ordered (fun v -> v.mapped) !mapped;
  }

(* The view holding a frame of code [c], and the view of [v] holding
   the managed frame at [addr]: free 4K, 2M and 1G, merged, allocated,
   mapped. *)
let view_of c =
  match kind_of c with
  | Free_k -> order_of (size_of_code c)
  | Merged_k -> 3
  | Allocated_k -> 4
  | Mapped_k -> 5

let view_in v addr =
  if Frame_set.mem v.free_4k addr then 0
  else if Frame_set.mem v.free_2m addr then 1
  else if Frame_set.mem v.free_1g addr then 2
  else if Frame_set.mem v.merged addr then 3
  else if Iset.mem addr v.allocated then 4
  else 5

(* Past this many written frames, one scan is cheaper than moving
   frames one by one. *)
let max_moved = 64

(* [m]'s views at the current version: each managed frame written since
   moves from the view that held it to the one its code names now, and
   a view no frame entered or left is [m]'s own. *)
let update_views t m =
  if written t m.at > max_moved then None
  else begin
    let moved = Array.make 6 [] and seen = ref [] in
    iter_written t m.at (fun i ->
        if managed t i && not (List.mem i !seen) then begin
          seen := i :: !seen;
          let was = view_in m.views (frame_addr i) and now = view_of (code_at t i) in
          if was <> now then begin
            moved.(was) <- i :: moved.(was);
            moved.(now) <- i :: moved.(now)
          end
        end);
    let turn s frames =
      List.fold_left
        (fun s i ->
          let a = frame_addr i in
          if Iset.mem a s then Iset.remove a s else Iset.add a s)
        s frames
    and v = m.views in
    Some
      {
        free_4k = Frame_set.flip v.free_4k moved.(0);
        free_2m = Frame_set.flip v.free_2m moved.(1);
        free_1g = Frame_set.flip v.free_1g moved.(2);
        merged = Frame_set.flip v.merged moved.(3);
        allocated = turn v.allocated moved.(4);
        mapped = turn v.mapped moved.(5);
      }
  end

(* While set, [wf] and [views] run in full and keep nothing: the
   cache-free evaluation tests compare with. *)
let full_only = Atomic.make false

(* The views read only the code bytes, so they are kept while the page
   array's version stands, and moved at the written frames after. *)
let views t =
  if Atomic.get full_only then scan_views t
  else
    match t.memo with
    | Some m when m.at = t.version -> m.views
    | m ->
      let at = t.version in
      let views =
        match m with
        | None -> scan_views t
        | Some m -> (
          match update_views t m with Some v -> v | None -> scan_views ~prev:m.views t)
      in
      t.memo <- Some { at; views };
      start_logs t;
      views

(* One set by one scan, without the other five views. *)
let frames_where t keep =
  let acc = ref [] in
  runs t (fun c lo hi -> if keep c then add_frames acc lo hi);
  Iset.of_sorted_list (List.rev !acc)

let free_pages t size = frames_where t (fun c -> c = code Free_k size)
let free_pages_4k t = free_pages t S4k
let free_pages_2m t = free_pages t S2m
let free_pages_1g t = free_pages t S1g
let allocated_pages t = (views t).allocated
let mapped_pages t = (views t).mapped
let merged_pages t = frames_where t (fun c -> kind_of c = Merged_k)

let frames_of_block t ~addr =
  let i = head_frame t ~addr "frames_of_block" in
  (match kind_at t i with
   | Merged_k -> invalid_arg "Page_alloc.frames_of_block: body frame"
   | Free_k | Allocated_k | Mapped_k -> ());
  let acc = ref [] in
  add_frames acc i (i + frames_per (size_at t i));
  Iset.of_list !acc

let misaligned i size = i land (frames_per size - 1) <> 0

(* The first violation, in a fixed order: the free lists' structure,
   then each list's members in list order, then every list's members
   against the managed range, then every frame in frame order, then
   every superpage's body frames.  One pass over the runs of code bytes
   checks each frame's own invariant and that every free frame is an
   aligned member of its size's list, a range test per free run.  With
   equal counts per size, that makes each list exactly the set of free
   frames of its size, so every member is a managed, aligned free frame
   of the list's size.  The members are searched one by one, and the
   frames for an unlisted one, only to name the culprit once a check
   fails. *)
let check t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () = Dll.wf t.free4k in
  let* () = Dll.wf t.free2m in
  let* () = Dll.wf t.free1g in
  let free = Array.make 3 0 in
  let listed = ref true in
  let heads = ref [] in
  (* the first frame, in order, whose own invariant fails — free-list
     membership aside *)
  let broken = ref None in
  let fail i e = if Option.is_none !broken then broken := Some (i, e ()) in
  runs t (fun c lo hi ->
      let size = size_of_code c in
      match kind_of c with
      | Free_k ->
        free.(order_of size) <- free.(order_of size) + (hi - lo);
        if not (Dll.mem_range (free_list t size) ~lo ~hi) then listed := false;
        if not (equal_size size S4k) then
          for i = lo to hi - 1 do
            if misaligned i size then listed := false;
            heads := i :: !heads
          done
      | (Allocated_k | Mapped_k) as kind ->
        let mapped = kind = Mapped_k and super = not (equal_size size S4k) in
        if mapped || super then
          for i = lo to hi - 1 do
            if misaligned i size then
              fail i (fun () -> err "head frame %d misaligned for size %a" i pp_size size)
            else if mapped && t.aux.(i) <= 0 then
              fail i (fun () -> err "mapped frame %d has refcount %d" i t.aux.(i))
            else if super then heads := i :: !heads
          done
      | Merged_k ->
        for i = lo to hi - 1 do
          let h = t.aux.(i) in
          if not (managed t h) then
            fail i (fun () -> err "merged frame %d has unmanaged head %d" i h)
          else if kind_at t h = Merged_k then
            fail i (fun () -> err "merged frame %d points at merged head %d" i h)
          else
            let hs = size_at t h in
            if misaligned h hs || h >= i || i >= h + frames_per hs then
              fail i (fun () ->
                  err "merged frame %d outside block of head %d (%a)" i h pp_size hs)
        done);
  let* () =
    if
      Option.is_none !broken && !listed
      && free.(0) = Dll.length t.free4k
      && free.(1) = Dll.length t.free2m
      && free.(2) = Dll.length t.free1g
    then Ok ()
    else begin
      let check_list list size =
        let c = code Free_k size in
        match Dll.find list (fun i -> code_at t i <> c || misaligned i size) with
        | None -> Ok ()
        | Some i ->
          (match kind_at t i with
           | Allocated_k | Mapped_k | Merged_k ->
             err "frame %d on %s list but state %a" i (Dll.name list) pp_state (state_at t i)
           | Free_k ->
             if not (equal_size (size_at t i) size) then
               err "frame %d on %s list but size %a" i (Dll.name list) pp_size (size_at t i)
             else err "frame %d on %s list misaligned" i (Dll.name list))
      in
      let check_managed list =
        match Dll.find list (fun i -> not (managed t i)) with
        | None -> Ok ()
        | Some i -> err "frame %d on %s list but not a managed frame" i (Dll.name list)
      in
      let rec unlisted i stop =
        if i >= stop then None
        else if kind_at t i = Free_k && not (Dll.mem (free_list t (size_at t i)) i) then
          Some (err "free frame %d (%a) not on its free list" i pp_size (size_at t i))
        else unlisted (i + 1) stop
      in
      let* () = check_list t.free4k S4k in
      let* () = check_list t.free2m S2m in
      let* () = check_list t.free1g S1g in
      let* () = check_managed t.free4k in
      let* () = check_managed t.free2m in
      let* () = check_managed t.free1g in
      match !broken with
      | Some (j, e) -> Option.value (unlisted t.first j) ~default:e
      | None -> Option.get (unlisted t.first t.nframes)
    end
  in
  (* Heads own their bodies: every non-head frame inside a live superpage
     block must be Merged into exactly that head. *)
  let rec bodies i j last =
    if j > last then Ok ()
    else if kind_at t j = Merged_k && t.aux.(j) = i then bodies i (j + 1) last
    else err "body frame %d of head %d is %a" j i pp_state (state_at t j)
  in
  List.fold_left
    (fun acc i ->
      let* () = acc in
      bodies i (i + 1) (min (i + frames_per (size_at t i)) t.nframes - 1))
    (Ok ()) (List.rev !heads)

let key t =
  {
    pages = t.version;
    list4k = Dll.version t.free4k;
    list2m = Dll.version t.free2m;
    list1g = Dll.version t.free1g;
  }

let unchanged t k =
  k.pages = t.version
  && k.list4k = Dll.version t.free4k
  && k.list2m = Dll.version t.free2m
  && k.list1g = Dll.version t.free1g

let version t = t.version

let written_since t v f =
  written t v <> max_int
  && begin
    iter_written t v (fun i -> f (frame_addr i));
    true
  end

(* ------------------------------------------------------------------ *)
(* The per-range check                                                 *)

(* The kept clean state held every rule of [check].  A frame's own
   rules read its code and [aux], the lists' membership of it, and the
   code of the head its [aux] names; a superpage's body rule reads its
   head and bodies.  So after writes, a rule can fail only at a written
   frame, at a written list id, or at an unwritten body whose head was
   written, and those are the frames the rules below visit. *)

let on_a_list t i = Dll.mem t.free4k i || Dll.mem t.free2m i || Dll.mem t.free1g i

(* A written list id of [list] (of [size]) is on it exactly when it is
   a managed free frame of that size (a written frame's alignment is
   its own rule; an unwritten one's held at the clean run). *)
let listed_ok t list size i = Dll.mem list i = (managed t i && code_at t i = code Free_k size)

(* The superpage head whose block covers frame [i], if any: the
   2 MiB- or 1 GiB-aligned frame below [i] that is a head reaching
   past [i]. *)
let covers t h i = h <> i && managed t h && kind_at t h <> Merged_k && i < h + frames_per (size_at t h)

let body_of t h j = kind_at t j = Merged_k && t.aux.(j) = h

(* Frames [[j, last]] are all bodies of [h]. *)
let rec bodies t h j last = j > last || (body_of t h j && bodies t h (j + 1) last)

(* Some frame of [[j, stop)] is a body of [h]. *)
let rec strays t h j stop = j < stop && (body_of t h j || strays t h (j + 1) stop)

(* The [size]-aligned frame below [i], if a head whose block covers
   [i], holds [i] as its body. *)
let covered_ok t i size =
  let h = i land lnot (frames_per size - 1) in
  (not (covers t h i)) || body_of t h i

(* A written managed frame: its own rule and its list membership (a
   free frame is on its size's list and no other, any other frame on
   none); the bodies of a superpage it heads; the head whose block
   covers it; and the unwritten bodies still naming it, which can only
   lie past its own block within the largest block its alignment
   allows (a frame not 2 MiB-aligned never headed one). *)
let frame_ok t i =
  let c = code_at t i in
  let size = size_of_code c in
  let kind = kind_of c in
  (match kind with
   | Free_k ->
     (not (misaligned i size))
     && Dll.mem t.free4k i = equal_size size S4k
     && Dll.mem t.free2m i = equal_size size S2m
     && Dll.mem t.free1g i = equal_size size S1g
   | Allocated_k -> (not (misaligned i size)) && not (on_a_list t i)
   | Mapped_k -> (not (misaligned i size)) && t.aux.(i) > 0 && not (on_a_list t i)
   | Merged_k ->
     let h = t.aux.(i) in
     managed t h
     && kind_at t h <> Merged_k
     && (not (misaligned h (size_at t h)))
     && h < i
     && i < h + frames_per (size_at t h)
     && not (on_a_list t i))
  && (kind = Merged_k || equal_size size S4k
     || bodies t i (i + 1) (min (i + frames_per size) t.nframes - 1))
  && covered_ok t i S2m && covered_ok t i S1g
  && (misaligned i S2m
     ||
     let block = if kind = Merged_k || misaligned i size then 1 else frames_per size in
     let reach = frames_per (if misaligned i S1g then S2m else S1g) in
     not (strays t i (i + block) (min (i + reach) t.nframes)))

(* Every written managed frame of the writes from [w] on passes
   [frame_ok]. *)
let rec frames_from t w =
  w = t.version
  ||
  let e = t.log.(w land log_mask) in
  let lo = e lsr count_bits in
  range_ok t lo (lo + (e land ((1 lsl count_bits) - 1))) && frames_from t (w + 1)

and range_ok t i stop = i >= stop || (((not (managed t i)) || frame_ok t i) && range_ok t (i + 1) stop)

(* Past this many written frames, the full check's one scan is
   cheaper. *)
let max_checked = 256

(* Every rule of [check], at the frames and list ids written since the
   clean key [k]: [true] only if [check] would pass.  The free counts
   need no frame: once the written frames and ids agree with the lists,
   the free frames of each size are exactly its list's members, and
   [Dll.wf_since] counts those against the length. *)
let check_since t k =
  written t k.pages <= max_checked
  && Dll.wf_since t.free4k k.list4k (listed_ok t t.free4k S4k)
  && Dll.wf_since t.free2m k.list2m (listed_ok t t.free2m S2m)
  && Dll.wf_since t.free1g k.list1g (listed_ok t t.free1g S1g)
  && frames_from t k.pages

(* An allocator whose key equals that of its last clean check is clean
   again; after writes the log holds, the per-range check decides, and
   the full check whenever it finds anything, so every message is the
   full check's.  Errors are never kept.  The key is read before the
   check, so a write during it leaves a key that misses. *)
let wf t =
  if Atomic.get full_only then check t
  else
    match t.clean_wf with
    | Some k when unchanged t k -> Ok ()
    | kept ->
      let now = key t in
      let r =
        match kept with Some k when check_since t k -> Ok () | Some _ | None -> check t
      in
      if Result.is_ok r then begin
        t.clean_wf <- Some now;
        start_logs t
      end;
      r

module Backdoor = struct
  let set_frame t ~frame state size =
    match state with
    | Free -> set t frame Free_k size
    | Allocated -> set t frame Allocated_k size
    | Mapped n ->
      set t frame Mapped_k size;
      set_aux t frame n
    | Merged h ->
      set t frame Merged_k size;
      set_aux t frame h

  let free_list = free_list

  let cache_free f =
    Atomic.set full_only true;
    Fun.protect ~finally:(fun () -> Atomic.set full_only false) f
end
