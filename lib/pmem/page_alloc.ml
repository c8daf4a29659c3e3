open Atmo_util
module Phys_mem = Atmo_hw.Phys_mem
open Page_state

type purpose = Kernel | User

type t = {
  mem : Phys_mem.t;
  first : int;  (* first managed frame index *)
  nframes : int;  (* total frames in the machine *)
  meta : meta array;  (* indexed by frame number *)
  free4k : Dll.t;
  free2m : Dll.t;
  free1g : Dll.t;
  mutable journal : (unit -> unit) list option;
      (* while {!atomically} runs: the inverse of every superpage merge
         and split so far, newest first *)
}

let frame_addr i = i * Phys_mem.page_size
let frame_of_addr a = a / Phys_mem.page_size

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
      meta = Array.init nframes (fun _ -> { state = Free; size = S4k });
      free4k = Dll.create ~capacity:nframes ~name:"free4k";
      free2m = Dll.create ~capacity:nframes ~name:"free2m";
      free1g = Dll.create ~capacity:nframes ~name:"free1g";
      journal = None;
    }
  in
  for i = reserved_frames to nframes - 1 do
    Dll.push_back t.free4k i
  done;
  if Mutation.tick muts then note (Created t);
  t

let managed_frames t = t.nframes - t.first
let free_count_4k t = Dll.length t.free4k
let free_count_2m t = Dll.length t.free2m
let free_count_1g t = Dll.length t.free1g

let managed t i = i >= t.first && i < t.nframes

let free_list t = function S4k -> t.free4k | S2m -> t.free2m | S1g -> t.free1g

let head_meta t ~addr op =
  let i = frame_of_addr addr in
  if not (managed t i) then
    invalid_arg (Printf.sprintf "Page_alloc.%s: 0x%x unmanaged" op addr);
  if not (Phys_mem.is_page_aligned addr) then
    invalid_arg (Printf.sprintf "Page_alloc.%s: 0x%x unaligned" op addr);
  (i, t.meta.(i))

let zero_block t i size =
  for j = i to i + frames_per size - 1 do
    Phys_mem.zero_page t.mem ~addr:(frame_addr j)
  done

let order_of = function S4k -> 0 | S2m -> 1 | S1g -> 2

let alloc_ctr = Atmo_obs.Metrics.counter "pmem/alloc"
let free_ctr = Atmo_obs.Metrics.counter "pmem/free"
let merge_ctr = Atmo_obs.Metrics.counter "pmem/superpage_merge"

let claim t i size purpose =
  let m = t.meta.(i) in
  if Mutation.tick muts then
    note (Claim { alloc = t; addr = frame_addr i; frames = frames_per size; purpose });
  m.size <- size;
  m.state <- (match purpose with Kernel -> Allocated | User -> Mapped 1);
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
  let stride = frames_per sub in
  let rec go k =
    k >= span
    ||
    let m = t.meta.(head + k) in
    (match m.state with Free -> equal_size m.size sub | Allocated | Mapped _ | Merged _ -> false)
    && go (k + stride)
  in
  go 0

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
  for j = head + 1 to head + span - 1 do
    t.meta.(j).state <- Merged head;
    t.meta.(j).size <- S4k
  done;
  t.meta.(head).state <- Free;
  t.meta.(head).size <- super;
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
  t.meta.(head).size <- sub;
  Dll.push_back sub_list head;
  let k = ref stride in
  while !k < span do
    let j = head + !k in
    t.meta.(j).state <- Free;
    t.meta.(j).size <- sub;
    Dll.push_back sub_list j;
    k := !k + stride
  done;
  if stride > 1 then
    for g = 0 to (span / stride) - 1 do
      let sub_head = head + (g * stride) in
      for b = sub_head + 1 to sub_head + stride - 1 do
        t.meta.(b).state <- Merged sub_head
      done
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
        if equal_size t.meta.(!g).size S4k then merge_block t ~head:!g ~sub:S4k ~super:S2m;
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
  let m = t.meta.(i) in
  if Mutation.tick muts then
    note (Release { alloc = t; addr = frame_addr i; frames = frames_per m.size });
  m.state <- Free;
  Dll.push_back (free_list t m.size) i;
  if Atmo_obs.Sink.tracing () then begin
    Atmo_obs.Sink.emit_page_free ~addr:(frame_addr i) ~order:(order_of m.size) ();
    Atmo_obs.Metrics.Counter.incr free_ctr
  end

let free_kernel_page t ~addr =
  if Mutation.tick muts then note (Free_request { alloc = t; addr; what = "free_kernel_page" });
  let i, m = head_meta t ~addr "free_kernel_page" in
  match m.state with
  | Allocated -> release t i
  | Free | Mapped _ | Merged _ ->
    invalid_arg
      (Format.asprintf "Page_alloc.free_kernel_page: 0x%x is %a" addr pp_state m.state)

let inc_ref t ~addr =
  let _, m = head_meta t ~addr "inc_ref" in
  match m.state with
  | Mapped n ->
    if Mutation.tick muts then note (Share { alloc = t; addr });
    m.state <- Mapped (n + 1)
  | Free | Allocated | Merged _ ->
    invalid_arg
      (Format.asprintf "Page_alloc.inc_ref: 0x%x is %a" addr pp_state m.state)

let dec_ref t ~addr =
  if Mutation.tick muts then note (Free_request { alloc = t; addr; what = "dec_ref" });
  let i, m = head_meta t ~addr "dec_ref" in
  match m.state with
  | Mapped 1 ->
    release t i;
    `Freed
  | Mapped n ->
    m.state <- Mapped (n - 1);
    `Live
  | Free | Allocated | Merged _ ->
    invalid_arg
      (Format.asprintf "Page_alloc.dec_ref: 0x%x is %a" addr pp_state m.state)

let ref_count t ~addr =
  let _, m = head_meta t ~addr "ref_count" in
  match m.state with Mapped n -> Some n | Free | Allocated | Merged _ -> None

let state_of t ~addr =
  let i = frame_of_addr addr in
  if managed t i then Some t.meta.(i).state else None

let size_of t ~addr =
  let i = frame_of_addr addr in
  if not (managed t i) then None
  else
    match t.meta.(i).state with
    | Merged _ -> None
    | Free | Allocated | Mapped _ ->
      (* constant options: the query allocates nothing *)
      (match t.meta.(i).size with S4k -> Some S4k | S2m -> Some S2m | S1g -> Some S1g)

let is_free t ~addr =
  match state_of t ~addr with Some Free -> true | _ -> false

type views = {
  free_4k : Frame_set.t;
  free_2m : Frame_set.t;
  free_1g : Frame_set.t;
  merged : Frame_set.t;
  allocated : Iset.t;
  mapped : Iset.t;
}

let views t =
  (* dense classes: free 4K, 2M, 1G (by [order_of]), merged *)
  let dense = Array.init 4 (fun _ -> Frame_set.draft ~lo:t.first ~hi:t.nframes) in
  let allocated = ref Iset.empty and mapped = ref Iset.empty in
  (* a run of consecutive frames of one dense class is added as a range *)
  let run = ref (-1) and start = ref t.first in
  let close i = if !run >= 0 then Frame_set.set_range dense.(!run) ~lo:!start ~hi:i in
  for i = t.first to t.nframes - 1 do
    let m = t.meta.(i) in
    let cls =
      match m.state with
      | Free -> order_of m.size
      | Merged _ -> 3
      | Allocated ->
        allocated := Iset.add (frame_addr i) !allocated;
        -1
      | Mapped _ ->
        mapped := Iset.add (frame_addr i) !mapped;
        -1
    in
    if cls <> !run then begin
      close i;
      run := cls;
      start := i
    end
  done;
  close t.nframes;
  {
    free_4k = Frame_set.freeze dense.(0);
    free_2m = Frame_set.freeze dense.(1);
    free_1g = Frame_set.freeze dense.(2);
    merged = Frame_set.freeze dense.(3);
    allocated = !allocated;
    mapped = !mapped;
  }

let collect t pred =
  let acc = ref Iset.empty in
  for i = t.first to t.nframes - 1 do
    if pred t.meta.(i) then acc := Iset.add (frame_addr i) !acc
  done;
  !acc

let free_pages_4k t =
  collect t (fun m -> m.state = Free && m.size = S4k)

let free_pages_2m t =
  collect t (fun m -> m.state = Free && m.size = S2m)

let free_pages_1g t =
  collect t (fun m -> m.state = Free && m.size = S1g)

let allocated_pages t = collect t (fun m -> m.state = Allocated)

let mapped_pages t =
  collect t (fun m -> match m.state with Mapped _ -> true | _ -> false)

let merged_pages t =
  collect t (fun m -> match m.state with Merged _ -> true | _ -> false)

let frames_of_block t ~addr =
  let i, m = head_meta t ~addr "frames_of_block" in
  (match m.state with
   | Merged _ -> invalid_arg "Page_alloc.frames_of_block: body frame"
   | Free | Allocated | Mapped _ -> ());
  let n = frames_per m.size in
  let acc = ref Iset.empty in
  for j = i to i + n - 1 do
    acc := Iset.add (frame_addr j) !acc
  done;
  !acc

(* The first violation, in a fixed order: the free lists' structure,
   then each list's members in list order, then every frame in frame
   order, then every superpage's body frames.  Once the members of each
   list are known to be free frames of its size, "every managed free
   frame is on its list" is a count per size; the frames are searched
   for the first unlisted one only when a count is off.  (No live frame
   can be on a list at that point either.) *)
let wf t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () = Dll.wf t.free4k in
  let* () = Dll.wf t.free2m in
  let* () = Dll.wf t.free1g in
  let misaligned i size = i land (frames_per size - 1) <> 0 in
  let check_list list size =
    let mask = frames_per size - 1 in
    let bad i =
      let m = t.meta.(i) in
      match m.state with
      | Free -> m.size != size || i land mask <> 0
      | Allocated | Mapped _ | Merged _ -> true
    in
    match Dll.find list bad with
    | None -> Ok ()
    | Some i ->
      let m = t.meta.(i) in
      (match m.state with
       | Allocated | Mapped _ | Merged _ ->
         err "frame %d on %s list but state %a" i (Dll.name list) pp_state m.state
       | Free ->
         if not (equal_size m.size size) then
           err "frame %d on %s list but size %a" i (Dll.name list) pp_size m.size
         else err "frame %d on %s list misaligned" i (Dll.name list))
  in
  let* () = check_list t.free4k S4k in
  let* () = check_list t.free2m S2m in
  let* () = check_list t.free1g S1g in
  let free = Array.make 3 0 in
  let heads = ref [] in
  let super_head i size = match size with S4k -> () | S2m | S1g -> heads := i :: !heads in
  (* the first frame, in order, whose own invariant fails — free-list
     membership aside *)
  let rec scan i =
    if i >= t.nframes then None
    else
      let m = t.meta.(i) in
      match m.state with
      | Free ->
        let k = order_of m.size in
        free.(k) <- free.(k) + 1;
        super_head i m.size;
        scan (i + 1)
      | Allocated | Mapped _ ->
        if misaligned i m.size then
          Some (i, err "head frame %d misaligned for size %a" i pp_size m.size)
        else (
          match m.state with
          | Mapped n when n <= 0 -> Some (i, err "mapped frame %d has refcount %d" i n)
          | Free | Allocated | Mapped _ | Merged _ ->
            super_head i m.size;
            scan (i + 1))
      | Merged h ->
        if not (managed t h) then Some (i, err "merged frame %d has unmanaged head %d" i h)
        else (
          let hm = t.meta.(h) in
          match hm.state with
          | Merged _ -> Some (i, err "merged frame %d points at merged head %d" i h)
          | Free | Allocated | Mapped _ ->
            if (not (misaligned h hm.size)) && h < i && i < h + frames_per hm.size then
              scan (i + 1)
            else
              Some
                (i, err "merged frame %d outside block of head %d (%a)" i h pp_size hm.size))
  in
  let rec unlisted i stop =
    if i >= stop then None
    else
      let m = t.meta.(i) in
      match m.state with
      | Free when not (Dll.mem (free_list t m.size) i) ->
        Some (err "free frame %d (%a) not on its free list" i pp_size m.size)
      | Free | Allocated | Mapped _ | Merged _ -> unlisted (i + 1) stop
  in
  let* () =
    match scan t.first with
    | Some (j, e) -> Option.value (unlisted t.first j) ~default:e
    | None ->
      (* list members among the managed frames *)
      let listed size =
        let list = free_list t size in
        let n = ref (Dll.length list) in
        for i = 0 to t.first - 1 do
          if Dll.mem list i then decr n
        done;
        !n
      in
      if free.(0) = listed S4k && free.(1) = listed S2m && free.(2) = listed S1g then Ok ()
      else Option.get (unlisted t.first t.nframes)
  in
  (* Heads own their bodies: every non-head frame inside a live superpage
     block must be Merged into exactly that head. *)
  let rec bodies i j last =
    if j > last then Ok ()
    else
      match t.meta.(j).state with
      | Merged h when h = i -> bodies i (j + 1) last
      | st -> err "body frame %d of head %d is %a" j i pp_state st
  in
  List.fold_left
    (fun acc i ->
      let* () = acc in
      bodies i (i + 1) (min (i + frames_per t.meta.(i).size) t.nframes - 1))
    (Ok ()) (List.rev !heads)
