open Atmo_util
module Phys_mem = Atmo_hw.Phys_mem
module Page_alloc = Atmo_pmem.Page_alloc
module Page_state = Atmo_pmem.Page_state

(* One shadow byte per 4 KiB frame:
     'u'  untracked (no judgement)
     'R'  reserved (boot image / per-CPU data, outside the allocator)
     'F'  free, never handed out since tracking began
     'f'  free, previously live
     'P'  free and filled with the poison byte
     'K'  live, holds a kernel object or page-table node
     'U'  live, user-mapped (refcounted)                              *)

type shadow = { mem : Phys_mem.t; codes : Bytes.t }

type attr = { owners : Iset.t; writable : bool }

let poison_byte = '\xa5'
let shadows : (int, shadow) Hashtbl.t = Hashtbl.create 4
let inhibit = ref 0
let poison_on = ref false
let n_checked = ref 0
let attribution : (int, attr) Hashtbl.t option ref = ref None
let context : int option ref = ref None

let reset ~poison =
  Hashtbl.reset shadows;
  inhibit := 0;
  poison_on := poison;
  n_checked := 0;
  attribution := None;
  context := None

let poisoning () = !poison_on
let tracking () = Hashtbl.length shadows > 0
let checked () = !n_checked

let suspend f =
  incr inhibit;
  Fun.protect ~finally:(fun () -> decr inhibit) f

let set_attribution a = attribution := a
let set_context c = context := c

(* Rebuild a shadow from the allocator's public per-frame state.  Frames
   outside the managed range are reserved; the history of currently-free
   frames is unknown, so they all become 'F' (an access is then reported
   as out-of-reservation rather than use-after-free — still a
   violation, just with coarser provenance). *)
let track alloc =
  let mem = Page_alloc.mem alloc in
  let n = Phys_mem.page_count mem in
  let codes = Bytes.make n 'R' in
  for i = 0 to n - 1 do
    let addr = Phys_mem.addr_of_index i in
    match Page_alloc.state_of alloc ~addr with
    | None -> ()
    | Some st ->
      let st =
        match st with
        | Page_state.Merged head ->
          (match Page_alloc.state_of alloc ~addr:(Phys_mem.addr_of_index head) with
           | Some s -> s
           | None -> st)
        | s -> s
      in
      Bytes.set codes i
        (match st with
         | Page_state.Free -> 'F'
         | Page_state.Allocated -> 'K'
         | Page_state.Mapped _ -> 'U'
         | Page_state.Merged _ -> 'F')
  done;
  Hashtbl.replace shadows (Phys_mem.uid mem) { mem; codes }

let op_site : Phys_mem.access_op -> string = function
  | Phys_mem.Read -> "phys.read"
  | Phys_mem.Write -> "phys.write"
  | Phys_mem.Zero -> "phys.zero"

let check_attr ~writing ~frame_addr ~site =
  match (!context, !attribution) with
  | Some c, Some tbl -> (
    match Hashtbl.find_opt tbl frame_addr with
    | None -> ()  (* frame mapped mid-syscall; snapshot is conservative *)
    | Some a ->
      if not (Iset.mem c a.owners) then
        Report.record Report.Foreign_page ~site ~page:frame_addr
          ~detail:(Printf.sprintf "container %d reached a frame it has no mapping of" c)
      else if writing && not a.writable then
        Report.record Report.Bad_write_ro ~site ~page:frame_addr
          ~detail:(Printf.sprintf "container %d stored through a read-only mapping" c))
  | _ -> ()

let on_access mem op addr len =
  if !inhibit = 0 then
    match Hashtbl.find_opt shadows (Phys_mem.uid mem) with
    | None -> ()
    | Some sh ->
      incr n_checked;
      let site = op_site op in
      let writing = match op with Phys_mem.Read -> false | _ -> true in
      let first = Phys_mem.page_index addr in
      let last = Phys_mem.page_index (addr + len - 1) in
      for i = first to last do
        let page = Phys_mem.addr_of_index i in
        match Bytes.get sh.codes i with
        | 'u' | 'R' | 'K' -> ()
        | 'U' -> check_attr ~writing ~frame_addr:page ~site
        | 'F' ->
          Report.record Report.Out_of_reservation ~site ~page
            ~detail:"access to a managed frame the allocator never handed out"
        | 'f' | 'P' ->
          Report.record Report.Use_after_free ~site ~page
            ~detail:"access to a frame after it returned to a free list"
        | _ -> ()
      done

let poison_fill = Bytes.make Phys_mem.page_size poison_byte

let poison_intact sh i =
  let b =
    suspend (fun () ->
        Phys_mem.blit_from sh.mem ~addr:(Phys_mem.addr_of_index i) ~len:Phys_mem.page_size)
  in
  Bytes.for_all (fun c -> c = poison_byte) b

(* Shadow transitions always run — even under {!suspend} — so the map
   stays in sync with the allocator; only the reporting is inhibited. *)
let on_event = function
  | Page_alloc.Created alloc -> track alloc
  | Page_alloc.Claim { alloc; addr; frames; purpose } -> (
    match Hashtbl.find_opt shadows (Phys_mem.uid (Page_alloc.mem alloc)) with
    | None -> ()
    | Some sh ->
      let live = match purpose with Page_alloc.Kernel -> 'K' | Page_alloc.User -> 'U' in
      let first = Phys_mem.page_index addr in
      for i = first to first + frames - 1 do
        (if !inhibit = 0 then
           match Bytes.get sh.codes i with
           | 'K' | 'U' ->
             Report.record Report.Claim_of_live ~site:"pmem.claim"
               ~page:(Phys_mem.addr_of_index i)
               ~detail:"allocator handed out a frame that was still live"
           | 'P' ->
             if not (poison_intact sh i) then
               Report.record Report.Poison_trample ~site:"pmem.claim"
                 ~page:(Phys_mem.addr_of_index i)
                 ~detail:"free-page poison was damaged while the frame was free"
           | _ -> ());
        Bytes.set sh.codes i live
      done)
  | Page_alloc.Free_request { alloc; addr; what } -> (
    match Hashtbl.find_opt shadows (Phys_mem.uid (Page_alloc.mem alloc)) with
    | None -> ()
    | Some sh ->
      let i = Phys_mem.page_index addr in
      if !inhibit = 0 && i >= 0 && i < Bytes.length sh.codes then (
        match Bytes.get sh.codes i with
        | 'F' | 'f' | 'P' ->
          Report.record Report.Double_free ~site:("pmem." ^ what)
            ~page:(Phys_mem.page_base addr)
            ~detail:"free request for a frame that is already free"
        | _ -> ()))
  | Page_alloc.Release { alloc; addr; frames } -> (
    match Hashtbl.find_opt shadows (Phys_mem.uid (Page_alloc.mem alloc)) with
    | None -> ()
    | Some sh ->
      let first = Phys_mem.page_index addr in
      for i = first to first + frames - 1 do
        if !poison_on then begin
          suspend (fun () ->
              Phys_mem.blit_to sh.mem ~addr:(Phys_mem.addr_of_index i) poison_fill);
          Bytes.set sh.codes i 'P'
        end
        else Bytes.set sh.codes i 'f'
      done)
  | Page_alloc.Merge _ | Page_alloc.Split _ | Page_alloc.Share _ ->
    (* free frames stay free, mapped frames stay mapped *)
    ()
