open Atmo_util
module Phys_mem = Atmo_hw.Phys_mem
module Pte_bits = Atmo_hw.Pte_bits
module Page_alloc = Atmo_pmem.Page_alloc
module Page_state = Atmo_pmem.Page_state
module Page_table = Atmo_pt.Page_table
module Perm_map = Atmo_pm.Perm_map
module Proc_mgr = Atmo_pm.Proc_mgr
module Process = Atmo_pm.Process
module Kernel = Atmo_core.Kernel

let is_armed = ref false
let attribution_on = ref false
let subject : Kernel.t option ref = ref None

(* Attribution snapshots are rebuilt lazily: any allocator event or
   permission-map mutation marks the mapping picture dirty, and the next
   step entry rebuilds.  Staleness is safe — unknown frames are skipped. *)
let attr_dirty = ref true

let perm_op : Perm_map.op -> string = function
  | Perm_map.Alloc -> "alloc"
  | Perm_map.Consume -> "consume"
  | Perm_map.Update -> "update"

let stream_key = "san"

let mutated site page = Lockcheck.on_mutation ~site ~page ~detail:""

let dispatch = function
  | Phys_mem.Access { mem; op; addr; len } ->
    Memsan.on_access mem op addr len;
    (match op with
     | Phys_mem.Read -> ()
     | Phys_mem.Write | Phys_mem.Zero -> mutated "phys.write" (Phys_mem.page_base addr))
  | Page_alloc.Alloc ev ->
    Memsan.on_event ev;
    attr_dirty := true;
    (match ev with
     | Page_alloc.Created _ -> ()
     | Page_alloc.Claim { addr; _ } -> mutated "pmem.claim" addr
     | Page_alloc.Free_request { addr; what; _ } -> mutated ("pmem." ^ what) addr
     | Page_alloc.Release { addr; _ } -> mutated "pmem.release" addr
     | Page_alloc.Merge { addr; _ } -> mutated "pmem.merge" addr
     | Page_alloc.Split { addr; _ } -> mutated "pmem.split" addr
     | Page_alloc.Share { addr; _ } -> mutated "pmem.inc_ref" addr)
  | Perm_map.Perm { name; op; ptr } ->
    attr_dirty := true;
    mutated (Printf.sprintf "pm.%s.%s" name (perm_op op)) ptr
  | _ -> ()

let build_attribution (k : Kernel.t) =
  let tbl : (int, Memsan.attr) Hashtbl.t = Hashtbl.create 256 in
  let add ~owner ~write frame =
    match Hashtbl.find_opt tbl frame with
    | None ->
      Hashtbl.replace tbl frame
        { Memsan.owners = Iset.singleton owner; writable = write }
    | Some a ->
      Hashtbl.replace tbl frame
        { Memsan.owners = Iset.add owner a.Memsan.owners;
          writable = a.Memsan.writable || write }
  in
  let add_space ~owner pt =
    Imap.iter
      (fun _va (e : Page_table.entry) ->
        let write = e.Page_table.perm.Pte_bits.write in
        for j = 0 to Page_state.frames_per e.Page_table.size - 1 do
          add ~owner ~write (e.Page_table.frame + (j * Phys_mem.page_size))
        done)
      (Page_table.address_space pt)
  in
  Perm_map.iter
    (fun _proc (p : Process.t) -> add_space ~owner:p.Process.owner_container p.Process.pt)
    k.Kernel.pm.Proc_mgr.proc_perms;
  Imap.iter
    (fun _dev (info : Kernel.device_info) ->
      add_space ~owner:info.Kernel.owner_container info.Kernel.io_pt)
    k.Kernel.devices;
  tbl

let step_observer k ~thread ~entering =
  if entering then begin
    Lockcheck.enter_step ();
    if !attribution_on then begin
      (match !subject with
       | Some s when s == k ->
         if !attr_dirty then begin
           attr_dirty := false;
           Memsan.suspend (fun () -> Memsan.set_attribution (Some (build_attribution k)))
         end
       | _ -> ());
      Memsan.set_context (Kernel.container_of_thread k ~thread)
    end
  end
  else begin
    Lockcheck.exit_step ();
    if !attribution_on then Memsan.set_context None
  end

let arm ?(poison = false) ?(lockcheck = false) ?(attribution = false) () =
  Report.clear ();
  Memsan.reset ~poison;
  if lockcheck then Lockcheck.arm () else Lockcheck.disarm ();
  attribution_on := attribution;
  attr_dirty := true;
  subject := None;
  Mutation.subscribe ~key:stream_key ~kinds:Mutation.[ Access; Alloc; Perm ] dispatch;
  Kernel.set_step_observer (Some step_observer);
  is_armed := true

let disarm () =
  Mutation.unsubscribe ~key:stream_key;
  Kernel.set_step_observer None;
  Lockcheck.disarm ();
  Memsan.reset ~poison:false;
  attribution_on := false;
  subject := None;
  is_armed := false

let armed () = !is_armed

let attach k =
  subject := Some k;
  attr_dirty := true;
  Memsan.track k.Kernel.alloc

let wf_check k =
  let before = Report.count () in
  Memsan.suspend (fun () ->
      List.iter
        (fun (e : Atmo_core.Invariants.entry) ->
          e.violations k (fun rule page detail -> Report.record rule ~site:e.name ~page ~detail))
        Atmo_core.Invariants.table);
  Report.count () - before

let full_check k =
  wf_check k + Tlb_lint.lint k + Span_lint.lint k + Driver_lint.lint k + Proof_lint.lint k
  + Watchdog_lint.lint k

let arm_of_env () =
  match Sys.getenv_opt "SAN" with
  | Some ("1" | "on" | "yes") -> arm ()
  | _ -> ()

let exit_check () =
  if !is_armed && Report.count () > 0 then begin
    Format.eprintf "atmo-san: %a@." Report.pp_summary ();
    exit 1
  end
