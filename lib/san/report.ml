type rule = Atmo_util.Violation.rule =
  | Use_after_free | Double_free | Out_of_reservation | Poison_trample | Claim_of_live
  | Bad_write_ro | Foreign_page | Unlocked_mutation | Lock_misuse | Leak | Phantom_page
  | Mapped_leak | Malformed_pte | Pt_bad_level | Pt_misaligned_superpage | Pt_alias
  | Pt_bad_leaf_state | Tlb_stale | Sched_incoherent | Span_leak | Drv_undefined_state
  | Drv_dma_escape | Drv_irq_storm | Drv_lost_completion | Stale_proof | Lock_order
  | Queue_corrupt | Lost_steal | Watchdog_silent | Ill_formed

let rule_name = Atmo_util.Violation.rule_name

type t = {
  rule : rule;
  site : string;
  page : int;
  detail : string;
  trail : Atmo_obs.Event.record list;
}

(* Stored newest-first; [reports] reverses.  The cap keeps a runaway
   violation source (e.g. every access of a hot loop) from retaining
   unbounded reports; [total] still counts everything. *)
let cap = 256
let stored : t list ref = ref []
let n_stored = ref 0
let total = ref 0
let trail_length = ref 8

let trail_now () =
  if not (Atmo_obs.Sink.tracing ()) then []
  else begin
    let recs = Atmo_obs.Sink.records () in
    let n = List.length recs in
    let keep = !trail_length in
    if n <= keep then recs
    else
      List.filteri (fun i _ -> i >= n - keep) recs
  end

let record rule ~site ~page ~detail =
  incr total;
  if !n_stored < cap then begin
    incr n_stored;
    stored := { rule; site; page; detail; trail = trail_now () } :: !stored
  end

let count () = !total
let reports () = List.rev !stored

let clear () =
  stored := [];
  n_stored := 0;
  total := 0

let pp ppf r =
  Format.fprintf ppf "@[<v 2>%s at %s" (rule_name r.rule) r.site;
  if r.page >= 0 then Format.fprintf ppf ", page 0x%x" r.page;
  if r.detail <> "" then Format.fprintf ppf ": %s" r.detail;
  (match r.trail with
   | [] -> ()
   | trail ->
     Format.fprintf ppf "@,recent events:";
     List.iter
       (fun rec_ -> Format.fprintf ppf "@,  %a" Atmo_obs.Event.pp_record rec_)
       trail);
  Format.fprintf ppf "@]"

let pp_summary ppf () =
  let rs = reports () in
  let by_rule = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let k = rule_name r.rule in
      Hashtbl.replace by_rule k (1 + Option.value ~default:0 (Hashtbl.find_opt by_rule k)))
    rs;
  Format.fprintf ppf "@[<v>%d violation(s)" !total;
  Hashtbl.iter (fun k n -> Format.fprintf ppf "@,  %-24s %d" k n) by_rule;
  List.iter (fun r -> Format.fprintf ppf "@,%a" pp r) rs;
  Format.fprintf ppf "@]"
