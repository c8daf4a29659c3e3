let is_armed = ref false
let holder : int option ref = ref None
let last_site = ref "<never held>"
let step_depth = ref 0
let sites : (string, int) Hashtbl.t = Hashtbl.create 8
let reported : (string, int) Hashtbl.t = Hashtbl.create 8

(* ------------------------------------------------------------------ *)
(* Fine-grained lock classes: the explicit hierarchy of the broken-up
   big lock.  Rank must strictly grow along any acquisition chain —
   cpu-queue (0) < endpoint shard (1) < map-writer (2) — which rules
   out the lock-order cycles that deadlock real fine-grained kernels.
   Each simulated CPU keeps its own held stack. *)

type klass = Cpu_queue of int | Endpoint_shard of int | Map_writer

let rank = function Cpu_queue _ -> 0 | Endpoint_shard _ -> 1 | Map_writer -> 2

let klass_name = function
  | Cpu_queue c -> Printf.sprintf "cpu-queue/%d" c
  | Endpoint_shard s -> Printf.sprintf "endpoint/%d" s
  | Map_writer -> "map-writer"

let class_stacks : (int, klass list) Hashtbl.t = Hashtbl.create 8
let class_held_total = ref 0

let stack_of cpu = Option.value ~default:[] (Hashtbl.find_opt class_stacks cpu)

let arm () =
  is_armed := true;
  holder := None;
  last_site := "<never held>";
  step_depth := 0;
  Hashtbl.reset sites;
  Hashtbl.reset reported;
  Hashtbl.reset class_stacks;
  class_held_total := 0

let disarm () = is_armed := false
let armed () = !is_armed
let held () = !holder <> None

let acquisitions () =
  Hashtbl.fold (fun site n acc -> (site, n) :: acc) sites []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let provenance () =
  let acq =
    match acquisitions () with
    | [] -> "no acquisitions yet"
    | l ->
      String.concat ", " (List.map (fun (s, n) -> Printf.sprintf "%s x%d" s n) l)
  in
  Printf.sprintf "last acquisition via %s; acquisitions: %s" !last_site acq

let acquire ~site ~cpu =
  if !is_armed then begin
    (match !holder with
     | Some other ->
       Report.record Report.Lock_misuse ~site ~page:(-1)
         ~detail:
           (Printf.sprintf "cpu %d acquired the big lock while cpu %d holds it (%s)" cpu
              other (provenance ()))
     | None -> ());
    holder := Some cpu;
    last_site := site;
    Hashtbl.replace sites site (1 + Option.value ~default:0 (Hashtbl.find_opt sites site))
  end

let release ~cpu =
  if !is_armed then
    match !holder with
    | None ->
      Report.record Report.Lock_misuse ~site:"release" ~page:(-1)
        ~detail:(Printf.sprintf "cpu %d released the big lock while nobody holds it" cpu)
    | Some _ -> holder := None

let locked ~site ~cpu f =
  acquire ~site ~cpu;
  Fun.protect ~finally:(fun () -> release ~cpu) f

(* ------------------------------------------------------------------ *)
(* Fine-grained acquisition/release against the rank hierarchy *)

let acquire_class ~site ~cpu k =
  if !is_armed then begin
    (match stack_of cpu with
     | top :: _ when rank top >= rank k ->
       Report.record Report.Lock_order ~site ~page:(-1)
         ~detail:
           (Printf.sprintf
              "cpu %d acquired %s while holding %s: rank must strictly grow \
               (cpu-queue < endpoint < map-writer)"
              cpu (klass_name k) (klass_name top))
     | _ -> ());
    Hashtbl.replace class_stacks cpu (k :: stack_of cpu);
    incr class_held_total;
    last_site := site;
    Hashtbl.replace sites site (1 + Option.value ~default:0 (Hashtbl.find_opt sites site))
  end

let release_class ~cpu k =
  if !is_armed then
    match stack_of cpu with
    | top :: rest when top = k ->
      Hashtbl.replace class_stacks cpu rest;
      decr class_held_total
    | _ ->
      Report.record Report.Lock_misuse ~site:"release_class" ~page:(-1)
        ~detail:
          (Printf.sprintf "cpu %d released %s it does not hold innermost" cpu
             (klass_name k))

let with_classes ~site ~cpu klasses f =
  List.iter (fun k -> acquire_class ~site ~cpu k) klasses;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun k -> release_class ~cpu k) (List.rev klasses))
    f

let enter_step () = incr step_depth
let exit_step () = if !step_depth > 0 then decr step_depth

let on_mutation ~site ~page ~detail =
  if !is_armed && !step_depth > 0 && !holder = None && !class_held_total = 0 then begin
    match Hashtbl.find_opt reported site with
    | Some n -> Hashtbl.replace reported site (n + 1)  (* dedup per site *)
    | None ->
      Hashtbl.replace reported site 1;
      Report.record Report.Unlocked_mutation ~site ~page
        ~detail:
          (if detail = "" then provenance () else detail ^ " (" ^ provenance () ^ ")")
  end
