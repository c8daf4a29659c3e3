(* Post-mortem profiler: rebuild span trees and causal edges from a
   decoded flight-recorder stream, then fold them into collapsed
   stacks (flamegraph-compatible), a self/total table per span kind,
   and request-path reachability across causal edges.

   The ring may have wrapped: a [Span_end] whose begin was overwritten
   is dropped; a [Span_begin] with no end is kept as a truncated span
   (end = begin).  Parent links come from the events themselves, not
   from replaying stacks, so partial streams degrade gracefully. *)

type span = {
  id : int;
  kind : int;
  owner : int;
  cpu : int;
  t0 : int;
  mutable t1 : int;
  parent : int;
  mutable children : int list;  (* reverse begin order *)
  mutable ended : bool;
}

type edge = { ekind : int; src : int; dst : int; ets : int }

type t = {
  spans : (int, span) Hashtbl.t;
  mutable roots : int list;
  mutable edges : edge list;
  mutable truncated : int;  (* Span_end with no matching begin *)
}

let build records =
  let t = { spans = Hashtbl.create 256; roots = []; edges = []; truncated = 0 } in
  List.iter
    (fun (r : Event.record) ->
      match r.ev with
      | Event.Span_begin { span; parent; kind; owner } ->
        Hashtbl.replace t.spans span
          { id = span; kind; owner; cpu = r.cpu; t0 = r.ts; t1 = r.ts; parent;
            children = []; ended = false }
      | Event.Span_end { span; _ } -> begin
        match Hashtbl.find_opt t.spans span with
        | Some s ->
          s.t1 <- max s.t0 r.ts;
          s.ended <- true
        | None -> t.truncated <- t.truncated + 1
      end
      | Event.Causal { edge; src; dst } ->
        t.edges <- { ekind = edge; src; dst; ets = r.ts } :: t.edges
      | _ -> ())
    records;
  Hashtbl.iter
    (fun id s ->
      match Hashtbl.find_opt t.spans s.parent with
      | Some p when s.parent <> 0 -> p.children <- id :: p.children
      | _ -> t.roots <- id :: t.roots)
    t.spans;
  t.roots <- List.sort compare t.roots;
  Hashtbl.iter (fun _ s -> s.children <- List.sort compare s.children) t.spans;
  t.edges <- List.rev t.edges;
  t

let find t id = Hashtbl.find_opt t.spans id
let spans t = Hashtbl.fold (fun _ s acc -> s :: acc) t.spans [] |> List.sort compare
let roots t = t.roots
let edges t = t.edges
let truncated t = t.truncated
let span_count t = Hashtbl.length t.spans

let duration s = max 0 (s.t1 - s.t0)

let children_duration t s =
  List.fold_left
    (fun acc c -> match find t c with Some cs -> acc + duration cs | None -> acc)
    0 s.children

let self_cycles t s = max 0 (duration s - children_duration t s)

(* ------------------------------------------------------------------ *)
(* Collapsed stacks                                                    *)

(* One line per distinct root-to-span kind path, weighted by summed
   self cycles — the folded format flamegraph.pl and speedscope eat.
   Zero-weight paths are kept when the span exists so structure-only
   (zero-duration) kernel spans still show up in the tree. *)
let collapsed t =
  let acc : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let rec walk path id =
    match find t id with
    | None -> ()
    | Some s ->
      let path = if path = "" then Span.label_of_code s.kind
                 else path ^ ";" ^ Span.label_of_code s.kind in
      let self = self_cycles t s in
      Hashtbl.replace acc path ((try Hashtbl.find acc path with Not_found -> 0) + self);
      List.iter (walk path) s.children
  in
  List.iter (walk "") t.roots;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Per-kind self/total table                                           *)

type kind_stat = {
  klabel : string;
  count : int;
  self : int;
  total : int;  (* summed durations; nested same-kind spans count twice *)
}

let kind_table t =
  let acc : (int, int * int * int) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ s ->
      let c, sf, tt = try Hashtbl.find acc s.kind with Not_found -> (0, 0, 0) in
      Hashtbl.replace acc s.kind (c + 1, sf + self_cycles t s, tt + duration s))
    t.spans;
  Hashtbl.fold
    (fun kind (count, self, total) l ->
      { klabel = Span.label_of_code kind; count; self; total } :: l)
    acc []
  |> List.sort (fun a b ->
         match compare b.self a.self with 0 -> compare a.klabel b.klabel | c -> c)

(* ------------------------------------------------------------------ *)
(* Reachability across trees + causal edges                            *)

let reachable t ~from =
  let adj : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let add a b =
    if a <> 0 && b <> 0 then begin
      Hashtbl.replace adj a (b :: (try Hashtbl.find adj a with Not_found -> []));
      Hashtbl.replace adj b (a :: (try Hashtbl.find adj b with Not_found -> []))
    end
  in
  Hashtbl.iter
    (fun id s ->
      if s.parent <> 0 && Hashtbl.mem t.spans s.parent then add id s.parent)
    t.spans;
  List.iter (fun e -> add e.src e.dst) t.edges;
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec go id =
    if (not (Hashtbl.mem seen id)) && Hashtbl.mem t.spans id then begin
      Hashtbl.replace seen id ();
      List.iter go (try Hashtbl.find adj id with Not_found -> [])
    end
  in
  go from;
  Hashtbl.fold (fun id () acc -> id :: acc) seen [] |> List.sort compare

(* Edges whose both endpoints lie inside a span-id set. *)
let edges_within t ids =
  let mem = Hashtbl.create (List.length ids) in
  List.iter (fun id -> Hashtbl.replace mem id ()) ids;
  List.filter (fun e -> Hashtbl.mem mem e.src && Hashtbl.mem mem e.dst) t.edges

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)

let pp_kind_table ppf t =
  Format.fprintf ppf "%-18s %8s %12s %12s@." "span kind" "count" "self" "total";
  List.iter
    (fun k -> Format.fprintf ppf "%-18s %8d %12d %12d@." k.klabel k.count k.self k.total)
    (kind_table t)
