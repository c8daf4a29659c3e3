(* Monotonic counters and log2-bucketed latency histograms, with a
   process-global registry keyed by name.  Values are cycle-clock deltas
   (or any non-negative integer); bucket [i] covers [2^i, 2^(i+1)), with
   bucket 0 absorbing 0 and 1. *)

module Counter = struct
  type t = { name : string; mutable v : int }

  let make name = { name; v = 0 }
  let name t = t.name
  let add t by = if by > 0 then t.v <- t.v + by
  let incr ?(by = 1) t = add t by
  let value t = t.v
  let reset t = t.v <- 0
end

module Histogram = struct
  let bucket_count = 63

  type t = {
    name : string;
    counts : int array;
    mutable n : int;
    mutable sum : int;
    mutable vmin : int;
    mutable vmax : int;
  }

  let make name =
    { name; counts = Array.make bucket_count 0; n = 0; sum = 0; vmin = max_int; vmax = 0 }

  let name t = t.name

  let bucket_of v =
    if v <= 1 then 0
    else begin
      let b = ref 0 in
      let x = ref v in
      while !x > 1 do
        incr b;
        x := !x lsr 1
      done;
      min !b (bucket_count - 1)
    end

  let observe t v =
    let v = max 0 v in
    t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum + v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v

  let count t = t.n
  let sum t = t.sum
  let mean t = if t.n = 0 then 0. else float_of_int t.sum /. float_of_int t.n
  let min_value t = if t.n = 0 then 0 else t.vmin
  let max_value t = t.vmax

  (* Upper edge of the bucket holding the q-th ranked observation,
     clamped to the observed extremes.  Monotone in q by construction
     (cumulative counts are non-decreasing). *)
  let quantile t q =
    if t.n = 0 then 0
    else begin
      let q = Float.min 1. (Float.max 0. q) in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int t.n))) in
      let rec go i cum =
        if i >= bucket_count then t.vmax
        else begin
          let cum = cum + t.counts.(i) in
          if cum >= rank then
            let upper = if i >= 62 then max_int else (1 lsl (i + 1)) - 1 in
            max (min upper t.vmax) (min_value t)
          else go (i + 1) cum
        end
      in
      go 0 0
    end

  let p50 t = quantile t 0.50
  let p90 t = quantile t 0.90
  let p99 t = quantile t 0.99

  let reset t =
    Array.fill t.counts 0 bucket_count 0;
    t.n <- 0;
    t.sum <- 0;
    t.vmin <- max_int;
    t.vmax <- 0

  let buckets t = Array.copy t.counts

  (* Accumulate [src] into [dst] bucket-by-bucket: per-CPU shards share
     the bucket edges, so merging loses no precision — every sample
     lands in the same bucket it was observed into. *)
  let merge ~into src =
    if into != src then begin
      for i = 0 to bucket_count - 1 do
        into.counts.(i) <- into.counts.(i) + src.counts.(i)
      done;
      into.n <- into.n + src.n;
      into.sum <- into.sum + src.sum;
      if src.n > 0 then begin
        if src.vmin < into.vmin then into.vmin <- src.vmin;
        if src.vmax > into.vmax then into.vmax <- src.vmax
      end
    end

  let pp_row ppf t =
    Format.fprintf ppf "%-26s %8d %12.1f %10d %10d %10d %10d" t.name t.n (mean t)
      (p50 t) (p90 t) (p99 t) (max_value t)
end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let counters : (string, Counter.t) Hashtbl.t = Hashtbl.create 32
let histograms : (string, Histogram.t) Hashtbl.t = Hashtbl.create 32

(* Name-sorted view of one table, rebuilt only when a registration
   lands.  Snapshots, dumps and window closes walk the view instead of
   folding and re-sorting the table each time.  A rebuild makes a fresh
   [names] array and never mutates an old one, so a snapshot can share
   the array it was taken against and two snapshots of one registry
   generation share it physically. *)
type 'a view = { mutable names : string array; mutable items : 'a array; mutable stale : bool }

let counter_view = { names = [||]; items = [||]; stale = false }
let hist_view = { names = [||]; items = [||]; stale = false }

let sorted tbl v =
  if v.stale then begin
    let l =
      Hashtbl.fold (fun k x acc -> (k, x) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    v.names <- Array.of_list (List.map fst l);
    v.items <- Array.of_list (List.map snd l);
    v.stale <- false
  end;
  v

let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = Counter.make name in
    Hashtbl.replace counters name c;
    counter_view.stale <- true;
    c

let histogram name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
    let h = Histogram.make name in
    Hashtbl.replace histograms name h;
    hist_view.stale <- true;
    h

let bump ?by name = Counter.incr ?by (counter name)
let observe name v = Histogram.observe (histogram name) v

let bindings tbl v =
  let v = sorted tbl v in
  List.init (Array.length v.items) (fun i -> (v.names.(i), v.items.(i)))

let all_counters () = bindings counters counter_view
let all_histograms () = bindings histograms hist_view

(* Zero values in place rather than dropping registrations: hot paths
   (the MMU, the TLB) hold counter handles obtained once at module
   initialisation, and those must keep feeding the registry across
   resets. *)
let reset () =
  Hashtbl.iter (fun _ c -> Counter.reset c) counters;
  Hashtbl.iter (fun _ h -> Histogram.reset h) histograms

(* Deterministic full-registry snapshot: both tables sorted by name,
   zero-valued entries included, so two dumps of identical registries
   compare equal regardless of hash-table insertion order. *)
let dump () =
  let b = Buffer.create 512 in
  List.iter
    (fun (name, c) -> Buffer.add_string b (Printf.sprintf "counter %s %d\n" name (Counter.value c)))
    (all_counters ());
  List.iter
    (fun (name, h) ->
      Buffer.add_string b
        (Printf.sprintf "histogram %s count=%d sum=%d min=%d p50=%d p99=%d max=%d\n" name
           (Histogram.count h) (Histogram.sum h) (Histogram.min_value h) (Histogram.p50 h)
           (Histogram.p99 h) (Histogram.max_value h)))
    (all_histograms ());
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Snapshots and deltas                                                *)

(* A snapshot is a deterministic copy of the whole registry in flat
   arrays, in the registry's name-sorted order: counter values, and per
   histogram its bucket counts (laid end to end, [bucket_count] each),
   sample count and sum.  The name arrays are the registry views', shared
   rather than copied.  Snapshots and deltas are one type: a delta is the
   same arrays holding increments.

   [take_into] and [diff_into] overwrite a caller-owned snapshot, reusing
   its arrays while the registry keeps its shape, so a window close
   that snapshots and diffs into reused slots allocates nothing.  [diff]
   is element-wise when both sides share the name arrays (no
   registration in between), and a merge-join over the sorted names
   otherwise; it clamps negative deltas to zero so a [reset] landing
   between two snapshots degrades to an empty window instead of
   nonsense. *)
module Snapshot = struct
  type hist = { counts : int array; n : int; sum : int }

  type t = {
    mutable cnames : string array;
    mutable cvals : int array;
    mutable hnames : string array;
    mutable hcounts : int array;
    mutable hn : int array;
    mutable hsum : int array;
  }

  let bc = Histogram.bucket_count

  let create () =
    { cnames = [||]; cvals = [||]; hnames = [||]; hcounts = [||]; hn = [||]; hsum = [||] }

  let sized a n = if Array.length a = n then a else Array.make n 0

  let shape t ~nc ~nh =
    t.cvals <- sized t.cvals nc;
    t.hcounts <- sized t.hcounts (nh * bc);
    t.hn <- sized t.hn nh;
    t.hsum <- sized t.hsum nh

  let take_into t =
    let cv = sorted counters counter_view and hv = sorted histograms hist_view in
    let nc = Array.length cv.items and nh = Array.length hv.items in
    shape t ~nc ~nh;
    t.cnames <- cv.names;
    t.hnames <- hv.names;
    for i = 0 to nc - 1 do
      t.cvals.(i) <- Counter.value cv.items.(i)
    done;
    for i = 0 to nh - 1 do
      let h = hv.items.(i) in
      Array.blit h.Histogram.counts 0 t.hcounts (i * bc) bc;
      t.hn.(i) <- h.Histogram.n;
      t.hsum.(i) <- h.Histogram.sum
    done

  let take () =
    let t = create () in
    take_into t;
    t

  (* For each index of [cur]'s names, the index of the same name in
     [base]'s, or -1: registrations never drop, so [cur]'s names are a
     superset and one forward pass matches them. *)
  let iter_matched base_names cur_names f =
    if base_names == cur_names then Array.iteri (fun i _ -> f i i) cur_names
    else begin
      let nb = Array.length base_names in
      let j = ref 0 in
      Array.iteri
        (fun i name ->
          while !j < nb && String.compare base_names.(!j) name < 0 do
            incr j
          done;
          if !j < nb && String.equal base_names.(!j) name then begin
            f i !j;
            incr j
          end
          else f i (-1))
        cur_names
    end

  let diff_into ~base cur d =
    let nc = Array.length cur.cnames and nh = Array.length cur.hnames in
    shape d ~nc ~nh;
    d.cnames <- cur.cnames;
    d.hnames <- cur.hnames;
    iter_matched base.cnames cur.cnames (fun i j ->
        let b = if j < 0 then 0 else base.cvals.(j) in
        d.cvals.(i) <- max 0 (cur.cvals.(i) - b));
    iter_matched base.hnames cur.hnames (fun i j ->
        let n = ref 0 in
        for k = 0 to bc - 1 do
          let b = if j < 0 then 0 else base.hcounts.((j * bc) + k) in
          let v = max 0 (cur.hcounts.((i * bc) + k) - b) in
          d.hcounts.((i * bc) + k) <- v;
          n := !n + v
        done;
        d.hn.(i) <- !n;
        d.hsum.(i) <- max 0 (cur.hsum.(i) - if j < 0 then 0 else base.hsum.(j)))

  let diff ~base cur =
    let d = create () in
    diff_into ~base cur d;
    d

  let copy t =
    {
      cnames = t.cnames;
      cvals = Array.copy t.cvals;
      hnames = t.hnames;
      hcounts = Array.copy t.hcounts;
      hn = Array.copy t.hn;
      hsum = Array.copy t.hsum;
    }

  (* Binary search in a name-sorted array; -1 when absent. *)
  let index names name =
    let rec go lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) lsr 1 in
        let c = String.compare names.(mid) name in
        if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length names)

  let hist_at t i = { counts = Array.sub t.hcounts (i * bc) bc; n = t.hn.(i); sum = t.hsum.(i) }

  let counter t name =
    let i = index t.cnames name in
    if i < 0 then 0 else t.cvals.(i)

  let hist t name =
    let i = index t.hnames name in
    if i < 0 then None else Some (hist_at t i)

  let counter_names t = t.cnames
  let counter_value t i = t.cvals.(i)
  let counters t = List.init (Array.length t.cnames) (fun i -> (t.cnames.(i), t.cvals.(i)))
  let hists t = List.init (Array.length t.hnames) (fun i -> (t.hnames.(i), hist_at t i))

  let merge_hists hs =
    let acc = { counts = Array.make Histogram.bucket_count 0; n = 0; sum = 0 } in
    List.fold_left
      (fun acc h ->
        for i = 0 to Histogram.bucket_count - 1 do
          acc.counts.(i) <- acc.counts.(i) + h.counts.(i)
        done;
        { acc with n = acc.n + h.n; sum = acc.sum + h.sum })
      acc hs

  (* Same bucket walk as [Histogram.quantile] minus the observed-extreme
     clamp (a delta has no extremes): the result is the upper edge of
     the selected bucket, so it lands in the same log2 bucket as the
     exact-valued quantile over the same samples. *)
  let quantile h q =
    if h.n <= 0 then 0
    else begin
      let q = Float.min 1. (Float.max 0. q) in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int h.n))) in
      let rec go i cum =
        if i >= Histogram.bucket_count then max_int
        else begin
          let cum = cum + h.counts.(i) in
          if cum >= rank then if i >= 62 then max_int else (1 lsl (i + 1)) - 1
          else go (i + 1) cum
        end
      in
      go 0 0
    end
end

let pp_table ppf () =
  let hs = List.filter (fun (_, h) -> Histogram.count h > 0) (all_histograms ()) in
  if hs <> [] then begin
    Format.fprintf ppf "%-26s %8s %12s %10s %10s %10s %10s@." "histogram" "count"
      "mean" "p50" "p90" "p99" "max";
    List.iter (fun (_, h) -> Format.fprintf ppf "%a@." Histogram.pp_row h) hs
  end;
  let cs = List.filter (fun (_, c) -> Counter.value c > 0) (all_counters ()) in
  if cs <> [] then begin
    Format.fprintf ppf "%-26s %8s@." "counter" "value";
    List.iter
      (fun (name, c) -> Format.fprintf ppf "%-26s %8d@." name (Counter.value c))
      cs
  end
