(* The benchmark's own span recorder, used only by traced runs.

   A span is a layer call the benchmark makes (a Kernel.step, a NIC
   transfer, an α, ...): its name, host start and end on the monotonic
   clock, minor words allocated, its parent (the innermost open span),
   and the id of the operation it belongs to — every span of one
   request, syscall or transition carries the same op id.  Spans live in
   flat arrays; [flush] folds the current batch into per-name self-time
   totals (self = duration minus what the children cover) and keeps the
   batch for [write].  A disabled tracer records nothing. *)

type t = {
  on : bool;
  mutable labels : string array;
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable w0 : float array;
  mutable w1 : float array;
  stack : int array;
  mutable depth : int;
  mutable cur_op : int;  (** -1 outside an operation *)
  mutable op_root : int;  (** span that opened [cur_op] *)
  mutable next_op : int;
  (* per-name totals over every flushed batch *)
  mutable self_ns : float array;
  mutable self_words : float array;
  mutable calls : int array;
  (* the last flushed batch, for [write] *)
  mutable kept : (int * int * int * int * int * int) array;
}

let create ~on =
  let cap = if on then 1024 else 1 in
  {
    on;
    labels = [||];
    n = 0;
    name = Array.make cap 0;
    parent = Array.make cap 0;
    op = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    w0 = Array.make cap 0.;
    w1 = Array.make cap 0.;
    stack = Array.make 64 (-1);
    depth = 0;
    cur_op = -1;
    op_root = -1;
    next_op = 0;
    self_ns = [||];
    self_words = [||];
    calls = [||];
    kept = [||];
  }

(* Intern a span name; do this once per layer, outside timed regions. *)
let name t label =
  let rec find i =
    if i = Array.length t.labels then begin
      t.labels <- Array.append t.labels [| label |];
      t.self_ns <- Array.append t.self_ns [| 0. |];
      t.self_words <- Array.append t.self_words [| 0. |];
      t.calls <- Array.append t.calls [| 0 |];
      i
    end
    else if t.labels.(i) = label then i
    else find (i + 1)
  in
  find 0

let grow t =
  let cap = 2 * Array.length t.name in
  let ints a = Array.append a (Array.make (cap - Array.length a) 0) in
  let floats a = Array.append a (Array.make (cap - Array.length a) 0.) in
  t.name <- ints t.name;
  t.parent <- ints t.parent;
  t.op <- ints t.op;
  t.t0 <- ints t.t0;
  t.t1 <- ints t.t1;
  t.w0 <- floats t.w0;
  t.w1 <- floats t.w1

let open_span t id =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- id;
  t.parent.(i) <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
  t.op.(i) <- t.cur_op;
  t.stack.(t.depth) <- i;
  t.depth <- t.depth + 1;
  t.w0.(i) <- Gc.minor_words ();
  t.t0.(i) <- Harness.now_ns ();
  i

(* A span inside the current operation. *)
let enter t id = if t.on then open_span t id else -1

(* A span that starts a new operation: it and everything below it
   share a fresh op id. *)
let enter_op t id =
  if t.on then begin
    t.cur_op <- t.next_op;
    t.next_op <- t.next_op + 1;
    t.op_root <- open_span t id;
    t.op_root
  end
  else -1

let leave t i =
  if i >= 0 then begin
    t.t1.(i) <- Harness.now_ns ();
    t.w1.(i) <- Gc.minor_words ();
    t.depth <- t.depth - 1;
    if i = t.op_root then t.cur_op <- -1
  end

(* Fold the current batch into the per-name totals (outside timed
   regions) and keep it for [write]. *)
let flush t =
  if t.on && t.n > 0 then begin
    let n = t.n in
    let self = Array.init n (fun i -> float_of_int (t.t1.(i) - t.t0.(i))) in
    let words = Array.init n (fun i -> t.w1.(i) -. t.w0.(i)) in
    for i = 0 to n - 1 do
      let p = t.parent.(i) in
      if p >= 0 then begin
        self.(p) <- self.(p) -. float_of_int (t.t1.(i) - t.t0.(i));
        words.(p) <- words.(p) -. (t.w1.(i) -. t.w0.(i))
      end
    done;
    for i = 0 to n - 1 do
      let id = t.name.(i) in
      t.self_ns.(id) <- t.self_ns.(id) +. self.(i);
      t.self_words.(id) <- t.self_words.(id) +. words.(i);
      t.calls.(id) <- t.calls.(id) + 1
    done;
    t.kept <- Array.init n (fun i -> (t.op.(i), i, t.parent.(i), t.name.(i), t.t0.(i), t.t1.(i)));
    t.n <- 0
  end

let calls t id = if t.on then t.calls.(id) else 0
let total_self_ns t id = if t.on then t.self_ns.(id) else 0.

(* Mean self time / self minor words per call of a span name. *)
let mean_self_ns t id =
  if calls t id = 0 then 0. else t.self_ns.(id) /. float_of_int t.calls.(id)

let mean_self_words t id =
  if calls t id = 0 then 0. else t.self_words.(id) /. float_of_int t.calls.(id)

(* Write the last flushed batch as TSV: op id, span id, parent, name,
   start and end in monotonic nanoseconds. *)
let write t path =
  if t.on then begin
    let rec mkdirs d =
      if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
        mkdirs (Filename.dirname d);
        Sys.mkdir d 0o755
      end
    in
    mkdirs (Filename.dirname path);
    let oc = open_out path in
    output_string oc "op\tspan\tparent\tname\tstart_ns\tend_ns\n";
    Array.iter
      (fun (op, i, p, id, s, e) ->
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" op i p t.labels.(id) s e)
      t.kept;
    close_out oc
  end
