(* Bit [i] of [bits] (bit [i land 7] of byte [i lsr 3]) stands for
   frame [base + i].  Bits past the range in the last byte are always
   clear, so two sets over the same range are equal iff their bitmaps
   are equal bytewise. *)
type t = {
  base : int;
  frames : int;
  bits : string;
  count : int;
}

let page_shift = 12
let page_size = 1 lsl page_shift

type draft = {
  b_base : int;
  b_frames : int;
  b_bits : Bytes.t;
  mutable b_count : int;
}

let draft ~lo ~hi =
  if lo < 0 || hi < lo then invalid_arg "Frame_set.draft: bad range";
  let n = hi - lo in
  { b_base = lo; b_frames = n; b_bits = Bytes.make ((n + 7) lsr 3) '\000'; b_count = 0 }

let popcount8 x =
  let x = x - ((x lsr 1) land 0x55) in
  let x = (x land 0x33) + ((x lsr 2) land 0x33) in
  (x + (x lsr 4)) land 0x0f

(* Set the bits [mask] of byte [k], counting only the newly set ones. *)
let set_bits b k mask =
  let byte = Char.code (Bytes.unsafe_get b.b_bits k) in
  if byte land mask <> mask then begin
    Bytes.unsafe_set b.b_bits k (Char.unsafe_chr (byte lor mask));
    b.b_count <- b.b_count + popcount8 (mask land lnot byte)
  end

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Are bytes [[k, stop)] all clear?  Eight at a time, then the tail. *)
let rec clear b k stop =
  if k + 8 <= stop then get64u b.b_bits k = 0L && clear b (k + 8) stop
  else k >= stop || (Bytes.unsafe_get b.b_bits k = '\000' && clear b (k + 1) stop)

(* Set every bit of bytes [[k, stop)]: when all are clear, as in a
   fresh draft, with one fill counted eight bits a byte. *)
let fill_bytes b k stop =
  if clear b k stop then begin
    Bytes.fill b.b_bits k (stop - k) '\255';
    b.b_count <- b.b_count + (8 * (stop - k))
  end
  else
    for j = k to stop - 1 do
      set_bits b j 0xff
    done

(* The partial bytes at either end are masked; the bytes between are
   filled whole. *)
let set_range b ~lo ~hi =
  if lo < b.b_base || hi > b.b_base + b.b_frames || hi < lo then
    invalid_arg (Printf.sprintf "Frame_set.set_range: [%d, %d) outside the range" lo hi);
  if hi > lo then begin
    let i = lo - b.b_base and j = hi - b.b_base in
    let klo = i lsr 3 and khi = (j - 1) lsr 3 in
    let head = 0xff land lnot ((1 lsl (i land 7)) - 1)
    and tail = 0xff lsr (7 - ((j - 1) land 7)) in
    if klo = khi then set_bits b klo (head land tail)
    else begin
      set_bits b klo head;
      fill_bytes b (klo + 1) khi;
      set_bits b khi tail
    end
  end

let freeze b =
  { base = b.b_base; frames = b.b_frames; bits = Bytes.unsafe_to_string b.b_bits; count = b.b_count }

let cardinal s = s.count

let flip s = function
  | [] -> s
  | frames ->
    let bits = Bytes.of_string s.bits and count = ref s.count in
    List.iter
      (fun f ->
        let i = f - s.base in
        if i < 0 || i >= s.frames then
          invalid_arg (Printf.sprintf "Frame_set.flip: frame %d outside the range" f);
        let byte = Char.code (Bytes.unsafe_get bits (i lsr 3)) and bit = 1 lsl (i land 7) in
        count := !count + if byte land bit = 0 then 1 else -1;
        Bytes.unsafe_set bits (i lsr 3) (Char.unsafe_chr (byte lxor bit)))
      frames;
    { s with bits = Bytes.unsafe_to_string bits; count = !count }

let mem_index s i =
  i >= 0
  && i lsr 3 < String.length s.bits
  && Char.code (String.unsafe_get s.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let mem s addr = addr land (page_size - 1) = 0 && mem_index s ((addr asr page_shift) - s.base)

let fold f s acc =
  let acc = ref acc in
  for byte = 0 to String.length s.bits - 1 do
    let v = Char.code (String.unsafe_get s.bits byte) in
    if v <> 0 then
      for bit = 0 to 7 do
        if v land (1 lsl bit) <> 0 then
          acc := f ((s.base + (byte lsl 3) + bit) lsl page_shift) !acc
      done
  done;
  !acc

(* Equal counts and one inclusion give equality, whatever the ranges.
   Views kept between checks are shared, so a set is often compared
   with itself. *)
let equal a b =
  a == b
  || (a.count = b.count
     &&
     if a.base = b.base && String.length a.bits = String.length b.bits then
       String.equal a.bits b.bits
     else fold (fun addr ok -> ok && mem b addr) a true)

let to_iset s = Iset.of_sorted_list (List.rev (fold List.cons s []))
