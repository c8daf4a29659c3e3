(* Bit [i] of [bits] (bit [i land 7] of byte [i lsr 3]) stands for
   frame [base + i].  Bits past the range in the last byte are always
   clear, so two sets over the same range are equal iff their bitmaps
   are equal bytewise. *)
type t = {
  base : int;
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

let set_range b ~lo ~hi =
  if lo < b.b_base || hi > b.b_base + b.b_frames || hi < lo then
    invalid_arg (Printf.sprintf "Frame_set.set_range: [%d, %d) outside the range" lo hi);
  for i = lo - b.b_base to hi - b.b_base - 1 do
    let byte = Char.code (Bytes.unsafe_get b.b_bits (i lsr 3)) in
    let bit = 1 lsl (i land 7) in
    if byte land bit = 0 then begin
      Bytes.unsafe_set b.b_bits (i lsr 3) (Char.unsafe_chr (byte lor bit));
      b.b_count <- b.b_count + 1
    end
  done

let freeze b =
  { base = b.b_base; bits = Bytes.unsafe_to_string b.b_bits; count = b.b_count }

let cardinal s = s.count

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

(* Equal counts and one inclusion give equality, whatever the ranges. *)
let equal a b =
  a.count = b.count
  &&
  if a.base = b.base && String.length a.bits = String.length b.bits then
    String.equal a.bits b.bits
  else fold (fun addr ok -> ok && mem b addr) a true

let to_iset s = fold Iset.add s Iset.empty
