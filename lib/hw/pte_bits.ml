type perm = {
  write : bool;
  user : bool;
  execute : bool;
}

let perm_rw = { write = true; user = true; execute = false }
let perm_ro = { write = false; user = true; execute = false }
let perm_rx = { write = false; user = true; execute = true }

let pp_perm ppf p =
  Format.fprintf ppf "%c%c%c"
    (if p.write then 'w' else '-')
    (if p.user then 'u' else '-')
    (if p.execute then 'x' else '-')

let equal_perm a b =
  a.write = b.write && a.user = b.user && a.execute = b.execute

let bit_present = 0x1L
let bit_write = 0x2L
let bit_user = 0x4L
let bit_huge = 0x80L
let bit_nx = Int64.shift_left 1L 63
let addr_mask = 0x000f_ffff_ffff_f000L

let ( &: ) = Int64.logand
let ( |: ) = Int64.logor

let make ~addr ~perm ~huge =
  if addr land 0xfff <> 0 then invalid_arg "Pte_bits.make: unaligned address";
  let e = ref (Int64.of_int addr &: addr_mask |: bit_present) in
  if perm.write then e := !e |: bit_write;
  if perm.user then e := !e |: bit_user;
  if not perm.execute then e := !e |: bit_nx;
  if huge then e := !e |: bit_huge;
  !e

let make_table ~addr =
  if addr land 0xfff <> 0 then invalid_arg "Pte_bits.make_table: unaligned address";
  Int64.of_int addr &: addr_mask |: bit_present |: bit_write |: bit_user

let not_present = 0L

let is_present e = e &: bit_present <> 0L
let is_huge e = e &: bit_huge <> 0L

let reserved_mask =
  Int64.lognot (bit_present |: bit_write |: bit_user |: bit_huge |: bit_nx |: addr_mask)

let has_reserved e = e &: reserved_mask <> 0L
let addr_of e = Int64.to_int (e &: addr_mask)

let perm_of e =
  {
    write = e &: bit_write <> 0L;
    user = e &: bit_user <> 0L;
    execute = e &: bit_nx = 0L;
  }
