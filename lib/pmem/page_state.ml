type size = S4k | S2m | S1g

let frames_per = function S4k -> 1 | S2m -> 512 | S1g -> 512 * 512
let bytes_per s = frames_per s * 4096

let pp_size ppf = function
  | S4k -> Format.pp_print_string ppf "4K"
  | S2m -> Format.pp_print_string ppf "2M"
  | S1g -> Format.pp_print_string ppf "1G"

let equal_size (a : size) b = a = b

type state =
  | Free
  | Allocated
  | Mapped of int
  | Merged of int

let pp_state ppf = function
  | Free -> Format.pp_print_string ppf "free"
  | Allocated -> Format.pp_print_string ppf "allocated"
  | Mapped n -> Format.fprintf ppf "mapped(rc=%d)" n
  | Merged h -> Format.fprintf ppf "merged(head=%d)" h

let equal_state (a : state) b = a = b
