include Set.Make (Int)

(* Views kept between checks are shared, so physically equal sets are
   common. *)
let equal a b = a == b || equal a b

let of_range ~lo ~hi =
  let rec go acc i = if i >= hi then acc else go (add i acc) (i + 1) in
  go empty lo

let pp ppf s =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Format.pp_print_int)
    (elements s)

let disjoint3 a b c = disjoint a b && disjoint a c && disjoint b c

let union_list l = List.fold_left union empty l

let pairwise_disjoint l =
  (* Linear-time check: the union of pairwise-disjoint sets has cardinal
     equal to the sum of cardinals. *)
  let total = List.fold_left (fun acc s -> acc + cardinal s) 0 l in
  cardinal (union_list l) = total
