include Set.Make (Int)

(* Views kept between checks are shared, so physically equal sets are
   common. *)
let equal a b = a == b || equal a b

(* [map] hands [s]'s elements to its function in increasing order and
   joins the results in place: values read in increasing order from
   [next] become a set over [s]'s shape in linear time. *)
let relabel s next = map (fun _ -> next ()) s

(* The strictly increasing [a.(lo)] .. [a.(hi - 1)].  The right half is
   built first, the left half over its shape (one element more when it
   is longer), and the two joined around the middle element: a union
   of disjoint ordered sets costs a few descents of their spines, so
   the whole build is linear. *)
let rec of_sorted_slice a lo hi =
  if hi - lo <= 8 then begin
    let s = ref empty in
    for i = lo to hi - 1 do
      s := add a.(i) !s
    done;
    !s
  end
  else begin
    let k = (hi - lo - 1) / 2 in
    let mid = hi - k - 1 in
    let right = of_sorted_slice a (mid + 1) hi in
    let i = ref lo in
    let left =
      relabel right (fun () ->
          let x = a.(!i) in
          incr i;
          x)
    in
    let left = if mid - lo > k then add a.(mid - 1) left else left in
    union left (add a.(mid) right)
  end

let of_sorted_list l =
  let a = Array.of_list l in
  of_sorted_slice a 0 (Array.length a)

(* One merge walk of [s] against [l] finds what changed.  A few
   changes are applied to [s], sharing the rest of its tree. *)
let of_sorted_over s l =
  let rest = ref l and added = ref [] and removed = ref [] and changes = ref 0 in
  let rec catch_up x =
    match !rest with
    | y :: tl when y < x ->
      rest := tl;
      added := y :: !added;
      incr changes;
      catch_up x
    | y :: tl when y = x -> rest := tl
    | _ ->
      removed := x :: !removed;
      incr changes
  in
  iter catch_up s;
  changes := !changes + List.length !rest;
  if !changes = 0 then s
  else if !changes <= 8 then
    List.fold_left (fun s x -> add x s) (List.fold_left (fun s x -> remove x s) s !removed)
      (!rest @ !added)
  else if List.compare_length_with l (cardinal s) = 0 then begin
    let rest = ref l in
    relabel s (fun () ->
        match !rest with
        | x :: tl ->
          rest := tl;
          x
        | [] -> assert false)
  end
  else of_sorted_list l

let of_range ~lo ~hi =
  let rec go acc i = if i >= hi then acc else go (add i acc) (i + 1) in
  go empty lo

let pp ppf s =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Format.pp_print_int)
    (elements s)

let union_list l = List.fold_left union empty l

let pairwise_disjoint l =
  (* Linear-time check: the union of pairwise-disjoint sets has cardinal
     equal to the sum of cardinals. *)
  let total = List.fold_left (fun acc s -> acc + cardinal s) 0 l in
  cardinal (union_list l) = total
