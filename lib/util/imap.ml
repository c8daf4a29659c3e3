include Map.Make (Int)

let dom m = fold (fun k _ acc -> Iset.add k acc) m Iset.empty

let keys m = List.map fst (bindings m)

(* One walk over both maps in key order. *)
let fold_diff f m m' acc =
  let open Seq in
  let rec go n n' acc =
    match (n, n') with
    | Nil, Nil -> acc
    | Cons ((k, v), r), Nil -> go (r ()) Nil (f k (Some v) None acc)
    | Nil, Cons ((k', v'), r') -> go Nil (r' ()) (f k' None (Some v') acc)
    | Cons ((k, v), r), Cons ((k', v'), r') ->
      if k < k' then go (r ()) n' (f k (Some v) None acc)
      else if k > k' then go n (r' ()) (f k' None (Some v') acc)
      else go (r ()) (r' ()) (if v == v' then acc else f k (Some v) (Some v') acc)
  in
  if m == m' then acc else go (to_seq m ()) (to_seq m' ()) acc

let equal eq m m' = m == m' || equal (fun a b -> a == b || eq a b) m m'

let same_on_complement ~eq m m' s =
  fold_diff
    (fun k a b ok ->
      ok
      && (Iset.mem k s
         || match (a, b) with Some a, Some b -> eq a b | None, _ | _, None -> false))
    m m' true
