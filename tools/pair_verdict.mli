(** The verdict of a paired comparison on one end-to-end metric
    (`make perf-pairs`): base and change runs, paired in run order. *)

type outcome =
  | Within_bound  (** the change's median is no worse than the base's by more than the bound *)
  | Worse  (** worse than the base's median by more than the bound *)
  | Unresolved
      (** the base's own spread, its inter-quartile range over its
          median, exceeds the bound, and not every change run beats
          every base run: the runs cannot tell *)

val wins_needed : int -> int
(** Wins a gain needs out of that many pairs: nine of every ten,
    rounded up. *)

type t = {
  wins : int;  (** pairs in which the change read better; ties count for neither side *)
  delta : float;  (** (change median - base median) / |base median|, 0 if that is 0 *)
  spread : float;  (** the base's inter-quartile range / |its median|, 0 if that is 0 *)
  gain : bool;
      (** at least {!wins_needed} wins, and the change's median beats
          the base's by more than the base's inter-quartile range *)
  outcome : outcome;
}

val judge : higher:bool -> bound:float -> base:float list -> change:float list -> t
(** [judge ~higher ~bound ~base ~change]: [higher] tells which way is
    better, [bound] is the metric's fractional bound from
    BENCHMARK.json.  [base] and [change] have one value per pair. *)
