(** Development-effort data: Table 1 and Figure 3.

    Table 1 compares proof effort across verification projects using the
    ratios the paper reports for each system.  This reproduction also
    measures its own analogue — the ratio of specification/checking code
    to executable code in this repository — by counting source lines
    live at bench time.

    Figure 3 (the commit history of the three development versions) is
    reconstructed from the paper's §6.3 narrative: v1 (2 months, one
    person), a clean-slate v2 (8 months, two people), and v3 (4 months,
    ~50% reuse), ending at 6 K executable + 20.1 K proof lines. *)

type row = {
  system : string;
  language : string;
  spec_language : string;
  ratio : float;  (** proof-to-code *)
}

val table1 : row list
(** The published comparators (seL4, CertiKOS, SeKVM, Ironclad, NrOS,
    VeriSMo, Atmosphere). *)

type repo_stats = {
  spec_lines : int;  (** specification / invariant / checking code *)
  exec_lines : int;  (** executable substrate, kernel and application code *)
  kernel_lines : int;
      (** of those, the kernel's: lib/core, lib/pm, lib/pmem and lib/pt,
          what the paper's ~6 K executable lines count *)
  test_lines : int;
  ratio : float;  (** spec over all executable lines *)
  kernel_ratio : float;  (** spec over the kernel's executable lines *)
}

val measure_repo : root:string -> repo_stats option
(** Count this repository's own lines under [root]/lib and [root]/test;
    [None] when the sources are not reachable (e.g. installed binary). *)

type month_point = {
  month : int;  (** months since project start *)
  version : int;  (** 1, 2 or 3 *)
  exec_loc : int;
  proof_loc : int;
}

val fig3_series : month_point list
(** Monthly line counts reconstructing the shape of the paper's commit
    history: growth within versions, drops at the clean-slate rewrite
    boundaries, 50% reuse entering v3, converging to 6.0 K exec and
    20.1 K proof lines at month 14. *)
