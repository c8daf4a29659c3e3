type row = {
  system : string;
  language : string;
  spec_language : string;
  ratio : float;
}

let table1 =
  [
    { system = "seL4"; language = "C+Asm"; spec_language = "Isabelle/HOL"; ratio = 20.0 };
    { system = "CertiKOS"; language = "C+Asm"; spec_language = "Coq"; ratio = 14.9 };
    { system = "SeKVM"; language = "C+Asm"; spec_language = "Coq"; ratio = 6.9 };
    { system = "Ironclad"; language = "Dafny"; spec_language = "Dafny"; ratio = 4.8 };
    { system = "NrOS"; language = "Rust"; spec_language = "Verus"; ratio = 10.0 };
    { system = "VeriSMo"; language = "Rust"; spec_language = "Verus"; ratio = 2.0 };
    { system = "Atmosphere"; language = "Rust"; spec_language = "Verus"; ratio = 3.32 };
  ]

type repo_stats = {
  spec_lines : int;
  exec_lines : int;
  kernel_lines : int;
  test_lines : int;
  ratio : float;
  kernel_ratio : float;
}

let contains path sub =
  let rec find i =
    i + String.length sub <= String.length path
    && (String.sub path i (String.length sub) = sub || find (i + 1))
  in
  String.length sub <= String.length path && find 0

(* Spec-side code: the abstract specification, the invariant/refinement
   checkers and the verification/noninterference harnesses.  Everything
   else under lib/ is executable substrate or application code. *)
let spec_side path =
  List.exists (contains path)
    [ "/spec/"; "/verif/"; "/ni/"; "invariants"; "pt_refine"; "nros_pt" ]

(* The kernel itself, what the paper's ~6 K executable lines count: the
   syscall layer, the process manager, the page allocator and the page
   tables.  The rest of lib/'s executable code models the hardware and
   devices, or traces, sanitizes, simulates and runs workloads. *)
let kernel_dirs = [ "lib/core/"; "lib/pm/"; "lib/pmem/"; "lib/pt/" ]

let count_lines file =
  try
    let ic = open_in file in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  with Sys_error _ -> 0

let rec walk dir f =
  match Sys.readdir dir with
  | entries ->
    Array.iter
      (fun entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then walk path f
        else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
        then f path)
      entries
  | exception Sys_error _ -> ()

let measure_repo ~root =
  let lib = Filename.concat root "lib" in
  if not (Sys.file_exists lib) then None
  else begin
    let spec = ref 0 and exec = ref 0 and kernel = ref 0 and test = ref 0 in
    walk lib (fun path ->
        let n = count_lines path in
        if spec_side path then spec := !spec + n
        else begin
          exec := !exec + n;
          if List.exists (contains path) kernel_dirs then kernel := !kernel + n
        end);
    let tests = Filename.concat root "test" in
    if Sys.file_exists tests then walk tests (fun path -> test := !test + count_lines path);
    let over n = if n = 0 then 0. else float_of_int !spec /. float_of_int n in
    Some
      {
        spec_lines = !spec;
        exec_lines = !exec;
        kernel_lines = !kernel;
        test_lines = !test;
        ratio = over !exec;
        kernel_ratio = over !kernel;
      }
  end

type month_point = {
  month : int;
  version : int;
  exec_loc : int;
  proof_loc : int;
}

(* Reconstruction of the §6.3 narrative (14 months of verified-kernel
   development): v1 months 0-1, clean-slate v2 months 2-9 (its first
   month starts near zero), v3 months 10-13 starting from ~50% of v2's
   code and converging to the published totals. *)
let fig3_series =
  let point month version exec_loc proof_loc = { month; version; exec_loc; proof_loc } in
  [
    point 0 1 400 900;
    point 1 1 900 2200;
    point 2 2 300 800;
    point 3 2 900 2600;
    point 4 2 1600 4700;
    point 5 2 2300 6900;
    point 6 2 3000 9200;
    point 7 2 3600 11400;
    point 8 2 4100 13200;
    point 9 2 4500 14800;
    point 10 3 2900 9600;
    point 11 3 4100 13500;
    point 12 3 5100 16900;
    point 13 3 6000 20100;
  ]
