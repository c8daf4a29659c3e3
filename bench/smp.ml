(* smp: the broken-up big lock — scaling curve plus the on/off oracle.

   The kv-style IPC workload: 8 sender/receiver pairs, one endpoint
   each, ~500 user cycles of think per kernel entry.  Under the big
   lock, kernel time serializes machine-wide and the curve saturates
   near 1.5x; under the fine-grained regime each pair serializes only
   on its endpoint shard and its CPUs, so the curve tracks the CPU
   count.  Both regimes drive the identical kernel — the oracle
   asserts bit-identical returns, scheduling decisions and abstract
   state at every point of the curve. *)

open Common

let smp_pairs = 8
let smp_think = 500

let smp_build_world () =
  let boot_params =
    { Kernel.default_boot with Kernel.cpus = Atmo_util.Iset.of_range ~lo:0 ~hi:8 }
  in
  match Kernel.boot boot_params with
  | Error e -> Error (Format.asprintf "boot: %a" Atmo_util.Errno.pp e)
  | Ok (k, init) ->
    let pm = k.Kernel.pm in
    let new_thread () =
      match Kernel.step k ~thread:init Syscall.New_thread with
      | Syscall.Rptr t -> t
      | r -> failwith (Format.asprintf "new_thread -> %a" Syscall.pp_ret r)
    in
    let programs =
      List.concat
        (List.init smp_pairs (fun p ->
             let receiver = new_thread () in
             let sender = new_thread () in
             let ep =
               match Kernel.step k ~thread:init (Syscall.New_endpoint { slot = p }) with
               | Syscall.Rptr e -> e
               | r -> failwith (Format.asprintf "new_endpoint -> %a" Syscall.pp_ret r)
             in
             List.iter
               (fun th -> Atmo_pm.Proc_mgr.install_descriptor pm ~thread:th ~slot:0 ~endpoint:ep)
               [ receiver; sender ];
             [
               { Atmo_sim.Smp.thread = receiver; think_cycles = smp_think;
                 call_of = (fun _ -> Syscall.Recv { slot = 0 }) };
               { Atmo_sim.Smp.thread = sender; think_cycles = smp_think;
                 call_of =
                   (fun i ->
                     Syscall.Send { slot = 0; msg = Message.scalars_only [ (p * 1000) + i ] }) };
             ]))
    in
    Ok (k, programs)

(* One run: fresh world, one regime, one CPU count.  The digest folds
   every observed step — entering CPU, iteration, thread, pretty-printed
   return and the per-CPU currents snapshot — so two digests agree iff
   the kernel made the same decisions in the same order. *)
let smp_run ~regime ~cpus ~iterations =
  match smp_build_world () with
  | Error msg -> Error msg
  | Ok (k, programs) ->
    let digest = Buffer.create 4096 in
    let observe ~cpu ~iter ~thread ret =
      Buffer.add_string digest
        (Format.asprintf "%d/%d/%x:%a|" cpu iter thread Syscall.pp_ret ret);
      List.iter
        (fun c ->
          Buffer.add_string digest
            (match c with Some t -> Printf.sprintf "%x," t | None -> "-,"))
        (Atmo_pm.Proc_mgr.currents_list k.Kernel.pm);
      Buffer.add_char digest ';'
    in
    (match
       Atmo_sim.Smp.run ~regime ~steal_seed:42 ~observe k ~cost ~cpus ~programs
         ~iterations
     with
     | Error msg -> Error msg
     | Ok stats ->
       Ok (stats, Buffer.contents digest, Atmo_core.Abstraction.abstract k))

let run () =
  section "SMP: per-CPU run queues + sharded endpoint locks vs the big lock";
  line "(kv workload: %d IPC pairs, think %d cycles; both regimes drive the"
    smp_pairs smp_think;
  line " identical kernel — only the lock cycle-model differs, so the on/off";
  line " oracle demands bit-identical returns, scheduling and abstract state)";
  line "";
  let iterations = 100 in
  let cpu_points = [ 1; 2; 4; 8 ] in
  let results =
    List.filter_map
      (fun cpus ->
        match
          ( smp_run ~regime:Atmo_sim.Smp.Big_lock ~cpus ~iterations,
            smp_run ~regime:Atmo_sim.Smp.Fine_grained ~cpus ~iterations )
        with
        | Ok big, Ok fine -> Some (cpus, big, fine)
        | Error msg, _ | _, Error msg ->
          line "  %d CPUs: run failed: %s" cpus msg;
          None)
      cpu_points
  in
  match results with
  | [] ->
    line "smp bench failed: no data points";
    exit 1
  | (_, (base_big, _, _), (base_fine, _, _)) :: _ ->
    let tp s = Atmo_sim.Smp.throughput s in
    let speedup base s = tp s /. Float.max 1e-9 (tp base) in
    line "%4s  %28s  %28s  %s" "CPUs" "big lock" "fine-grained" "oracle";
    let oracle_all = ref true in
    let curve =
      List.map
        (fun (cpus, (sb, db, ab), (sf, df, af)) ->
          let identical =
            db = df && Atmo_spec.Abstract_state.equal ab af
            && sb.Atmo_sim.Smp.placement = sf.Atmo_sim.Smp.placement
          in
          if not identical then oracle_all := false;
          line "%4d  %10.2f M/s (%5.2fx)      %10.2f M/s (%5.2fx)      %s" cpus
            (tp sb /. 1e6) (speedup base_big sb) (tp sf /. 1e6)
            (speedup base_fine sf)
            (if identical then "identical" else "DIVERGED");
          ( cpus,
            J.Obj
              [
                ("big_msyscalls_s", J.Num (tp sb /. 1e6));
                ("fine_msyscalls_s", J.Num (tp sf /. 1e6));
                ("big_speedup", J.Num (speedup base_big sb));
                ("fine_speedup", J.Num (speedup base_fine sf));
                ("fine_steals", J.Num (float_of_int sf.Atmo_sim.Smp.steals));
                ( "fine_lock_wait_by_cpu",
                  J.Arr
                    (Array.to_list
                       (Array.map
                          (fun w -> J.Num (float_of_int w))
                          sf.Atmo_sim.Smp.lock_wait_by_cpu)) );
                ("oracle_identical", J.Bool identical);
              ] ))
        results
    in
    let big8, fine8 =
      match List.find_opt (fun (c, _, _) -> c = 8) results with
      | Some (_, (sb, _, _), (sf, _, _)) -> (speedup base_big sb, speedup base_fine sf)
      | None -> (0., 0.)
    in
    line "";
    line "8-CPU speedup: big lock %.2fx (saturates at the lock), fine-grained %.2fx"
      big8 fine8;
    line "oracle across the curve: %s"
      (if !oracle_all then "bit-identical" else "DIVERGED");
    write_bench_json "BENCH_smp.json"
      [
        ("bench", J.Str "smp_scaling");
        ("workload", J.Str (Printf.sprintf "kv ipc, %d pairs, think %d" smp_pairs smp_think));
        ("iterations", J.Num (float_of_int iterations));
        ( "curve",
          J.Obj (List.map (fun (c, v) -> (string_of_int c, v)) curve) );
        ("big_speedup_8cpu", J.Num big8);
        ("fine_speedup_8cpu", J.Num fine8);
        ("oracle_identity", J.Bool !oracle_all);
      ]
