(* dev: device-backend identity and hostile-mode resilience. *)

open Common
module Clock = Atmo_hw.Clock
module Hostile = Atmo_devmodel.Hostile
module Model = Atmo_devmodel.Model
module Env = Atmo_workloads.Device_env

let nic_slots = 32

(* Pump [frames] 64-byte frames through the RX path of a fresh NIC of
   [kind] in bursts of 8, with [hostile] attached until the drain is
   done; returns (frames harvested, model cycles at the end, typed
   errors). *)
let pump_nic ?hostile kind ~frames =
  let clock = Clock.create () in
  let nic = Env.nic ~kind ~device:11 ~slots:nic_slots ~clock ~cost in
  let model = Env.nic_model nic in
  Model.set_hostile model hostile;
  let frame = Bytes.make 64 '\x42' in
  let received = ref 0 in
  for i = 1 to frames do
    ignore (Env.nic_deliver nic frame);
    if i mod 8 = 0 then received := !received + List.length (Env.nic_rx nic ~max:8)
  done;
  (* drain until quiescent: hostile duplicates can trail the last burst *)
  let rec drain () =
    let got = List.length (Env.nic_rx nic ~max:nic_slots) in
    if got > 0 then begin
      received := !received + got;
      drain ()
    end
  in
  drain ();
  let result = (!received, Clock.now clock, model.Model.error_count) in
  Model.set_hostile model None;
  ignore (Env.nic_rx nic ~max:nic_slots);
  result

let run () =
  section "Device backends: virtio vs ixgbe identity; hostile-mode resilience";
  Model.reset ();
  let frames = 5000 in
  (* fault-free throughput identity: same frames, same cycle total *)
  let ixg_rx, ixg_cycles, _ = pump_nic `Ixgbe ~frames in
  let vio_rx, vio_cycles, _ = pump_nic `Virtio ~frames in
  let delivery_identity = ixg_rx = vio_rx && ixg_cycles = vio_cycles in
  line "fault-free RX, %d frames:" frames;
  line "  ixgbe:      %5d harvested, %8d cycles" ixg_rx ixg_cycles;
  line "  virtio-net: %5d harvested, %8d cycles  -> identity: %b" vio_rx vio_cycles
    delivery_identity;
  (* kv workload identity across block and NIC backends *)
  let base = Kv.run () in
  let vblk = Kv.run ~blk:`Virtio () in
  let kv_blk_identity = same_cycles base vblk && base.Kv.replies = vblk.Kv.replies in
  let nixg = Kv.run ~nic:`Ixgbe () in
  let nvio = Kv.run ~nic:`Virtio () in
  let kv_nic_identity =
    same_cycles nixg nvio && nixg.Kv.replies = nvio.Kv.replies
    && nixg.Kv.replies = base.Kv.replies
  in
  line "kv workload: nvme vs virtio-blk bit-identical: %b" kv_blk_identity;
  line "kv workload: ixgbe vs virtio-net bit-identical: %b (replies match IPC-only run)"
    kv_nic_identity;
  (* hostile mode: a fixed fault budget may cost at most the budget in
     delivered frames, and the ledgers must balance at quiescence *)
  let budget = 64 in
  let hostile_run kind seed =
    pump_nic ~hostile:(Hostile.create ~budget ~seed ()) kind ~frames
  in
  let hixg_rx, hixg_cycles, hixg_err = hostile_run `Ixgbe 42 in
  let hvio_rx, hvio_cycles, hvio_err = hostile_run `Virtio 43 in
  let ratio_of rx = float_of_int rx /. float_of_int frames in
  let hostile_ratio = Float.min (ratio_of hixg_rx) (ratio_of hvio_rx) in
  line "hostile RX (budget %d fault injections), %d frames:" budget frames;
  line "  ixgbe:      %5d harvested (%.4f), %8d cycles, %3d typed errors" hixg_rx
    (ratio_of hixg_rx) hixg_cycles hixg_err;
  line "  virtio-net: %5d harvested (%.4f), %8d cycles, %3d typed errors" hvio_rx
    (ratio_of hvio_rx) hvio_cycles hvio_err;
  (* every model registered above must pass Driver_lint at quiescence *)
  let lint_clean =
    match Kernel.boot Kernel.default_boot with
    | Error _ -> false
    | Ok (k, _) ->
      Atmo_san.Report.clear ();
      let fresh = Atmo_san.Driver_lint.lint k in
      Atmo_san.Report.clear ();
      fresh = 0
  in
  line "driver lint at quiescence over %d device model(s): %s"
    (List.length (Model.all ()))
    (if lint_clean then "clean" else "VIOLATIONS");
  Model.reset ();
  write_bench_json "BENCH_dev.json"
    [
      ("bench", J.Str "dev_backends");
      ("frames", J.Num (float_of_int frames));
      ("ixgbe_rx", J.Num (float_of_int ixg_rx));
      ("virtio_rx", J.Num (float_of_int vio_rx));
      ("ixgbe_cycles", J.Num (float_of_int ixg_cycles));
      ("virtio_cycles", J.Num (float_of_int vio_cycles));
      ("virtio_ixgbe_delivery_identity", J.Bool delivery_identity);
      ("kv_blk_identity", J.Bool kv_blk_identity);
      ("kv_nic_identity", J.Bool kv_nic_identity);
      ("hostile_budget", J.Num (float_of_int budget));
      ("hostile_typed_errors", J.Num (float_of_int (hixg_err + hvio_err)));
      ("hostile_delivery_ratio", J.Num hostile_ratio);
      ("hostile_lint_clean", J.Bool lint_clean);
    ]
