module Clock = Atmo_hw.Clock
module Cost = Atmo_sim.Cost
module Fault = Atmo_devmodel.Fault

type op = Read | Write

type completion = {
  tag : int;
  op : op;
  lba : int;
  ok : bool;
  data : bytes option;
}

let block_bytes = 4096

type t = {
  clock : Clock.t;
  cost : Cost.t;
  capacity_blocks : int;
  blocks : (int, bytes) Hashtbl.t;
  mutable last_read_slot : int;  (* rate limiting: next free device slot *)
  mutable last_write_slot : int;
}

let create ~clock ~cost ~capacity_blocks =
  if capacity_blocks <= 0 then invalid_arg "Block.create: capacity <= 0";
  {
    clock;
    cost;
    capacity_blocks;
    blocks = Hashtbl.create 1024;
    last_read_slot = 0;
    last_write_slot = 0;
  }

let check t ~lba ~data =
  match data with
  | Some d when Bytes.length d <> block_bytes ->
    Error (Fault.Bad_block_size { expected = block_bytes; got = Bytes.length d })
  | _ ->
    if lba < 0 || lba >= t.capacity_blocks then
      Error (Fault.Lba_out_of_range { lba; capacity = t.capacity_blocks })
    else Ok ()

(* A request completes after the device latency, and the stream of
   same-kind requests is spaced by the rate cap (1/cap worth of cycles
   each), whichever is later. *)
let due_time t op =
  let now = Clock.now t.clock in
  let cap =
    match op with
    | Read -> t.cost.Cost.nvme_read_cap_iops
    | Write ->
      t.cost.Cost.nvme_write_cap_iops /. (1. +. t.cost.Cost.nvme_atmo_write_penalty)
  in
  let spacing = int_of_float (t.cost.Cost.frequency_hz /. cap) in
  let latency = int_of_float (t.cost.Cost.nvme_read_latency_s *. t.cost.Cost.frequency_hz) in
  let slot_ref = match op with Read -> t.last_read_slot | Write -> t.last_write_slot in
  let slot = max now slot_ref in
  (match op with
   | Read -> t.last_read_slot <- slot + spacing
   | Write -> t.last_write_slot <- slot + spacing);
  slot + latency

let read t ~lba =
  match Hashtbl.find_opt t.blocks lba with
  | Some d -> Bytes.copy d
  | None -> Bytes.make block_bytes '\000'

let write t ~lba data = Hashtbl.replace t.blocks lba data
