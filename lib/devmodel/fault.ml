type kind =
  | Malformed_desc
  | Short_desc
  | Spurious_irq
  | Irq_storm
  | Reorder_completion
  | Duplicate_completion
  | Dma_escape

let all =
  [ Malformed_desc; Short_desc; Spurious_irq; Irq_storm; Reorder_completion;
    Duplicate_completion; Dma_escape ]

(* Codes are the wire encoding in [Atmo_obs.Event.Dev_fault] slots, and
   [Atmo_obs.Event.fault_name] is the one table that names them. *)
let code = function
  | Malformed_desc -> 1
  | Short_desc -> 2
  | Spurious_irq -> 3
  | Irq_storm -> 4
  | Reorder_completion -> 5
  | Duplicate_completion -> 6
  | Dma_escape -> 7

let of_code n = List.find_opt (fun k -> code k = n) all

let name k = Atmo_obs.Event.fault_name (code k)

let of_name s = List.find_opt (fun k -> name k = s) all

type error =
  | Bad_setup of string
  | Dma_fault of { iova : int; len : int }
  | Ring_full
  | Queue_full
  | Lba_out_of_range of { lba : int; capacity : int }
  | Bad_block_size of { expected : int; got : int }
  | Malformed of { slot : int; detail : string }
  | Short_frame of { len : int; min : int }
  | Duplicate of { tag : int }
  | Unknown_completion of { tag : int }
  | Device_failed

let error_to_string = function
  | Bad_setup s -> Printf.sprintf "bad setup: %s" s
  | Dma_fault { iova; len } ->
    Printf.sprintf "DMA fault: iova=0x%x len=%d rejected by the IOMMU" iova len
  | Ring_full -> "ring full"
  | Queue_full -> "submission queue full"
  | Lba_out_of_range { lba; capacity } ->
    Printf.sprintf "lba %d out of range (capacity %d blocks)" lba capacity
  | Bad_block_size { expected; got } ->
    Printf.sprintf "bad block size: expected %d bytes, got %d" expected got
  | Malformed { slot; detail } ->
    if slot < 0 then Printf.sprintf "malformed device state: %s" detail
    else Printf.sprintf "malformed device state at slot %d: %s" slot detail
  | Short_frame { len; min } ->
    Printf.sprintf "short frame: %d bytes (minimum %d)" len min
  | Duplicate { tag } -> Printf.sprintf "duplicate completion tag %d" tag
  | Unknown_completion { tag } -> Printf.sprintf "completion for unknown tag %d" tag
  | Device_failed -> "device failed"

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)
