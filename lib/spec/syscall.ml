module Page_state = Atmo_pmem.Page_state
module Pte = Atmo_hw.Pte_bits
module Message = Atmo_pm.Message

type t =
  | Mmap of {
      va : int;
      count : int;
      size : Page_state.size;
      perm : Pte.perm;
    }
  | Munmap of { va : int; count : int; size : Page_state.size }
  | Mprotect of { va : int; perm : Pte.perm }
  | New_container of { quota : int; cpus : Atmo_util.Iset.t }
  | New_process
  | New_thread
  | New_endpoint of { slot : int }
  | Close_endpoint of { slot : int }
  | Send of { slot : int; msg : Message.t }
  | Recv of { slot : int }
  | Send_nb of { slot : int; msg : Message.t }
  | Recv_nb of { slot : int }
  | Recv_reject of { slot : int }
  | Yield
  | Terminate_container of { container : int }
  | Terminate_process of { proc : int }
  | Assign_device of { device : int }
  | Io_map of { device : int; iova : int; va : int }
  | Io_unmap of { device : int; iova : int }
  | Register_irq of { device : int; slot : int }
  | Irq_fire of { device : int }

type ret =
  | Rptr of int
  | Runit
  | Rblocked
  | Rmsg of Message.t
  | Rmapped of int list
  | Rerr of Atmo_util.Errno.t

(* Stable syscall numbers in declaration order; the flight recorder
   carries them and [Atmo_obs.Event.syscall_name] is the one table that
   names them. *)
let number = function
  | Mmap _ -> 0
  | Munmap _ -> 1
  | Mprotect _ -> 2
  | New_container _ -> 3
  | New_process -> 4
  | New_thread -> 5
  | New_endpoint _ -> 6
  | Close_endpoint _ -> 7
  | Send _ -> 8
  | Recv _ -> 9
  | Send_nb _ -> 10
  | Recv_nb _ -> 11
  | Recv_reject _ -> 12
  | Yield -> 13
  | Terminate_container _ -> 14
  | Terminate_process _ -> 15
  | Assign_device _ -> 16
  | Io_map _ -> 17
  | Io_unmap _ -> 18
  | Register_irq _ -> 19
  | Irq_fire _ -> 20

let name c = Atmo_obs.Event.syscall_name (number c)

let pp ppf t =
  match t with
  | Mmap { va; count; size; perm } ->
    Format.fprintf ppf "mmap(va=0x%x, count=%d, size=%a, perm=%a)" va count
      Page_state.pp_size size Pte.pp_perm perm
  | Munmap { va; count; size } ->
    Format.fprintf ppf "munmap(va=0x%x, count=%d, size=%a)" va count
      Page_state.pp_size size
  | Mprotect { va; perm } -> Format.fprintf ppf "mprotect(va=0x%x, perm=%a)" va Pte.pp_perm perm
  | New_container { quota; cpus } ->
    Format.fprintf ppf "new_container(quota=%d, cpus=%d)" quota (Atmo_util.Iset.cardinal cpus)
  | New_process -> Format.pp_print_string ppf "new_process()"
  | New_thread -> Format.pp_print_string ppf "new_thread()"
  | New_endpoint { slot } -> Format.fprintf ppf "new_endpoint(slot=%d)" slot
  | Close_endpoint { slot } -> Format.fprintf ppf "close_endpoint(slot=%d)" slot
  | Send { slot; msg } -> Format.fprintf ppf "send(slot=%d, %a)" slot Message.pp msg
  | Recv { slot } -> Format.fprintf ppf "recv(slot=%d)" slot
  | Send_nb { slot; msg } -> Format.fprintf ppf "send_nb(slot=%d, %a)" slot Message.pp msg
  | Recv_nb { slot } -> Format.fprintf ppf "recv_nb(slot=%d)" slot
  | Recv_reject { slot } -> Format.fprintf ppf "recv_reject(slot=%d)" slot
  | Yield -> Format.pp_print_string ppf "yield()"
  | Terminate_container { container } ->
    Format.fprintf ppf "terminate_container(0x%x)" container
  | Terminate_process { proc } -> Format.fprintf ppf "terminate_process(0x%x)" proc
  | Assign_device { device } -> Format.fprintf ppf "assign_device(%d)" device
  | Io_map { device; iova; va } ->
    Format.fprintf ppf "io_map(dev=%d, iova=0x%x, va=0x%x)" device iova va
  | Io_unmap { device; iova } -> Format.fprintf ppf "io_unmap(dev=%d, iova=0x%x)" device iova
  | Register_irq { device; slot } ->
    Format.fprintf ppf "register_irq(dev=%d, slot=%d)" device slot
  | Irq_fire { device } -> Format.fprintf ppf "irq_fire(dev=%d)" device

let pp_ret ppf = function
  | Rptr p -> Format.fprintf ppf "Ok(ptr=0x%x)" p
  | Runit -> Format.pp_print_string ppf "Ok()"
  | Rblocked -> Format.pp_print_string ppf "Blocked"
  | Rmsg m -> Format.fprintf ppf "Ok(%a)" Message.pp m
  | Rmapped frames -> Format.fprintf ppf "Ok(%d frames)" (List.length frames)
  | Rerr e -> Format.fprintf ppf "Err(%a)" Atmo_util.Errno.pp e

let equal_ret (a : ret) b =
  match (a, b) with
  | Rptr x, Rptr y -> x = y
  | Runit, Runit | Rblocked, Rblocked -> true
  | Rmsg m, Rmsg m' ->
    m.Message.scalars = m'.Message.scalars
    && m.Message.page = m'.Message.page
    && m.Message.endpoint = m'.Message.endpoint
  | Rmapped x, Rmapped y -> x = y
  | Rerr x, Rerr y -> Atmo_util.Errno.equal x y
  | (Rptr _ | Runit | Rblocked | Rmsg _ | Rmapped _ | Rerr _), _ -> false
