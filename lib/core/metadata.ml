open Mpk_hw
open Mpk_kernel

let initial_bytes = 32 * 1024  (* the paper's pre-allocated 32 KiB *)

type t = {
  proc : Proc.t;
  mutable base : int;
  mutable bytes : int;
  mutable used : bool array;  (* slot occupancy, tracked library-side *)
  record : bytes;  (* [update_slot] serializes here rather than into a fresh buffer *)
}

let slots_of_bytes bytes = bytes / Group.metadata_bytes

let create proc task =
  let base = Syscall.mmap proc task ~len:initial_bytes ~prot:Perm.r () in
  {
    proc;
    base;
    bytes = initial_bytes;
    used = Array.make (slots_of_bytes initial_bytes) false;
    record = Bytes.create Group.metadata_bytes;
  }

let capacity_slots t = slots_of_bytes t.bytes
let used_slots t = Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 t.used

let slot_addr t ~slot = t.base + (slot * Group.metadata_bytes)

(* A privileged copy can still run out of physical frames while demand
   paging; that surfaces as the syscall-shaped ENOMEM, not a raw MMU
   fault — metadata writes happen inside kernel-mediated calls. *)
let kernel_write t ~slot data =
  try Mmu.kernel_write_bytes (Proc.mmu t.proc) ~addr:(slot_addr t ~slot) data
  with Mmu.Fault { Mmu.cause = Mmu.No_memory; _ } ->
    Errno.fail ENOMEM "metadata: out of physical frames"

let grow t task =
  let new_bytes = t.bytes * 2 in
  let new_base = Syscall.mmap t.proc task ~len:new_bytes ~prot:Perm.r () in
  (* The kernel migrates the records to the larger region. *)
  (try
     let old = Mmu.kernel_read_bytes (Proc.mmu t.proc) ~addr:t.base ~len:t.bytes in
     Mmu.kernel_write_bytes (Proc.mmu t.proc) ~addr:new_base old
   with Mmu.Fault { Mmu.cause = Mmu.No_memory; _ } ->
     (* failed migration: drop the half-populated new region, keep the
        old one — the caller sees ENOMEM against an intact store *)
     (try Syscall.munmap t.proc task ~addr:new_base ~len:new_bytes with _ -> ());
     Errno.fail ENOMEM "metadata grow: out of physical frames");
  Syscall.munmap t.proc task ~addr:t.base ~len:t.bytes;
  let new_used = Array.make (slots_of_bytes new_bytes) false in
  Array.blit t.used 0 new_used 0 (Array.length t.used);
  t.base <- new_base;
  t.bytes <- new_bytes;
  t.used <- new_used

let find_free t =
  let n = Array.length t.used in
  let rec scan i = if i >= n then None else if not t.used.(i) then Some i else scan (i + 1) in
  scan 0

let alloc_slot t task group =
  let slot =
    match find_free t with
    | Some s -> s
    | None ->
        grow t task;
        (match find_free t with
        | Some s -> s
        | None -> assert false)
  in
  (* Write before marking the slot used: if the kernel write throws
     (frame exhaustion during demand paging), the slot map still agrees
     with the protected region (auditor invariant I6). *)
  kernel_write t ~slot (Group.serialize group);
  t.used.(slot) <- true;
  slot

let update_slot t _task ~slot group =
  if slot < 0 || slot >= Array.length t.used || not t.used.(slot) then
    invalid_arg "Metadata.update_slot: bad slot";
  Group.serialize_into group t.record;
  kernel_write t ~slot t.record

let free_slot t _task ~slot =
  if slot < 0 || slot >= Array.length t.used || not t.used.(slot) then
    invalid_arg "Metadata.free_slot: bad slot";
  t.used.(slot) <- false;
  kernel_write t ~slot (Bytes.make Group.metadata_bytes '\000')
