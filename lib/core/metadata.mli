(** libmpk's protected metadata region (paper §4.3).

    One physical region is conceptually mapped twice: a read-only user
    view (fast reads, no syscall) and a kernel-writable alias. In the
    simulator the user view is an ordinary read-only mapping and kernel
    updates go through the privileged (PKRU- and permission-bypassing)
    kernel write path, piggybacked on the syscalls libmpk already makes —
    so metadata maintenance adds no extra domain switches.

    A userspace write to the region faults: an attacker with an
    arbitrary-write primitive cannot corrupt group records or the
    vkey→pkey mappings. *)

open Mpk_kernel

type t

(** [create proc task] maps the initial 32 KiB read-only region (the
    paper's pre-allocated hashmap) and returns the store. *)
val create : Proc.t -> Task.t -> t

val capacity_slots : t -> int
val used_slots : t -> int

(** [alloc_slot t group] persists a 32-byte group record via the kernel
    alias, growing (doubling) the region when full. Returns the slot. *)
val alloc_slot : t -> Task.t -> Group.t -> int

(** [update_slot t task slot group] rewrites an existing record. *)
val update_slot : t -> Task.t -> slot:int -> Group.t -> unit

val free_slot : t -> Task.t -> slot:int -> unit

(** Address of a slot, for fault-injection tests. *)
val slot_addr : t -> slot:int -> int
