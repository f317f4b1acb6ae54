(** The simulated machine: a set of logical cores sharing physical memory
    and one cost model. *)

type t

(** [create ~cores ~mem_mib ()] — defaults: 8 cores, 4 GiB. *)
val create : ?costs:Costs.t -> ?cores:int -> ?mem_mib:int -> unit -> t

val mem : t -> Physmem.t
val core_count : t -> int
val core : t -> int -> Cpu.t
val cores : t -> Cpu.t array

