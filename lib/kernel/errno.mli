(** Kernel error codes surfaced by the simulated syscalls. *)

type t =
  | EINVAL  (** bad argument (unaligned address, bad key, ...) *)
  | ENOMEM  (** out of memory / address space *)
  | ENOSPC  (** no free protection key *)
  | EACCES  (** permission denied *)
  | ENOENT  (** no such mapping *)

exception Error of t * string

val to_string : t -> string

(** [fail errno fmt ...] raises [Error] with a formatted message. *)
val fail : t -> ('a, unit, string, 'b) format4 -> 'a
