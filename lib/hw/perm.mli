(** Page permissions: the [PROT_READ]/[PROT_WRITE]/[PROT_EXEC] lattice. *)

type t = { read : bool; write : bool; exec : bool }

val none : t
val r : t
val rw : t
val rx : t
val rwx : t
val x_only : t

(** Build from flags, mirroring [mprotect]'s [PROT_*] arguments. *)
val make : ?read:bool -> ?write:bool -> ?exec:bool -> unit -> t

val equal : t -> t -> bool

(** [subsumes a b]: every access allowed by [b] is allowed by [a]. *)
val subsumes : t -> t -> bool

(** "rwx"-style rendering, e.g. "rw-", "--x". *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
