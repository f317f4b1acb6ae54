(** Hardware protection keys.

    Intel MPK stores a 4-bit key in each PTE, so there are 16 keys. Key 0 is
    the default key assigned to every new page; keys 1-15 are allocatable
    (the paper: "only 15 groups are effective in general"). *)

type t = private int

val count : int

(** The default key carried by freshly mapped pages. *)
val default : t

(** [of_int k] validates [0 <= k < 16]. Raises [Invalid_argument]. *)
val of_int : int -> t

val to_int : t -> int
val equal : t -> t -> bool

(** All 15 allocatable keys, 1..15. *)
val allocatable : t list

val pp : Format.formatter -> t -> unit
