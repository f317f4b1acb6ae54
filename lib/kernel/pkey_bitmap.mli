(** The kernel's 16-bit protection-key allocation bitmap.

    Faithful to the paper's §2.2/§3.1 semantics: [free] only clears the
    bitmap bit — PTEs still tagged with the key are *not* scrubbed, which
    is exactly the protection-key-use-after-free hazard libmpk closes. *)

open Mpk_hw

type t

(** Fresh bitmap: key 0 permanently allocated (the default key). *)
val create : unit -> t

(** Lowest free key, marking it allocated. [None] when all 15 are taken. *)
val alloc : t -> Pkey.t option

(** Marks a key free. Raises [Errno.Error EINVAL] for key 0 or a key that
    is not currently allocated. *)
val free : t -> Pkey.t -> unit

val is_allocated : t -> Pkey.t -> bool

