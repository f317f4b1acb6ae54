(** Page table entries, with the x86-64 MPK key placement.

    Bit 0 present, bit 1 writable, bit 2 readable (simulator-local: real
    x86 has no R bit), bit 3 executable (where x86 stores the complement,
    NX, in bit 63), bits 12-47 the frame number, bits 59-62 the 4-bit
    protection key — the paper notes MPK reuses "previously unused four
    bits of each page table entry" (bits 59-62 of the PTE on real
    hardware; the paper's "32nd to 35th" refers to the PTE's high word).

    Bit 62 is the highest bit used, so an entry fits a 63-bit OCaml
    immediate: storing or rewriting one never allocates. Keys 8-15 set
    bit 62, the sign bit of an OCaml [int]. *)

type t = private int

val absent : t

val make : frame:Physmem.frame -> perm:Perm.t -> pkey:Pkey.t -> t

val is_present : t -> bool
val frame : t -> Physmem.frame

(** One of eight shared records; never allocates. *)
val perm : t -> Perm.t

val pkey : t -> Pkey.t

(** A rewrite of the permission and/or key fields of present entries:
    an immediate value (no allocation), applied to many entries. *)
type rewrite

(** [rewrite_perm p] replaces the permission and [rewrite_perm_pkey p k]
    the permission and the key; each keeps the rest (the frame always).
    Building one allocates nothing. *)
val rewrite_perm : Perm.t -> rewrite

val rewrite_perm_pkey : Perm.t -> Pkey.t -> rewrite

(** [apply rw t] is [t] rewritten by [rw]; an absent entry stays absent. *)
val apply : rewrite -> t -> t

(** The rewrite that replaces nothing: [apply identity] is the identity. *)
val identity : rewrite

(** [compose r1 r2] is [r1] then [r2], as one rewrite:
    [apply (compose r1 r2) t = apply r2 (apply r1 t)]. A field that both
    replace takes [r2]'s value. An immediate, like its arguments. *)
val compose : rewrite -> rewrite -> rewrite

(** [apply_present rw entries ~lo ~hi] rewrites every present entry of
    [entries.(lo) .. entries.(hi - 1)] in place and returns how many
    there were. Allocates nothing. *)
val apply_present : rewrite -> t array -> lo:int -> hi:int -> int
