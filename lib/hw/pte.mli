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

val with_perm : t -> Perm.t -> t
val with_pkey : t -> Pkey.t -> t

val pp : Format.formatter -> t -> unit
