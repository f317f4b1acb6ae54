(** Page-group metadata: one record per virtual key (paper §4.2).

    A group is either [Mapped] to a hardware key — its pages are tagged
    with that key and per-thread access is gated by PKRU — or [Unmapped]
    (key 0), protected purely by page permissions. *)

open Mpk_hw

type state = Unmapped | Mapped of Pkey.t

(** [mapped k] is [Mapped k], built once per key so that mapping a group
    allocates nothing. *)
val mapped : Pkey.t -> state

(** Each task's open [mpk_begin] count on a group; see {!begin_holds}. *)
type holders

type t = {
  vkey : Vkey.t;
  base : int;  (** base address *)
  pages : int;
  mutable prot : Perm.t;  (** the group's current logical permission *)
  max_prot : Perm.t;
      (** the permission the group was created with: the ceiling
          [mpk_begin] may grant, regardless of later global locking via
          [mpk_mprotect] *)
  mutable state : state;
  mutable begin_depth : int;  (** total open mpk_begin calls, all threads *)
  holders : holders;
  mutable isolated : bool;
      (** true for domain-style groups: when evicted their pages drop to
          PROT_NONE; false for mprotect-style groups whose page
          permissions carry the protection while unmapped *)
  mutable xonly : bool;
      (** true while the group is execute-only, sharing the reserved
          execute-only key outside the cache *)
}

val make : vkey:Vkey.t -> base:int -> pages:int -> prot:Perm.t -> t

val len : t -> int

(** The begin holders map a task id to that task's open [mpk_begin]
    count on the group: a thread's PKRU rights drop at {e its} outermost
    [mpk_end], independent of other threads. [begin_holds t task] is the
    count, 0 for a task that holds none. [set_begin_holds t task n]
    records [n] for [task], and [drop_begin_holder t task] removes it;
    once the holder storage has grown, neither allocates. *)
val begin_holds : t -> int -> int

val set_begin_holds : t -> int -> int -> unit
val drop_begin_holder : t -> int -> unit

(** Every holder as [(task id, count)], for auditing. *)
val begin_holders : t -> (int * int) list

(** Serialized size of one group record in the protected metadata region —
    32 bytes, as reported in the paper's memory-overhead paragraph. *)
val metadata_bytes : int

(** [serialize t] — 32-byte record (vkey, base, pages, prot, pkey). *)
val serialize : t -> bytes

(** [serialize_into t b] writes [serialize t] into [b], which must be
    [metadata_bytes] long. *)
val serialize_into : t -> bytes -> unit

val deserialize : bytes -> (Vkey.t * int * int * Perm.t * int) option
