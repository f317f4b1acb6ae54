(** XOM-Switch-style execute-only memory (paper §8): harden already-
    loaded code so it can run but never be *read* — defeating the code
    disclosure step of JIT-ROP-style attacks — using libmpk's reserved
    execute-only key instead of raw (unsynchronized) kernel support.

    One virtual key per hardened module; all modules share libmpk's
    reserved execute-only hardware key, so hardening any number of
    modules costs a single key. *)

open Mpk_kernel

type t

type module_info = { name : string; vkey : Libmpk.Vkey.t; base : int; len : int }

val create : Libmpk.t -> t

(** [load t task ~name code] — place [code] into fresh pages (as a
    loader would), returning the module handle. Pages start rw for the
    "relocation" phase. *)
val load : t -> Task.t -> name:string -> bytes -> module_info

(** [seal t task m] — make the module execute-only: every thread can run
    it, no thread can read or write it. *)
val seal : t -> Task.t -> module_info -> unit

(** [execute t task m] — run the module's code through the MMU's
    instruction-fetch path. *)
val execute : t -> Task.t -> module_info -> int
