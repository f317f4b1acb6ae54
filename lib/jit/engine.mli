(** A JavaScript-engine stand-in: compiles synthetic hot functions into
    the code cache, patches them (the permission-switch traffic the paper
    measures), and executes them through the MMU's instruction fetch.

    Profiles mirror the engines' mprotect behaviour:
    - [Spidermonkey] avoids unnecessary permission switches (batches
      them), per the Firefox developers' claim cited in §6.3.
    - [Chakracore] re-protects exactly one page per update.
    - [V8] (which originally ships no W⊕X) patches frequently. *)

open Mpk_kernel

type profile = Spidermonkey | Chakracore | V8

val profile_name : profile -> string

type t

val create :
  profile -> Wx.t -> Proc.t -> Task.t -> ?mpk:Libmpk.t -> ?cache_pages:int -> unit -> t

val cache : t -> Codecache.t

(** [compile t task ~ops ~seed ?pad_to ()] — synthesize and JIT one hot
    function; returns its name. [pad_to] pads the emitted code to that
    many bytes (real JIT output — inline caches, guards, alignment — is
    far larger than our toy opcodes; the paper observes roughly one
    executable page per hot function). *)
val compile : t -> Task.t -> ops:int -> seed:int -> ?pad_to:int -> unit -> string

(** [patch t task name] — one recompile/patch event on the function's
    page (subject to the profile's switch ratio). *)
val patch : t -> Task.t -> string -> unit

(** [run t task name] — execute the compiled function. *)
val run : t -> Task.t -> string -> int

(** Reference result computed engine-side (for correctness checks). *)
val expected : t -> string -> int
