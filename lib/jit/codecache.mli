(** The JIT code cache: page-granular executable memory in the simulated
    address space, with pluggable W⊕X strategy.

    Permission-switch time (the quantity Fig 9 plots) is accumulated in
    [perm_switch_cycles]: for [Mprotect] it is the mprotect pair around
    each update, for the libmpk strategies the [mpk_begin]/[mpk_end]
    pair, for [Sdcg] the RPC, and zero for [No_wx]. *)

open Mpk_kernel

type t

(** vkey namespaces: pages of key/page caches start here; the key/process
    cache group uses the base key. Exposed so the static-analysis model
    of the JIT lints the same key the engine really uses. *)
val vkey_base : Libmpk.Vkey.t

type entry = { name : string; addr : int; len : int; page_vkey : Libmpk.Vkey.t option }

(** [create strategy proc task ?mpk ()] — [mpk] required for the libmpk
    strategies. [cache_pages] bounds the whole cache (default 64). *)
val create :
  Wx.t -> Proc.t -> Task.t -> ?mpk:Libmpk.t -> ?cache_pages:int -> unit -> t

(** [emit t task ~name code] — place [code] (≤ one page) in the cache,
    committing a fresh page when needed, and make it executable per the
    strategy. *)
val emit : t -> Task.t -> name:string -> bytes -> entry

(** [update t task entry code ?during ()] — overwrite an entry's code
    (same length or shorter), opening the strategy's write window.
    [during] runs *inside* the window — the hook the race-attack
    simulation uses. *)
val update : t -> Task.t -> entry -> bytes -> ?during:(unit -> unit) -> unit -> unit

val find : t -> name:string -> entry option

(** Cycles spent switching permissions so far (caller's view). *)
val perm_switch_cycles : t -> float

val reset_perm_switch_cycles : t -> unit
