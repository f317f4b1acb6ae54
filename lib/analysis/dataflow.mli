(** Forward abstract interpretation over one thread's CFG.

    Classic worklist fixpoint: state flows along edges, joins at merge
    points (loop heads included), iterates until stable. Domains must
    have finite height — counters saturate (see {!Interval}).

    Two things are non-standard but load-bearing:

    - Escape edges propagate the {i incoming} state of their source
      node, not the transferred one: a signal escape leaves the op
      before it completes, so e.g. an interrupted mpk_begin has not yet
      taken its pin on that path.

    - Every node carries a representative {i path witness}: one concrete
      entry-to-node path realizing (a contributor to) its abstract
      state. When a join changes a node's state, the witness is replaced
      by the path that caused the change, so the witness for "depth may
      be 1 at exit" is a path that actually leaks the begin. Witnesses
      are what the [--confirm] replay executes on the simulator. *)

type 'a result

(** The state on entry to a node, or [None] if it was never reached. *)
val state : 'a result -> int -> 'a option

(** The witness path of node ids from the entry to the node, inclusive. *)
val path_to : 'a result -> int -> int list

(** [forward p ~entry ~init ~equal ~join ~transfer] runs the fixpoint
    from [entry]. [transfer node st] is the post-state of executing
    [node.op] in [st]; it must be monotone and pure.
    @raise Failure when the iteration budget (nodes × 512) runs out. *)
val forward :
  Ir.program ->
  entry:int ->
  init:'a ->
  equal:('a -> 'a -> bool) ->
  join:('a -> 'a -> 'a) ->
  transfer:(Ir.node -> 'a -> 'a) ->
  'a result

(** Nodes of thread [tid] that were reached, in id order. *)
val reached : Ir.program -> 'a result -> int -> Ir.node list

(** Saturating interval counter, the workhorse lattice: [(lo, hi)] with
    [hi] saturating at [cap]. Join is the hull, so loops converge in at
    most [cap] steps. *)
module Interval : sig
  val cap : int

  type t = int * int

  val zero : t
  val equal : t -> t -> bool
  val join : t -> t -> t
  val incr : t -> t
  val decr : t -> t
  val to_string : t -> string
end

(** Must/may set pairs, for held-lock and thread-liveness domains:
    [must] = members on every path to here, [may] = on some path. Joins
    intersect [must] and union [may], so over a finite universe the
    lattice has finite height. *)
module MustMay (Ord : Set.OrderedType) : sig
  module S : Set.S with type elt = Ord.t

  type t = { must : S.t; may : S.t }

  val empty : t
  val equal : t -> t -> bool
  val join : t -> t -> t
  val add : Ord.t -> t -> t
  val remove : Ord.t -> t -> t
end

(** Int-keyed maps read with a default, for per-vkey state. *)
module VMap : sig
  include Map.S with type key = int

  val find_d : default:'a -> int -> 'a t -> 'a
  val equal_d : default:'a -> ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
  val join_d : default:'a -> ('a -> 'a -> 'a) -> 'a t -> 'a t -> 'a t
end
