(** Bounded ring buffer keeping the newest [capacity] elements.

    The tracer's per-core event buffers are built on this: pushes past
    capacity silently drop the {e oldest} element, never the newest. *)

type 'a t

val create : int -> 'a t
(** Raises [Invalid_argument] when capacity is not positive. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Elements currently retained ([<= capacity]). *)

val push : 'a t -> 'a -> unit

val to_list : 'a t -> 'a list
(** Retained elements, oldest first. *)
