(** Virtual protection keys.

    Unlike hardware keys (16), virtual keys are unbounded. Applications
    pass them as hardcoded integer constants; libmpk maps them to hardware
    keys behind the scenes and never exposes which hardware key backs a
    group. *)

type t = int

(** [Hashtbl.hash]: the order of [Key_cache]'s [Random] policy and of
    libmpk's group table. *)
val hash : t -> int
