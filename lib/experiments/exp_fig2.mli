(** Paper Fig 2: effect of WRPKRU serialization — total cycles of [n] ADD
    instructions executed before (W1) vs after (W2) a WRPKRU. *)

type point = { adds : int; w1 : float; w2 : float }

(** Every point of the figure. Exported, though only tests read it, for
    the claim records that will read each point. *)
val points : unit -> point list
val render : unit -> string
