(** Paper Fig 13: Octane scores of original v8 (no W⊕X), v8 + SDCG
    (out-of-process code emission) and v8 + libmpk (key/process). The
    paper: SDCG costs 6.68% overall, libmpk 0.81%. *)

val render : unit -> string
