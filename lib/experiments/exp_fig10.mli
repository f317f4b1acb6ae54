(** Paper Fig 10: latency of inter-thread permission synchronization —
    [mpk_mprotect] (lazy PKRU sync, page-count independent) versus
    [mprotect] (VMA + PTE work plus TLB shootdown) across memory sizes
    and thread counts. *)

type point = { pages : int; threads : int; mpk : float; mprotect : float }

(** Every point of the figure. Exported, though only tests read it, for
    the claim records that will read each point. *)
val points : unit -> point list
val render : unit -> string
