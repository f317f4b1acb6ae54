(** Paper Fig 9: average permission-update time while a ChakraCore-style
    engine JIT-compiles an increasing number of hot functions (one page
    and one virtual key each, nine permission switches per page),
    comparing the original mprotect-based W⊕X with libmpk key-per-page.
    Past 15 virtual keys the libmpk curve steepens: cache eviction. *)

type point = { hot_functions : int; mprotect_cycles : float; libmpk_cycles : float }

(** Every point of the figure. Exported, though only tests read it, for
    the claim records that will read each point. *)
val points : unit -> point list
val render : unit -> string
