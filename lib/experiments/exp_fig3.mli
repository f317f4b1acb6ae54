(** Paper Fig 3: mprotect cost on contiguous (one mmap, one VMA) versus
    sparse (one mmap per page) memory, as page count grows. *)

type point = { pages : int; contiguous : float; sparse : float }

(** Every point of the figure. Exported, though only tests read it, for
    the claim records that will read each point. *)
val points : unit -> point list
val render : unit -> string
