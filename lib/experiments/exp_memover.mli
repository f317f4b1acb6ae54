(** The paper's §6.2 memory-overhead paragraph, as a measurement: 32
    bytes of protected metadata per page group, a pre-allocated 32 KiB
    region, automatic doubling when it fills. *)

type row = { groups : int; metadata_bytes : int; bytes_per_group : float }

(** Every row of the table. Exported, though only tests read it, for the
    claim records that will read each row. *)
val rows : unit -> row list
val render : unit -> string
