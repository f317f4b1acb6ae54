(** Paper Table 1: latency (cycles) of the MPK instructions, syscalls and
    glibc APIs, with the mprotect / register-move reference rows. *)

type row = { name : string; cycles : float; paper : float; description : string }

val rows : unit -> row list

(** Rendered table plus per-row deviation from the paper's measurement. *)
val render : unit -> string

(** One metric per row, [table1.<name>_cycles] with the row name
    lowercased to alphanumeric runs (e.g. [table1.pkey_set_wrpkru_cycles]).
    Every row is deterministic, so [seed] and [smoke] change nothing. *)
val metrics : seed:int -> smoke:bool -> Env.metric list
