(** Orchestrates the full paper reproduction: runs every table/figure
    experiment and prints its output with a section banner. *)

type experiment = { id : string; title : string; run : unit -> string }

(** All experiments in paper order. *)
val all : experiment list

val find : string -> experiment option

(** [run_all ()] executes everything, printing each result to stdout as
    it arrives. *)
val run_all : unit -> unit

(** [run_one id] runs one experiment like [run_all]; [false] when [id]
    names none. *)
val run_one : string -> bool
