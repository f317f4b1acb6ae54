(** The registry of the paper's tables and figures: the one list behind
    `mpkctl list`, `run`, `profile` and `bench`. *)

type experiment = {
  id : string;
  title : string;
  render : unit -> string;  (** the experiment's human-readable output *)
  metrics : (seed:int -> smoke:bool -> Env.metric list) option;
      (** the numbers `mpkctl bench` gates, each named [id ^ "."]; [None]
          for an ungated experiment *)
}

(** All experiments in paper order, the scale-out sweep last. *)
val all : experiment list

val find : string -> experiment option

(** The gated experiments' ids and metric functions, in {!all}'s order. *)
val gated : (string * (seed:int -> smoke:bool -> Env.metric list)) list

(** Print the experiment's banner, its output and, on a line of its own,
    its host run time. *)
val run_experiment : experiment -> unit
