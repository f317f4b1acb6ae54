(** Shared plumbing for the paper-reproduction experiments: fresh
    simulated machines, cycle→time conversion (the paper's 2.4 GHz Xeon
    Gold 5115), and repetition helpers. *)

open Mpk_kernel

(** Simulated clock frequency used for cycle→seconds conversions. *)
val ghz : float

type t = { proc : Proc.t; tasks : Task.t array }

(** [make ~threads ()] — a fresh machine with [threads] tasks on distinct
    cores (plus headroom). *)
val make : ?threads:int -> ?mem_mib:int -> unit -> t

val main : t -> Task.t

(** [span task name f] — run [f] inside a named tracing/profiling span on
    [task]'s core ({!Mpk_hw.Cpu.span}). Free when observability is off. *)
val span : Task.t -> string -> (unit -> 'a) -> 'a

(** [mean_cycles ~reps task f] — mean cycles of [f] over [reps] calls
    measured on [task]'s core. *)
val mean_cycles : reps:int -> Task.t -> (int -> unit) -> float

(** {1 Gated metrics}

    What a gated experiment's [metrics ~seed ~smoke] returns for `mpkctl
    bench`. Re-running a seed reproduces every value bit-for-bit. *)

type direction =
  | Lower_better  (** latencies, cycle counts *)
  | Higher_better  (** throughputs, speedup ratios *)

val direction_to_string : direction -> string
val direction_of_string : string -> (direction, string) result

type metric = { name : string; value : float; direction : direction }

val metric : string -> direction -> float -> metric

(** [mix seed k base] is the sub-seed [base + seed * k]: distinct odd
    multipliers [k] decorrelate the streams one trial seed drives. *)
val mix : int -> int -> int -> int64
