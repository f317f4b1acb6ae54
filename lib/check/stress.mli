(** Randomized stress driver for the invariant auditor.

    Generates a weighted, seeded sequence of libmpk API calls —
    mmap/munmap/begin/end/mprotect (including execute-only transitions)
    /malloc/free plus benign memory touches — interleaved across several
    tasks, and runs {!Audit.run} after every operation. Everything is
    derived from [config.seed] via [Mpk_util.Prng], so a failure is
    replayable from the seed alone, and the pre-generated op list can be
    shrunk to a minimal failing trace.

    Expected API errors (key exhaustion, EINVAL on an unmatched end,
    EACCES on an over-privileged begin, …) are caught and counted; any
    other exception, or a non-empty audit, stops the run and is reported
    as a failure at that op index. *)

type config = {
  hw_keys : int;  (** keys in circulation, 1..15 *)
  tasks : int;  (** interleaved tasks, one per core *)
  evict_rate : float;  (** mpk_mprotect eviction probability *)
  vkeys : int;  (** virtual keys drawn from 1..vkeys *)
  max_pages : int;  (** group size drawn from 1..max_pages *)
  seed : int64;
  faults : (string * Mpk_faultinj.plan) list;
      (** failure points armed for the run (after setup, seeded from
          [seed]); injected failures count as benign errors, but the
          auditor still runs after every op, so a fault that corrupts
          library state is caught. Empty = no injection. *)
}

(** 15 keys, 2 tasks, evict_rate 1.0, 8 vkeys, 4 pages, seed 1,
    no fault injection. *)
val default_config : config

type op =
  | Mmap of { vkey : int; task : int; pages : int; prot_sel : int }
  | Munmap of { vkey : int; task : int }
  | Begin of { vkey : int; task : int; prot_sel : int }
  | End of { vkey : int; task : int }
  | Mprotect of { vkey : int; task : int; prot_sel : int }
  | Malloc of { vkey : int; task : int; size : int }
  | Free of { vkey : int; task : int; index : int }
      (** frees the [index]-th (mod live count) recorded allocation *)
  | Touch of { vkey : int; task : int }  (** benign read attempt *)

val show_op : op -> string

(** [ir_of_trace ~name ops] — the straight-line IR program of a (usually
    minimized) trace, via [Mpk_analysis.Ir.of_trace]: per-thread chains,
    main spawning/joining the others. Re-emitted in failure reports so
    dynamic failures and static lints share one vocabulary. *)
val ir_of_trace : name:string -> op list -> Mpk_analysis.Ir.program

(** [gen_ops cfg n] — the deterministic op sequence for [cfg.seed]. *)
val gen_ops : config -> int -> op list

type kind =
  | Violations of Audit.violation list  (** the auditor flagged the state *)
  | Crash of string  (** an unexpected exception escaped the API *)

type failure = {
  index : int;
  op : op;
  kind : kind;
  blackbox : string list;
      (** the last trace events before the failing op — every [run]
          records into the {!Mpk_trace.Tracer} ring (a flight recorder),
          and a failure dumps its tail, captured before any [minimize]
          re-runs clobber the ring *)
}

type result =
  | Passed of { applied : int; benign_errors : int }
  | Failed of failure

(** [run cfg ops] applies the sequence, auditing the initial state and
    then after every operation. *)
val run : config -> op list -> result

(** Injection statistics (hits/fired per armed point) captured at the end
    of the most recent [run] — the registry itself is reset between runs,
    so this is the only way to see what actually fired. *)
val last_fault_stats : unit -> Mpk_faultinj.stats list

(** [minimize cfg ops] — a smaller op list that still fails under [cfg]
    (ddmin-style chunk removal; [ops] unchanged when it passes). *)
val minimize : config -> op list -> op list

(** [report cfg ~ops_total failure minimized] — human-readable failure
    report: the violated invariants, the replay seed/config, and the
    minimized trace. *)
val report : config -> ops_total:int -> failure -> op list -> string
