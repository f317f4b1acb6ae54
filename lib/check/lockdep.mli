(** Lockdep-style lock-discipline validator (DESIGN.md §13, invariant
    I7).

    While a recording is open ({!record}), it is the kernel
    {!Mpk_kernel.Lock} event hook and tracks per-actor held-sets. From
    them it builds the class-level lock-order graph and reports:
    - {b ordering inversions} — an acquire whose held-set implies an
      A→B edge when B→A is already established (plus a full-graph
      cycle sweep at quiescence for longer cycles);
    - {b same-class nesting} — two instances of one class held at once
      (would need an ordering annotation in real lockdep);
    - {b self-deadlocks} — waiting on one's own hold (shared→exclusive
      upgrade);
    - {b releases-not-held};
    - {b leaks} — holds (vm_refcnt references) outliving quiescence,
      including unbalanced mmgrab pins.

    Findings are deduplicated within a recording; the auditor folds the
    open recording's findings in as I7. *)

type finding =
  | Inversion of { first : string * string; second : string * string; actor : int }
  | Cycle of { classes : string list }
  | Same_class_nesting of { cls : string; actor : int }
  | Self_deadlock of { cls : string; actor : int }
  | Release_not_held of { cls : string; actor : int }
  | Leak of { cls : string; actor : int; count : int }

val to_string : finding -> string

type capture
(** The findings and lock-order edges one {!record} caught. *)

val record : (unit -> 'a) -> 'a * capture
(** [record f] runs [f] in a fresh recording, open exactly while [f]
    runs (it closes when [f] raises, too), and returns [f]'s result with
    the recording. Inside an open recording, [f] runs in that one, which
    is then the capture: it judges [f]'s lock traffic against what it
    saw before. *)

val findings : capture -> finding list
(** Oldest first. *)

val order_edges : capture -> (string * string) list
(** The class-level lock-order graph observed — [(a, b)] means "while
    holding class [a], some actor attempted class [b]" — sorted. The
    static lock-order pass ({!Mpk_analysis.Lint}) cross-checks its
    all-paths graph against these dynamic observations. *)

val findings_so_far : unit -> finding list
(** The open recording's findings, oldest first; [[]] when none is open. *)

val check_quiescent : unit -> unit
(** Add the end-of-run findings to the open recording: held-lock and
    refcount leaks, mmgrab balance, and a full cycle sweep. Call only
    when every task has finished its critical sections. *)
