(** Static domain-safety lints over libmpk client IR programs ({!Ir}).

    Five classic passes, each a forward abstract interpretation
    ({!Dataflow.forward}) over every thread CFG:

    - [typestate]: key lifecycle — use-after-free, double-free, mmap of
      a live vkey, leak-on-exit (libmpk §4.1 lifecycle).
    - [balance]: mpk_begin/mpk_end pairing on {i all} paths, including
      early returns and signal-escape edges (§4.2; a leaked begin pins
      its hardware key forever).
    - [wx]: W^X — no abstract state in which a page group is both
      writable and executable, and no instruction fetch while the group
      is writable (§6.1 JIT case study).
    - [gadget]: ERIM-style unsafe-WRPKRU scan over the instruction
      streams the JIT emits (ERIM §3.1: every WRPKRU must be followed by
      a check of the loaded value).
    - [toctou]: the lazy do_pkey_sync hazard — a global revocation
      (mpk_mprotect) races a concurrently live thread whose access is
      not covered by its own mpk_begin; until the victim's deferred
      task_work runs, its PKRU still grants the revoked right (§4.2,
      Fig 7).

    Three concurrency passes share one per-thread sweep over kernel
    lock/load/store steps: [lockset] (Eraser's discipline: two
    may-concurrent accesses with disjoint locksets, one a store, race),
    [lockorder] (cycles in the may-held lock-class graph are potential
    deadlocks) and [atomicity] (a store acting on a load whose lock was
    dropped in between).

    Findings carry a severity and a concrete path witness;
    [Mpk_check.Witness] executes witnesses on the simulator with the
    invariant auditor as oracle. *)

type severity = Error | Warning | Info
type access = A_read | A_write

val access_to_string : access -> string

type detail =
  | Use_after_free of { vkey : int }
  | Use_unmapped of { vkey : int }
  | Double_free of { vkey : int }
  | Free_unmapped of { vkey : int }
  | Mmap_live of { vkey : int }
  | Leak_on_exit of { vkey : int }
  | Unbalanced of { vkey : int; definite : bool }
  | End_underflow of { vkey : int }
  | Free_inside_begin of { vkey : int }
  | Wx_mapping of { vkey : int }
  | Wx_exec_writable of { vkey : int; window : bool }
  | Unsafe_wrpkru of { vkey : int; offset : int }
  | Toctou of { vkey : int; victim : int; access : access }
  | Race of { loc : Ir.loc; t1 : int; t2 : int; write : bool }
  | Deadlock of { cycle : string list }  (** lock classes, cyclically ordered *)
  | Atomicity of { loc : Ir.loc; dropped : Ir.lockref }
  | Unlock_unheld of { lk : Ir.lockref }
  | Maybe of string  (** imprecision-only findings (joined states) *)

type finding = {
  pass : string;
  severity : severity;
  detail : detail;
  tid : int;  (** thread of the violating node *)
  node : int;
  message : string;
  witness : Ir.step list;  (** program-start-to-violation path *)
}

(** ["[SEVERITY] pass (t<tid>, node <n>): message"]. *)
val pp_finding : Format.formatter -> finding -> unit

(** The witness's non-label steps, one indented line each. *)
val pp_witness : Format.formatter -> finding -> unit

val has_errors : finding list -> bool

(** Every pass name, classic passes first. *)
val pass_names : string list

(** The five classic passes, the default of [mpkctl lint --app]. *)
val classic_pass_names : string list

(** [analyze ?passes p] runs the named passes (default: all) and sorts
    the findings by severity, then thread, then node (then pass and
    message), so lint output diffs are deterministic. *)
val analyze : ?passes:string list -> Ir.program -> finding list

(** The cycles of [p]'s may-held lock-class graph, each rotated so its
    least class leads: what [Mpk_check.Witness.crosscheck] compares with
    dynamic lockdep's inversions. *)
val static_lock_cycles : Ir.program -> string list list
