(** Hierarchical cycle attribution.

    While a profile is recording, every labelled [Cpu.charge] accrues
    "self" cycles on the tree node addressed by the currently-open span
    names plus the charge label (e.g. [mpk_begin/wrpkru]); unlabelled
    charges land on an [(unattributed)] child so nothing is silently
    dropped.

    Exactness contract: a recording's {!total} performs the same float
    additions in the same order as [Cpu.total_charged], so when both
    start from 0.0 together the two are bit-identical at the end —
    `mpkctl profile` checks this with exact float equality, not a
    tolerance. *)

val unattributed : string
(** The label unlabelled charges land on: ["(unattributed)"]. *)

val on : unit -> bool
(** A profile is recording. Allocates nothing. *)

val enter : string -> unit
(** Open a span (pushes a tree node). No-op when no profile is
    recording. {!Tracer.with_span} pairs it with {!exit_}. *)

val exit_ : unit -> unit

val charge : ?label:string -> float -> unit
(** Attribute cycles at the current position. Called by [Cpu.charge]. *)

type capture
(** The attribution tree and cycle total of one recording. *)

val record : (unit -> 'a) -> 'a * capture
(** [record f] runs [f] in a fresh profile, open exactly while [f] runs
    (it closes when [f] raises, too), and returns [f]'s result with the
    profile. Inside an open profile, [f] runs in that one, which is then
    the capture: [f]'s cycles join the ones before, under the open spans. *)

val current : unit -> capture option
(** The open profile, for a reader that embeds it mid-run (a core dump). *)

val total : capture -> float
(** Cycles the profile attributed. *)

(** Immutable view of the tree; children sorted by descending total. *)
type snapshot = {
  label : string;
  self : float;
  calls : int;
  total : float;  (** self + all descendants *)
  children : snapshot list;
}

val tree : capture -> snapshot
(** Root snapshot (label ["root"], self 0). *)

val folded : capture -> string
(** Folded-stack export, one ["a;b;c 123.4"] line per node with
    positive self cycles — feed to [flamegraph.pl] or speedscope. *)

val render : capture -> string
(** Indented text table: total / self / calls per node. *)

val json_of_snapshot : snapshot -> Json.t

val snapshot_of_json : Json.t -> (snapshot, string) result
(** Inverse of {!json_of_snapshot} — reload a committed profile tree for
    differential comparison. Strict: errors name the offending node. *)

(** {2 Controls}

    Open, close and clear one long-lived profile, and read its {!total}
    and {!tree}, for the host-cost benchmark's traced phase; do not mix
    them with {!record}. *)

val enable : unit -> unit
val disable : unit -> unit
val reset : unit -> unit
val total_recorded : unit -> float
val snapshot : unit -> snapshot
