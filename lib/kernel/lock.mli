(** Reader/writer lock with per-actor hold counts — the primitive behind
    the mm-wide lock and the per-VMA locks (DESIGN.md §13).

    The simulator is single-threaded, so no atomics: the value of the
    lock is its {e observability} (every transition runs the event hook,
    which the lockdep validator installs into) and its
    {e schedulability} (a contended acquire calls the wait hook, which
    the torture scheduler replaces to park the acquiring fiber). The
    default wait hook raises {!Would_block}: in sequential mode nothing
    can release a lock behind the caller's back, so contention is a
    self-deadlock by construction.

    Actors are plain ints — core ids in practice ([-1] for lock use with
    no core context, e.g. kernel metadata walks). *)

type mode = Shared | Exclusive

type t

type event =
  | Attempt of { lock : t; mode : mode; actor : int }
  | Acquired of { lock : t; mode : mode; actor : int }
  | Contended of { lock : t; mode : mode; actor : int }
  | Released of { lock : t; mode : mode; actor : int }

exception Would_block of string

val make : cls:string -> t
(** [cls] is the lock class ("mm_lock", "vma_lock", ...): lockdep's
    ordering graph is built over classes, not instances. *)

val id : t -> int
val cls : t -> string

val known_classes : unit -> string list
(** Every class a lock was ever constructed with, sorted. The static
    concurrency analyzer validates its protocol models against this. *)

val with_hook : (event -> unit) -> (unit -> 'a) -> 'a
(** [with_hook h f] runs [f] with the lockdep recorder [h] seeing every
    transition, and puts the enclosing hook back when [f] returns or
    raises. Exactly one hook is installed at a time. Events are
    constructed only while a hook is installed, so an unobserved
    transition allocates none. *)

val with_wait_hook : (t -> actor:int -> unit) -> (unit -> 'a) -> 'a
(** [with_wait_hook w f] runs [f] with the scheduler's contention action
    [w] (torture parks the fiber and retries after the next resume), and
    puts the enclosing one back when [f] returns or raises. *)

val acquire : t -> mode -> actor:int -> unit
(** Blocking acquire. Reentrant for [Exclusive] by the same actor;
    [Shared] under own [Exclusive] is granted. A shared→exclusive
    upgrade waits on itself (flagged by lockdep, fatal without a
    scheduler). *)

val try_acquire : t -> mode -> actor:int -> bool
(** Non-blocking acquire ([vma_start_read]): no wait, no [Contended]
    event on failure. *)

val release : t -> mode -> actor:int -> unit
(** Releasing a lock not held in [mode] is counted in {!unbalanced}
    (and surfaces as a lockdep finding) rather than raising, mirroring
    real lockdep's WARN. *)

val reader_count : t -> int
val write_locked : t -> bool

val unbalanced : unit -> int
(** Releases-not-held observed since process start (monotonic; compare
    deltas). *)
