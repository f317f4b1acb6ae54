(** Snapshot a crashed (or live) task into a sealed {!Dump.t}.

    Capture walks the process's VMA tree through the page table, reads
    the bytes of every present page straight from simulated physical
    memory (the dying task cannot be trusted to run loads), classifies
    each page by its PTE protection key {e and} libmpk group metadata,
    coalesces runs of uniform classification, and hands the result to
    {!Dump.seal}.

    Classification: a page is {e protected} when its pkey is nonzero,
    or when it belongs to a live libmpk group — the latter catches
    isolated groups whose hardware key was evicted (their pages drop to
    [PROT_NONE] with pkey 0, yet still hold domain secrets). *)

open Mpk_kernel

(** The failure point ("coredump.capture") consulted at the start of a
    capture. Exported, though only tests name it: it is the name
    {!Mpk_faultinj.inject} arms to test degradation under mid-crash
    failure. *)
val fault_point : string

(** [default_key ~seed] — the dump key used when the operator supplies
    none: derived from the run seed, so a deterministic run can be
    inspected offline without a key exchange. A production port would
    read an operator-provisioned key instead. *)
val default_key : seed:int64 -> bytes

(** [capture ~proc ~task ?mpk ?siginfo ~key ~seed ~policy ()].

    [siginfo] defaults to the signal that killed [task]
    ({!Task.last_kill}), whose black box (snapshotted at kill time) the
    dump carries; a live task has no siginfo, and its dump carries the
    open trace recording's tail. [mpk] enables group-aware
    classification and should be passed whenever the process runs
    libmpk. The open profile ({!Mpk_trace.Prof.current}), if any, is
    embedded.

    Errors (never raises): the ["coredump.capture"] failure point fired,
    or the memory walk failed. *)
val capture :
  proc:Proc.t ->
  task:Task.t ->
  ?mpk:Libmpk.t ->
  ?siginfo:Signal.siginfo ->
  key:bytes ->
  seed:int64 ->
  policy:Dump.policy ->
  unit ->
  (Dump.t, string) result

(** The secret {!scenario} plants unless told otherwise. *)
val default_sentinel : string

(** How the {!scenario}'s task dies: [Crash_pkey] is a PKRU-denied read
    (SEGV_PKUERR), [Crash_oom] a demand fault under injected frame
    exhaustion, [Crash_none] leaves the task alive. *)
type crash = Crash_none | Crash_pkey | Crash_oom

(** [scenario ~crash ~sentinel k] — the demo crash behind
    [mpkctl coredump]: a Protected keystore holding [sentinel] in a
    pkey-tagged page, one ordinary page with a clear marker, then
    [crash] on a fresh machine, and returns [k] applied to the process,
    its task, the libmpk handle, the secret's address and the clear
    page's address. A trace records from just after the spawn until [k]
    returns: the black box of a {!capture} in [k]. *)
val scenario :
  crash:crash -> sentinel:string -> (Proc.t * Task.t * Libmpk.t * int * int -> 'a) -> 'a
