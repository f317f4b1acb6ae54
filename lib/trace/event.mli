(** Typed trace events for every simulator layer.

    The taxonomy (DESIGN.md §10):
    - {b hw}: [Wrpkru]/[Rdpkru] register traffic, TLB miss/fill/flush,
      PTE updates (one summary event per range op), page faults;
    - {b kernel}: syscall enter/exit (with errno on failure), lazy
      [do_pkey_sync] deferral vs execution, reschedule/shootdown IPIs,
      context switches, signal delivery;
    - {b core (libmpk)}: key-cache hit/miss/evict/full/pin/unpin, page
      group ops, protected-heap alloc/free;
    - {b faultinj}: injection-point firings;
    - {b tracer-internal}: span begin/end markers emitted by
      {!Tracer.with_span}.

    Payloads are plain ints/strings on purpose: this module depends on
    nothing above [mpk_util], so hw, kernel, core, and faultinj can all
    emit without dependency cycles. *)

type ev =
  | Wrpkru of { pkru : int }
  | Rdpkru of { pkru : int }
  | Tlb_miss of { vpn : int }
  | Tlb_fill of { vpn : int; pkey : int }
  | Tlb_flush of { pages : int; all : bool }
  | Pte_update of { pages : int; present : int }
  | Page_fault of { addr : int; cause : string }
  | Syscall_enter of { name : string }
  | Syscall_exit of { name : string; errno : string option }
  | Pkey_sync_deferred of { target : int; pkey : int }
  | Pkey_sync_executed of { target : int; pkey : int }
  | Ipi of { kind : string; target_core : int }
  | Context_switch of { task : int; onto : bool }
  | Signal_delivered of { task : int; signo : int; code : string }
  | Lock_acquire of { cls : string; excl : bool; actor : int }
  | Lock_release of { cls : string; excl : bool; actor : int }
  | Lock_contended of { cls : string; excl : bool; actor : int }
  | Cache_hit of { vkey : int; pkey : int }
  | Cache_miss of { vkey : int }
  | Cache_evict of { vkey : int; victim : int; pkey : int }
  | Cache_full of { vkey : int }
  | Cache_pin of { vkey : int }
  | Cache_unpin of { vkey : int }
  | Group_op of { op : string; vkey : int }
  | Heap_alloc of { vkey : int; size : int; addr : int }
  | Heap_free of { vkey : int; addr : int }
  | Fault_point_fired of { point : string }
  | Span_begin of { name : string }
  | Span_end of { name : string }

(** Envelope: every emitted event is stamped with emission order, the
    emitting core's simulated cycle clock, the task resident on that
    core, and the innermost open span. *)
type t = {
  seq : int;  (** global emission order, unique across cores *)
  ts : float;  (** simulated cycle time on [core] at emission *)
  core : int;  (** [-1] when there is no core context (faultinj) *)
  task : int;  (** task id on [core], [-1] if none/unknown *)
  span : int;  (** innermost open span id; [0] means top level *)
  ev : ev;
}

val kind : ev -> string
(** Stable snake_case tag, used for metrics names and exporter labels. *)

val args : ev -> (string * string) list
(** Payload fields as key/value strings, for exporters. *)

val to_line : t -> string
(** One-line human-readable rendering (black-box dumps, [mpkctl trace]). *)
