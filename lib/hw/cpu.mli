(** A logical core (hyperthread): PKRU register, TLB, cycle counter, and a
    small pipeline model capturing WRPKRU's serializing behaviour. *)

type t

val create : ?costs:Costs.t -> id:int -> unit -> t

val id : t -> int
val costs : t -> Costs.t
val tlb : t -> Tlb.t

(** Elapsed simulated cycles on this core. *)
val cycles : t -> float

(** [charge ?label t c] advances the core's clock by [c] cycles. When
    a profile is recording ({!Mpk_trace.Prof}), the charge is attributed
    to [label] under the currently-open spans; unlabelled charges show
    up as [(unattributed)] rather than vanishing. *)
val charge : ?label:string -> t -> float -> unit

(** [charge_sum t ~label a b] is [charge ~label t (a +. b)],
    [charge_per t ~label n c] is [charge ~label t (float_of_int n *. c)],
    and [charge_per2 t ~label n a m b] is
    [charge ~label t ((float_of_int n *. a) +. (float_of_int m *. b))]:
    the same float operations in the same order, computed inside [Cpu]
    so that the charged value is never boxed. Allocation-free request
    paths charge computed costs through these. *)
val charge_sum : t -> label:string -> float -> float -> unit

val charge_per : t -> label:string -> int -> float -> unit

val charge_per2 : t -> label:string -> int -> float -> int -> float -> unit

(** Cycles ever charged across {e all} cores since the last
    {!reset_total_charged}. Advanced by the identical float-addition
    sequence as a profile's [Prof.total] when both start together,
    making the attribution exactness check bit-exact. *)
val total_charged : unit -> float

val reset_total_charged : unit -> unit

(** [with_plant_slowdown (Some (label, extra)) f] runs [f] under an
    artificial slowdown: every charge carrying exactly [label] costs
    [extra] additional cycles, on any core. The surcharge travels the
    normal accounting path (core clock, {!total_charged}, profiler), so
    cycle attribution stays exact — which is the point: the bench gate's
    planted-regression self-test must look like a genuine hot-path
    slowdown, not a bookkeeping anomaly. [None] runs [f] with no plant.
    The enclosing plant is back when [f] returns or raises. Raises
    [Invalid_argument] on a negative or non-finite surcharge. *)
val with_plant_slowdown : (string * float) option -> (unit -> 'a) -> 'a

(** [set_preempt t f] makes [f] what an injected ["sched.preempt"]
    (see {!Mpk_faultinj}) does on this core: every charge evaluates the
    point, and when it fires, [f] gets the core's id. A new core does
    nothing; the kernel's process installs its scheduler on the cores
    of its machine, as it installs the MMU's fault sink. *)
val set_preempt : t -> (int -> unit) -> unit

(** The hook {!set_preempt} installed last ([ignore] on a new core). *)
val preempt_hook : t -> int -> unit

(** [set_task t id] records the task resident on this core, [-1] for
    none: the scheduler sets it as it switches tasks in and out, and
    {!emit} and {!span} stamp trace events with it. *)
val set_task : t -> int -> unit

(** [measure t f] is [f ()] together with the cycles it consumed. *)
val measure : t -> (unit -> 'a) -> 'a * float

(** [emit t ev] emits a trace event stamped with this core's id,
    resident task and cycle clock. No-op (one branch) when tracing is
    disabled, but callers on hot paths should still guard with
    [Mpk_trace.Tracer.on] to avoid constructing the event payload. *)
val emit : t -> Mpk_trace.Event.ev -> unit

(** A trace or a profile is recording: [Mpk_trace.Tracer.on () ||
    Mpk_trace.Prof.on ()], the one predicate that decides whether a
    span is built. Allocates nothing. Request-path entry points (libmpk
    calls, syscalls) test it and, when it is false, run their body
    directly instead of building a span and a body closure. *)
val observed : unit -> bool

(** [span t name f] runs [f] inside a named tracing/attribution span
    clocked by this core (see {!Mpk_trace.Tracer.with_span}); when not
    {!observed}, it is just [f ()]. *)
val span : t -> string -> (unit -> 'a) -> 'a

(* PKRU access. *)

val pkru : t -> Pkru.t

(** [set_pkru_direct t v] updates PKRU without charging cycles — used by
    the kernel when restoring register state on a context switch. *)
val set_pkru_direct : t -> Pkru.t -> unit

(** WRPKRU: serializing write — charges latency and stalls the pipeline. *)
val wrpkru : t -> Pkru.t -> unit

(** RDPKRU: cheap read. *)
val rdpkru : t -> Pkru.t

(* Pipeline model for Fig 2. *)

(** [exec_adds t n] models [n] dependent-free ADD instructions, paying the
    post-serialization refill penalty when applicable. *)
val exec_adds : t -> int -> unit

(** Plain register move (Table 1 reference row). *)
val exec_reg_move : t -> unit
