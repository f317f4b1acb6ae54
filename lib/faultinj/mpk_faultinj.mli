(** Deterministic fault injection (modeled on Linux's fault-injection
    framework, CONFIG_FAULT_INJECTION).

    Layers register named {e failure points} ([declare]) and consult them
    on their fallible paths ([fire]). A point does nothing until a run
    arms it with a {!plan} through {!inject}; every plan is evaluated
    against a per-point hit counter or the injection's seeded PRNG, so a
    failure schedule is replayable from [(seed, spec)] alone.

    Plans, counters and the PRNG belong to one injection, armed for the
    extent of a function and disarmed when it returns or raises: no
    caller resets, reseeds or disarms anything. What an injected failure
    does is the failing layer's own business ([sched.preempt], for one,
    runs the preemption hook of the core that charged; see
    [Mpk_hw.Cpu.set_preempt]). *)

type plan =
  | Once of int  (** fire on the [n]-th evaluation (0-based), then never again *)
  | Every of int  (** fire on every [n]-th evaluation ([n >= 1]) *)
  | Prob of float  (** fire independently with this probability (seeded) *)

type stats = {
  name : string;
  hits : int;  (** evaluations while armed *)
  fired : int;  (** evaluations that injected the failure *)
}

(** Register a failure point. Idempotent; instrumented modules call this at
    initialization so that [points] enumerates the full surface even
    before any path is exercised. *)
val declare : string -> unit

(** [inject ~seed plans f] runs [f] with [plans] armed, each with fresh
    counters, and [Prob] plans drawing from a PRNG seeded with [seed]
    (a point named twice keeps its last plan; an unknown name is
    declared). The plans are disarmed when [f] returns or raises. The
    result comes with the armed points' stats, in registration order.
    A nested [inject] is a fresh injection for its own extent (the
    enclosing plans do not fire inside it), and the enclosing one
    resumes unchanged. Raises [Invalid_argument] on an out-of-range
    plan. *)
val inject : seed:int64 -> (string * plan) list -> (unit -> 'a) -> 'a * stats list

(** [fire name] — evaluate the point: true means the caller must inject
    its failure now. Unarmed (or unknown) points never fire. The check
    for "nothing armed" inlines into the caller as one load and one
    compare, with the armed path out of line, so hot paths (every
    [Mpk_hw.Cpu.charge]) may call it unconditionally. *)
val fire : string -> bool

(** Every declared point, in registration order. *)
val points : unit -> string list

(** Parse a failure spec: comma-separated [NAME@N] (once, on the N-th
    hit), [NAME%N] (every N-th hit), [NAME~P] (probability P), or bare
    [NAME] (shorthand for [NAME@0]).
    Returns [Error message] on malformed input or an unknown plan value. *)
val parse_spec : string -> ((string * plan) list, string) result

val plan_to_string : plan -> string

(** Documentation string for the spec grammar (CLI help). *)
val spec_grammar : string
