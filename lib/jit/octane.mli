(** An Octane-like benchmark suite (paper Figs 12 and 13).

    Each program is a synthetic JIT workload parameterized by how many
    hot functions it compiles, how often it patches them, and how much it
    executes — the knobs that determine how much permission-switch
    traffic each W⊕X strategy sees. Profiles follow the behaviours the
    paper calls out: SplayLatency allocates many pages it rarely updates
    (bad for key-per-page eviction), Box2D patches a small working set
    intensely (great for libmpk), zlib commits many pages once (the extra
    pkey_mprotect hurts key-per-process). *)

type program = {
  name : string;
  hot_functions : int;  (** pages allocated (one function per page) *)
  patches_per_function : int;
  execs_per_function : int;
  ops : int;  (** instructions per function *)
  script_cycles : float;  (** non-JIT interpreter/GC work per program *)
}

(** The 17 Octane programs. *)
val programs : program list

type run = { program : string; cycles : float; score : float }

(** [run_program profile strategy ?reference prog] — execute one program
    under one configuration on a fresh simulated machine. The score is
    [10_000 * reference / cycles]; without an explicit [reference] the
    same program is first measured with no W⊕X protection (so the
    unprotected engine scores 10,000 by construction). *)
val run_program : Engine.profile -> Wx.t -> ?reference:float -> program -> run

(** [measure profile strategy prog] — raw engine-core cycles for one run
    (exposed so callers can share a reference across variants). *)
val measure : Engine.profile -> Wx.t -> program -> float

(** Total score across a list of runs (Octane-style geometric mean,
    scaled). *)
val total_score : run list -> float
