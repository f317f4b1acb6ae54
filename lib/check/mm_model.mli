(** IR model of the kernel's per-VMA locking protocol (DESIGN.md §13),
    the input program for the static concurrency passes
    ({!Mpk_analysis.Lint}).

    Main installs a mapping, spawns a lookup task (tid 1) and a protect
    task (tid 2), joins both, and tears the mapping down. The clean
    protocol yields zero lint findings; each {!plant} reintroduces one
    of the PR 8 torture-harness bugs at the model level so the static
    passes (and {!Witness} replay) can be validated against dynamic
    ground truth. *)

type plant =
  [ `Recycle  (** use of the VMA after dropping its lock → lockset race *)
  | `Lock_order  (** vma→mm acquisition against mm→vma → deadlock cycle *)
  | `Window  (** check under the read lock, mutate after re-acquire → atomicity *)
  ]

val plant_of_string : string -> plant option
val plant_to_string : plant -> string

val lock_classes : string list
(** Lock classes the model uses; mpkctl validates these against the
    kernel's {!Mpk_kernel.Lock.known_classes}. *)

val program : ?plant:plant -> unit -> Mpk_analysis.Ir.program
