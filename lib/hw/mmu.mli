(** Memory accesses with MPK semantics (paper Fig 1).

    A data access is allowed iff the page permission *and* the PKRU rights
    for the page's key both allow it. An instruction fetch checks only the
    page's execute permission — PKRU is not consulted, which is what makes
    execute-only memory possible. *)

type access = Read | Write | Fetch

type cause =
  | Not_present  (** no translation *)
  | Page_perm  (** page permission bits deny the access *)
  | Pkey_denied  (** PKRU rights for the page's key deny the access *)
  | No_memory  (** demand paging found no free physical frame *)

type fault = { addr : int; access : access; cause : cause }

exception Fault of fault

val access_to_string : access -> string
val fault_to_string : fault -> string

type t

val create : Page_table.t -> Physmem.t -> t

(** The kernel's page-fault handler: called on a not-present translation
    with the faulting CPU (when the access came from user code; [None]
    for privileged copies). Returning [true] means the fault was resolved
    (demand paging) and the access retries; [false] delivers the fault.
    At most one handler; installed by the kernel's [Mm]. *)
val set_fault_handler : t -> (Cpu.t option -> fault -> bool) -> unit

(** The kernel's fault {e sink}: called with every unresolved fault raised
    by user-mode code (the faulting CPU is known), before [Fault] would
    escape. The kernel uses it to deliver a POSIX-shaped signal to the
    task on that CPU — the sink is expected to raise (signal handler
    escape or default-kill); if it returns, the raw [Fault] is raised as
    the bare-hardware fallback. Privileged accesses (kernel copies)
    never reach the sink. At most one; installed by [Proc]. *)
val set_fault_sink : t -> (Cpu.t -> fault -> unit) -> unit

(** Checked single-byte data access. *)
val read_byte : t -> Cpu.t -> addr:int -> char

val write_byte : t -> Cpu.t -> addr:int -> char -> unit

(** Checked multi-byte access; may cross page boundaries. *)
val read_bytes : t -> Cpu.t -> addr:int -> len:int -> bytes

(** [read_into t cpu ~addr buf ~len] is [read_bytes] into the first
    [len] bytes of the caller's [buf], with the same checks and charges;
    it allocates nothing. Raises [Invalid_argument] unless
    [0 <= len <= Bytes.length buf]. *)
val read_into : t -> Cpu.t -> addr:int -> bytes -> len:int -> unit

val write_bytes : t -> Cpu.t -> addr:int -> bytes -> unit

(** Checked 64-bit little-endian access to an OCaml [int]: [write_word]
    stores it sign-extended to 64 bits, [read_word] drops the word's top
    bit. A word inside one page is one checked access and allocates
    nothing; a page-crossing word takes [read_bytes]/[write_bytes]. *)
val read_word : t -> Cpu.t -> addr:int -> int

val write_word : t -> Cpu.t -> addr:int -> int -> unit

(** [fetch t cpu ~addr ~len] models instruction fetch of [len] bytes. *)
val fetch : t -> Cpu.t -> addr:int -> len:int -> bytes

(** Privileged access: the kernel bypasses PKRU (it still requires a
    translation to exist). Used for kernel-mediated metadata updates. *)
val kernel_write_bytes : t -> addr:int -> bytes -> unit

val kernel_read_bytes : t -> addr:int -> len:int -> bytes
