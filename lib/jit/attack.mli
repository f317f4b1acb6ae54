(** The SDCG race-condition attack on JIT code caches (paper §6.1).

    A compromised thread with arbitrary read/write primitives waits for
    the JIT compiler to open a write window on a code page and tries to
    plant shellcode in it. With [mprotect]-based W⊕X the window is
    process-global and the attack lands; with libmpk the window exists
    only in the compiler thread's PKRU and the write faults. *)

type outcome =
  | Injected of int  (** attacker's code executed and returned this *)
  | Blocked of string  (** the write faulted *)

(** [run ~strategy ()] — build a two-thread engine under [strategy],
    launch the racing write during a patch, then execute the function and
    report whether the attacker's payload took effect. *)
val run : strategy:Wx.t -> unit -> outcome
