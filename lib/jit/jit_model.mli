(** IR model of the JIT engine's libmpk protocol (paper §6.1, key/page).

    The code cache is one page group, mmapped with max_prot rwx (pages
    carry the exec bit; data rights stay PKRU-gated, so the group starts
    inaccessible). The compile-and-run loop opens a per-thread write
    window with mpk_begin(rw) to emit code, closes it, and only then
    executes — W^X by protocol, not by trap.

    The emitted instruction stream includes libmpk's own inlined domain
    switch: a WRPKRU immediately followed by the ERIM-style check of the
    loaded value. The gadget scan must accept it.

    Planted violations (each behind a flag, for the analyzer's CI run):
    - [`Wx]      a "fast-patch mode" that mpk_mprotects the whole cache
                 rwx and keeps executing — the classic W^X break
    - [`Gadget]  an emitted stream whose WRPKRU has no check after it *)

val program : ?plant:[ `Wx | `Gadget ] -> unit -> Mpk_analysis.Ir.program
