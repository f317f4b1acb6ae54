(** IR model of the memcached-style kvstore's libmpk protocol (§6.3,
    Domain mode).

    Two page groups — the slab arena and the hash index — are opened per
    request with nested mpk_begin(rw) by each worker thread. The request
    body runs under a signal guard: a pkey fault mid-request escapes to a
    handler that closes both domains and answers SERVER_ERROR (the
    per-request guard of the signal layer). Main spawns the
    workers, ticks epochs, joins them, and tears the groups down.

    Planted violations (behind flags):
    - [`Unbalanced]  worker 1 grows a "reply from L1 cache" fast path
                     that returns early, closing only the hash domain —
                     the slab begin leaks on that path
    - [`Toctou]      main publishes the slab globally (mpk_mprotect rw),
                     spawns a bare scanner thread that reads it with no
                     domain of its own, then seals the slab
                     (mpk_mprotect none) while the scanner is live — the
                     revocation races the scanner's lazy do_pkey_sync *)

val program : ?plant:[ `Unbalanced | `Toctou ] -> unit -> Mpk_analysis.Ir.program
