(** Paper Fig 12: Octane scores for SpiderMonkey and ChakraCore with the
    original (mprotect-based) W⊕X versus the two libmpk approaches.
    Scores are normalized so the engine *without* W⊕X scores 10,000 per
    program; the paper's claims are relative improvements of libmpk over
    mprotect. *)

val render : unit -> string
