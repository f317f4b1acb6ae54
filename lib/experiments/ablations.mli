(** Ablation studies on libmpk's design choices (DESIGN.md §6) — beyond
    the paper's own figures:

    - lazy vs eager inter-thread PKRU synchronization (the design of §4.4
      against the synchronous strawman it rejects);
    - key-cache eviction policy (the paper's LRU vs FIFO vs random);
    - hardware key count (what if the ISA had fewer than 16 keys);
    - the per-PTE-update cost constant (the Fig 10 / Fig 14 calibration
      tension made explicit). *)

(** All four, concatenated. *)
val render : unit -> string
