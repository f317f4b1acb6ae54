(** Cycle-cost model of the simulated machine.

    Constants are calibrated so that the simulator's microbenchmarks
    reproduce the paper's Table 1 (Intel Xeon Gold 5115, Linux 4.14):
    WRPKRU 23.3 cycles, RDPKRU 0.5, pkey_alloc 186.3, pkey_free 137.2,
    pkey_mprotect 1104.9, mprotect 1094.0. Every field can be overridden to
    run cost-model ablations. *)

type t = {
  (* Instruction-level costs. *)
  add_pipelined : float;  (** amortized ADD cost with full ILP (4-wide) *)
  wrpkru : float;  (** WRPKRU base latency (serializing write) *)
  wrpkru_drain : float;  (** extra per-instruction penalty paid while the
                             pipeline refills after WRPKRU (Fig 2 gap) *)
  pipeline_refill_window : int;  (** instructions executed serially after a
                                     serializing instruction *)
  rdpkru : float;  (** RDPKRU latency, comparable to a register read *)
  reg_move : float;  (** plain register-to-register move *)
  (* Memory-system costs. *)
  tlb_hit : float;
  page_walk : float;  (** 4-level table walk on TLB miss *)
  mem_access : float;  (** cache/DRAM cost of the access itself *)
  tlb_flush_all : float;  (** full TLB invalidation *)
  tlb_flush_page : float;  (** single-page INVLPG *)
  tlb_flush_ceiling : int;  (** pages above which the kernel flushes the
                                whole TLB instead of per-page INVLPG *)
  (* Kernel-path costs. *)
  kernel_entry_exit : float;  (** user->kernel->user domain switch *)
  pkey_alloc_work : float;  (** bitmap scan + PKRU init inside the kernel *)
  pkey_free_work : float;  (** bitmap clear *)
  vma_find : float;  (** VMA tree lookup *)
  vma_split_merge : float;  (** one VMA split or merge *)
  vma_update : float;  (** flag/prot update of one VMA *)
  pte_scan : float;  (** visiting one page-table slot during
                         change_protection, present or not *)
  pte_update : float;  (** rewriting one *present* PTE — absent entries
                           cost only the scan, which is what makes
                           mprotect cheap on untouched mappings and
                           expensive on populated ones *)
  page_fault : float;  (** demand-paging fault: delivery + frame
                           allocation + PTE install *)
  (* Multi-thread machinery. *)
  ipi_send : float;  (** cost to the sender of one IPI *)
  ipi_receive : float;  (** cost to the receiver core *)
  task_work_add : float;  (** enqueue one task_work PKRU update *)
  task_work_run : float;  (** apply one queued update at return-to-user *)
  context_switch : float;
}

(** Calibrated default (see DESIGN.md section 4). *)
val default : t

(** mprotect/pkey_mprotect kernel-side cost on [vmas] VMAs covering
    [pages] slots of which [present] hold live PTEs, excluding entry/exit,
    TLB flush and shootdown. *)

(** TLB invalidation cost for a range of [pages] pages (per-page INVLPG up
    to [tlb_flush_ceiling], full flush beyond). *)
val tlb_invalidate : t -> pages:int -> float
