(** An address space: VMA tree + page table + frame management, with cycle
    charging that mirrors where Linux's [mprotect] spends time (per-VMA
    lookup/split/merge, per-PTE rewrites, TLB invalidation).

    All functions charge the given core. Kernel entry/exit is *not*
    charged here — that belongs to the syscall layer. TLB shootdown of
    other cores likewise lives in the process layer.

    Concurrency (DESIGN.md §13): every mutating entry point
    ([mmap]/[munmap]/[mmap_frames] and the [change_*] family) holds the
    address space's mm lock exclusively for the duration of the VMA and
    PTE rewrite — which gives the [Syscall]/[Libmpk] paths
    ([mpk_mmap], [mpk_munmap], [mpk_mprotect_many], [pkey_unmap_group])
    write locking at one-operation granularity without further
    plumbing. Lookups ([find_vma_read], used by the fault handler) take
    the lock-free per-VMA path with an mm-read-lock fallback. Lock
    acquisitions charge zero cycles but are preemption points. *)

open Mpk_hw

type t

val create : Physmem.t -> t

val mmu : t -> Mmu.t
val vmas : t -> Vma.t
val page_table : t -> Page_table.t

(** Pages spanned by [len] bytes. *)
val pages_of_len : int -> int

(** [find_vma_read t cpu ~vpn f] — the recycling-safe VMA lookup
    (DESIGN.md §13): lock-free walk → [vma_start_read] → recycle
    re-validation, falling back to a walk under the mm read lock when
    any step loses a race with a writer. [f] runs with the vma
    read-held (so a concurrent unmap waits for it) and its result is
    returned; [None] means no mapping covers [vpn]. [cpu] provides
    charging/preemption context and the lock actor; [None] (kernel
    walks without a core) acts as actor -1 and charges nothing. This is
    the path the demand-paging fault handler takes. *)
val find_vma_read : t -> Cpu.t option -> vpn:int -> (Vma.vma -> 'a) -> 'a option

(** [mmap t cpu ?at ~len ~prot ()] maps [len] bytes (rounded up to pages)
    of zeroed anonymous memory with the default protection key, returning
    the base address. Mapping is *lazy*: frames and PTEs materialize on
    first touch via the demand-paging fault handler, as in Linux — which
    is why [change_protection] is cheap on untouched ranges and expensive
    on populated ones. Without [at], addresses come from a bump allocator
    that leaves a one-page guard gap so distinct calls yield distinct
    VMAs (the paper's "sparse" construction). Raises [Errno.Error]. *)
val mmap : t -> Cpu.t -> ?at:int -> len:int -> prot:Perm.t -> unit -> int

(** [populate t cpu ~addr ~len] pre-faults a range (like touching every
    page), charging one page fault per absent page. It walks the range
    one VMA at a time: one {!find_vma_read} per VMA with an absent page,
    whose read hold covers the filling of all that VMA's absent pages.
    Raises [Errno.Error ENOMEM] at the first unmapped page or when frames
    run out, after filling the pages before it. *)
val populate : t -> Cpu.t -> addr:int -> len:int -> unit

(** [frames_of_range t cpu ~addr ~len] — the physical frames backing a
    range, after {!populate} (and with its errors). Hand these to another
    address space's [mmap_frames] to establish shared memory. *)
val frames_of_range : t -> Cpu.t -> addr:int -> len:int -> Physmem.frame array

(** [mmap_frames t cpu ?at ~frames ~prot ()] — map existing physical
    frames (a shared mapping, as mmap(MAP_SHARED) over the same object
    gives two processes). The frames' reference counts are bumped;
    munmap drops them. *)
val mmap_frames :
  t -> Cpu.t -> ?at:int -> frames:Physmem.frame array -> prot:Perm.t -> unit -> int

(** [munmap t cpu ~addr ~len] unmaps; frees frames; flushes. *)
val munmap : t -> Cpu.t -> addr:int -> len:int -> unit

(** Kernel-side [change_protection]: rewrite page permissions over a
    range, charging VMA work, a scan per page slot, an update per
    *present* PTE, and local TLB invalidation. The range must be
    page-aligned and fully covered by VMAs. A change that neither splits
    nor merges allocates nothing; what it did is read back with
    {!last_change}. *)
val change_protection : t -> Cpu.t -> addr:int -> len:int -> prot:Perm.t -> unit

(** Same walk, but assigning a protection key as well ([pkey_mprotect]). *)
val change_protection_pkey :
  t -> Cpu.t -> addr:int -> len:int -> prot:Perm.t -> pkey:Pkey.t -> unit

(** [show_maps t] — a /proc/pid/maps-style dump of the VMA tree with
    per-area protection key and residency, for debugging:
    {v 10000000-10004000 rw- pkey=3  4/4 pages resident v} *)
val show_maps : t -> string
