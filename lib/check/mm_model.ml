open Mpk_analysis

(* IR model of the kernel's per-VMA locking protocol (DESIGN.md §13),
   the input program for the static concurrency passes.

   Three tasks share one mapping slot: main installs the mapping, spawns
   a lookup task and a protect task, joins them, and tears the mapping
   down. The shared locations are the VMA record (Ir.L_vma) and the
   pkey bitmap (Ir.L_pkey_bitmap); the locks are the kernel's real
   classes — "mm_lock" taken before "vma_lock", writers holding both,
   the lookup fast path holding only the per-VMA read lock (validated
   against Lock.known_classes by mpkctl).

   The clean protocol must come out of every pass with zero findings.
   Each plant reintroduces one of the PR 8 bugs at the model level:

   - [`Recycle]   the lookup drops the vma lock and keeps using the
                  record without re-validation — the use-after-recycle
                  race the torture harness's oracle catches dynamically
                  under --plant recycle (lockset pass).
   - [`Lock_order] the lookup takes the mm lock while still holding the
                  vma lock, against the established mm→vma order — the
                  inversion dynamic lockdep flags under
                  --plant lock-order (lock-order pass).
   - [`Window]    the protect path checks the VMA under the read lock,
                  drops it, then re-acquires and mutates on the stale
                  check (atomicity pass). *)

type plant = [ `Recycle | `Lock_order | `Window ]

let plant_of_string = function
  | "recycle" -> Some `Recycle
  | "lock-order" | "lock_order" -> Some `Lock_order
  | "window" -> Some `Window
  | _ -> None

let plant_to_string = function
  | `Recycle -> "recycle"
  | `Lock_order -> "lock-order"
  | `Window -> "window"

let mm = { Ir.lcls = "mm_lock"; linst = 0 }
let vma s = { Ir.lcls = "vma_lock"; linst = s }

(* The one slot all three tasks contend on. *)
let slot = 0
let l_vma = Ir.L_vma slot

let lock_classes = [ mm.Ir.lcls; (vma slot).Ir.lcls ]

let lock lk lmode = Ir.op (Ir.Lock { lk; lmode })
let unlock lk lmode = Ir.op (Ir.Unlock { lk; lmode })
let load loc = Ir.op (Ir.Load { loc })
let store loc = Ir.op (Ir.Store { loc })

(* Main's install/teardown: the VMA record is written under mm + vma
   exclusive, the pkey bitmap under the mm lock — the writer-side
   discipline every mutation in the protocol follows. *)
let mutate_slot lbl =
  [
    Ir.label lbl;
    lock mm Ir.Lk_excl;
    lock (vma slot) Ir.Lk_excl;
    store l_vma;
    unlock (vma slot) Ir.Lk_excl;
    store Ir.L_pkey_bitmap;
    unlock mm Ir.Lk_excl;
  ]

(* The recycling-safe lookup fast path: rcu walk, per-VMA read lock,
   identity re-validation under the lock, use, release. *)
let reader_clean =
  [
    Ir.Loop
      ( "lookup loop",
        [
          Ir.label "rcu walk";
          lock (vma slot) Ir.Lk_shared;
          load l_vma (* validate_read: identity check under the lock *);
          load l_vma (* use the fields, still under the lock *);
          unlock (vma slot) Ir.Lk_shared;
        ] )
  ]

(* Planted recycle: the lock is dropped after validation and the record
   is used bare — exactly what Vma.skip_recycle_check does to the live
   protocol. *)
let reader_recycle =
  [
    Ir.Loop
      ( "lookup loop",
        [
          Ir.label "rcu walk";
          lock (vma slot) Ir.Lk_shared;
          load l_vma;
          unlock (vma slot) Ir.Lk_shared;
          Ir.label "planted: use after dropping the vma lock, no re-validation";
          load l_vma;
        ] )
  ]

(* Planted inversion: an mm-lock fallback taken while still holding the
   vma read lock — vma→mm against the established mm→vma. *)
let reader_lock_order =
  [
    Ir.Loop
      ( "lookup loop",
        [
          Ir.label "rcu walk";
          lock (vma slot) Ir.Lk_shared;
          load l_vma;
          Ir.label "planted: mm fallback while still holding the vma lock";
          lock mm Ir.Lk_shared;
          load Ir.L_pkey_bitmap;
          unlock mm Ir.Lk_shared;
          unlock (vma slot) Ir.Lk_shared;
        ] )
  ]

(* The protect path: mm lock, bitmap read, then check-and-mutate the
   VMA under its write lock. *)
let writer_clean =
  [
    Ir.Loop
      ( "protect loop",
        [
          lock mm Ir.Lk_excl;
          load Ir.L_pkey_bitmap;
          lock (vma slot) Ir.Lk_excl;
          load l_vma (* check under the lock *);
          store l_vma (* act, still holding it *);
          unlock (vma slot) Ir.Lk_excl;
          unlock mm Ir.Lk_excl;
        ] )
  ]

(* Planted window: check under the read lock, drop it, re-acquire
   exclusively and mutate on the stale check. *)
let writer_window =
  [
    Ir.Loop
      ( "protect loop",
        [
          Ir.label "lookup: check under the vma read lock";
          lock (vma slot) Ir.Lk_shared;
          load l_vma;
          unlock (vma slot) Ir.Lk_shared;
          Ir.label "planted: re-acquire and mutate on the stale check";
          lock mm Ir.Lk_excl;
          lock (vma slot) Ir.Lk_excl;
          store l_vma;
          unlock (vma slot) Ir.Lk_excl;
          unlock mm Ir.Lk_excl;
        ] )
  ]

let program ?plant () =
  let reader, writer =
    match plant with
    | None -> reader_clean, writer_clean
    | Some `Recycle -> reader_recycle, writer_clean
    | Some `Lock_order -> reader_lock_order, writer_clean
    | Some `Window -> reader_clean, writer_window
  in
  let name =
    "mm-protocol"
    ^ match plant with None -> "" | Some p -> "+" ^ plant_to_string p
  in
  Ir.build ~name
    ~main:
      (mutate_slot "mmap: install the mapping"
      @ [
          Ir.op (Ir.Spawn { tid = 1 });
          Ir.op (Ir.Spawn { tid = 2 });
          Ir.op (Ir.Join { tid = 1 });
          Ir.op (Ir.Join { tid = 2 });
        ]
      @ mutate_slot "munmap: tear the mapping down")
    ~threads:[ 1, reader; 2, writer ]
    ()
