open Mpk_hw
open Mpk_kernel

let page = Physmem.page_size

(* vkey namespaces: pages of key/page caches start here; the key/process
   cache group uses the base key. *)
let vkey_base = 1000

type page_info = {
  addr : int;
  mutable used : int;
  vkey : Libmpk.Vkey.t option;
  mutable sealed : bool;
      (* Mprotect mode: fresh pages are committed rw and sealed rx after
         the first emit — engines don't pay a make-writable call for
         never-executed pages. *)
}

type entry = { name : string; addr : int; len : int; page_vkey : Libmpk.Vkey.t option }

type t = {
  strategy : Wx.t;
  proc : Proc.t;
  mpk : Libmpk.t option;
  cache_pages : int;
  mutable committed : page_info list;  (* newest first *)
  entries : (string, entry) Hashtbl.t;
  group_base : int;  (* key/process: the single group's base *)
  mutable group_used : int;
  mutable next_page_vkey : int;
  mutable switch_cycles : float;
  (* SDCG: a dedicated emitter process holding the only writable view of
     the cache (shared frames, rw in the emitter's page table, rx in the
     executor's). *)
  emitter : (Proc.t * Task.t * int) option;
}

let create strategy proc task ?mpk ?(cache_pages = 64) () =
  (match strategy, mpk with
  | (Wx.Key_per_page | Wx.Key_per_process), None ->
      invalid_arg "Codecache.create: libmpk strategy requires ~mpk"
  | _ -> ());
  (* Engines reserve the whole cache region once; pages are committed
     from it as code is emitted. Only Key_per_page maps per page (it
     needs one libmpk group per page). *)
  let group_base =
    match strategy, mpk with
    | Wx.Key_per_process, Some mpk ->
        (* One protection key for the whole cache: committed pages get
           rwx page permission; writes are gated per-thread by PKRU. *)
        Libmpk.mpk_mmap mpk task ~vkey:vkey_base ~len:(cache_pages * page) ~prot:Perm.rwx
    | (Wx.No_wx | Wx.Mprotect | Wx.Sdcg), _ ->
        let prot =
          match strategy with
          | Wx.No_wx -> Perm.rwx
          | Wx.Mprotect -> Perm.rw  (* fresh pages writable until sealed *)
          | Wx.Sdcg | Wx.Key_per_page | Wx.Key_per_process -> Perm.rx
        in
        Syscall.mmap proc task ~len:(cache_pages * page) ~prot ()
    | Wx.Key_per_page, _ -> 0
    | Wx.Key_per_process, None -> assert false  (* rejected above *)
  in
  let emitter =
    match strategy with
    | Wx.Sdcg ->
        (* SDCG: spawn the emitter process and give it the only writable
           mapping of the cache region (shared physical frames). *)
        let machine = Proc.machine proc in
        let eproc = Proc.create machine in
        let etask = Proc.spawn eproc ~core_id:(Machine.core_count machine - 1) () in
        let frames =
          Mm.frames_of_range (Proc.mm proc) (Task.core etask) ~addr:group_base
            ~len:(cache_pages * page)
        in
        let ebase = Mm.mmap_frames (Proc.mm eproc) (Task.core etask) ~frames ~prot:Perm.rw () in
        Some (eproc, etask, ebase)
    | Wx.No_wx | Wx.Mprotect | Wx.Key_per_page | Wx.Key_per_process -> None
  in
  {
    strategy;
    proc;
    mpk;
    cache_pages;
    committed = [];
    entries = Hashtbl.create 64;
    group_base;
    group_used = 0;
    next_page_vkey = vkey_base + 1;
    switch_cycles = 0.0;
    emitter;
  }


let mpk_exn t = match t.mpk with Some m -> m | None -> assert false

let measure_switch t task f =
  let _, cycles = Cpu.measure (Task.core task) f in
  t.switch_cycles <- t.switch_cycles +. cycles

(* Commit a fresh cache page per the strategy; returns its info. *)
let commit_page t task =
  if List.length t.committed >= t.cache_pages then failwith "Codecache: cache full";
  let next_addr () = t.group_base + (List.length t.committed * page) in
  let info =
    match t.strategy with
    | Wx.No_wx -> { addr = next_addr (); used = 0; vkey = None; sealed = true }
    | Wx.Mprotect -> { addr = next_addr (); used = 0; vkey = None; sealed = false }
    | Wx.Sdcg -> { addr = next_addr (); used = 0; vkey = None; sealed = true }
    | Wx.Key_per_page ->
        let vkey = t.next_page_vkey in
        t.next_page_vkey <- t.next_page_vkey + 1;
        let addr = Libmpk.mpk_mmap (mpk_exn t) task ~vkey ~len:page ~prot:Perm.rwx in
        { addr; used = 0; vkey = Some vkey; sealed = true }
    | Wx.Key_per_process ->
        (* The paper: pages committed into the cache are assigned the
           process key then — an extra pkey_mprotect-class call per
           commit, the cost it charges zlib with. *)
        let addr = next_addr () in
        Syscall.mprotect t.proc task ~addr ~len:page ~prot:Perm.rwx;
        t.group_used <- t.group_used + page;
        { addr; used = 0; vkey = Some vkey_base; sealed = true }
  in
  t.committed <- info :: t.committed;
  info

let page_of_addr t addr =
  List.find (fun (p : page_info) -> addr >= p.addr && addr < p.addr + page) t.committed

(* Open the write window, run the writes (and the optional concurrent
   attacker hook), close the window. *)
let with_write_window t task ~(info : page_info) ?during f =
  let mmu = Proc.mmu t.proc in
  ignore mmu;
  let run_hook () = match during with Some h -> h () | None -> () in
  match t.strategy with
  | Wx.No_wx ->
      f ();
      run_hook ()
  | Wx.Mprotect ->
      if not info.sealed then begin
        (* fresh page: still writable; write, then seal it executable *)
        f ();
        run_hook ();
        measure_switch t task (fun () ->
            Syscall.mprotect t.proc task ~addr:info.addr ~len:page ~prot:Perm.rx);
        info.sealed <- true
      end
      else begin
        measure_switch t task (fun () ->
            Syscall.mprotect t.proc task ~addr:info.addr ~len:page ~prot:Perm.rw);
        f ();
        run_hook ();
        measure_switch t task (fun () ->
            Syscall.mprotect t.proc task ~addr:info.addr ~len:page ~prot:Perm.rx)
      end
  | Wx.Key_per_page | Wx.Key_per_process ->
      let vkey = match info.vkey with Some v -> v | None -> assert false in
      let mpk = mpk_exn t in
      measure_switch t task (fun () -> Libmpk.mpk_begin mpk task ~vkey ~prot:Perm.rw);
      f ();
      run_hook ();
      measure_switch t task (fun () -> Libmpk.mpk_end mpk task ~vkey)
  | Wx.Sdcg ->
      (* The emitter process writes through its own mapping; the executor
         pays the RPC round trip. The hook runs while the executor-side
         page is never writable. *)
      measure_switch t task (fun () ->
          Cpu.charge ~label:"sdcg_rpc" (Task.core task) Wx.sdcg_rpc_cycles);
      run_hook ();
      f ()

let write_code t task ~(info : page_info) ~addr code ?during () =
  match t.strategy, t.emitter with
  | Wx.Sdcg, Some (eproc, etask, ebase) ->
      with_write_window t task ~info ?during (fun () ->
          (* the RPC'd emitter process writes through its own rw view of
             the shared frames; the executor never has a writable page *)
          let eaddr = ebase + (addr - t.group_base) in
          Mmu.write_bytes (Proc.mmu eproc) (Task.core etask) ~addr:eaddr code)
  | _ ->
      with_write_window t task ~info ?during (fun () ->
          Mmu.write_bytes (Proc.mmu t.proc) (Task.core task) ~addr code)

let emit t task ~name code =
  let len = Bytes.length code in
  if len > page then invalid_arg "Codecache.emit: function exceeds one page";
  let info =
    match t.committed with
    | p :: _ when p.used + len <= page -> p
    | _ -> commit_page t task
  in
  let addr = info.addr + info.used in
  info.used <- info.used + len;
  write_code t task ~info ~addr code ();
  let entry = { name; addr; len; page_vkey = info.vkey } in
  Hashtbl.replace t.entries name entry;
  entry

let update t task entry code ?during () =
  if Bytes.length code > entry.len then invalid_arg "Codecache.update: code grew";
  let info = page_of_addr t entry.addr in
  write_code t task ~info ~addr:entry.addr code ?during ()

let find t ~name = Hashtbl.find_opt t.entries name


let perm_switch_cycles t = t.switch_cycles

let reset_perm_switch_cycles t = t.switch_cycles <- 0.0
