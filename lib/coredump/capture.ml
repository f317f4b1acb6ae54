open Mpk_hw
open Mpk_kernel
open Mpk_trace
open Mpk_crypto

let fault_point = "coredump.capture"
let () = Mpk_faultinj.declare fault_point

let default_key ~seed =
  let secret = Bytes.create 8 in
  Bytes.set_int64_le secret 0 seed;
  Hmac.derive ~secret ~label:"mpk-core-key" ~len:Aead.key_bytes

let report_of_siginfo (si : Signal.siginfo) : Dump.sig_report =
  {
    Dump.signo = si.Signal.signo;
    code = Signal.code_to_string si.Signal.code;
    addr = si.Signal.addr;
    access = Mmu.access_to_string si.Signal.access;
    pkey = si.Signal.pkey;
  }

(* Per-page classification, before coalescing. *)
type page_class = { pkey : int; vkey : int option; protected : bool }

let classify mpk ~addr ~pkey =
  match mpk with
  | None -> { pkey; vkey = None; protected = pkey <> 0 }
  | Some m -> (
      match Libmpk.group_of_addr m addr with
      | Some (vk, _) -> { pkey; vkey = Some vk; protected = true }
      | None ->
          let vkey = if pkey <> 0 then Libmpk.vkey_of_pkey m (Pkey.of_int pkey) else None in
          { pkey; vkey; protected = pkey <> 0 })

type run = {
  base : int;
  cls : page_class;
  mutable next_vpn : int;  (* the vpn that would extend this run *)
  mutable chunks : bytes list;  (* page bytes, newest first *)
  mutable pages : int;
}

let finish r : Dump.raw_section =
  {
    Dump.raw_base = r.base;
    raw_pages = r.pages;
    raw_pkey = r.cls.pkey;
    raw_vkey = r.cls.vkey;
    raw_protected = r.cls.protected;
    raw_data = Bytes.concat Bytes.empty (List.rev r.chunks);
  }

(* Walk every VMA's vpn range through the page table, reading present
   pages from physical memory and coalescing consecutive pages of equal
   classification into one section. *)
let sections proc mpk =
  let mm = Proc.mm proc in
  let pt = Mm.page_table mm in
  let mem = Machine.mem (Proc.machine proc) in
  let page = Physmem.page_size in
  let out = ref [] in
  let current = ref None in
  let flush () =
    match !current with
    | None -> ()
    | Some r ->
        out := finish r :: !out;
        current := None
  in
  let visit vpn =
    let pte = Page_table.get pt ~vpn in
    if not (Pte.is_present pte) then flush ()
    else begin
      let addr = Page_table.addr_of_vpn vpn in
      let cls = classify mpk ~addr ~pkey:(Pkey.to_int (Pte.pkey pte)) in
      let data = Physmem.read_bytes mem (Pte.frame pte) 0 page in
      match !current with
      | Some r when r.next_vpn = vpn && r.cls = cls ->
          r.chunks <- data :: r.chunks;
          r.pages <- r.pages + 1;
          r.next_vpn <- vpn + 1
      | _ ->
          flush ();
          current := Some { base = addr; cls; next_vpn = vpn + 1; chunks = [ data ]; pages = 1 }
    end
  in
  List.iter
    (fun (v : Vma.vma) ->
      for vpn = v.Vma.start to v.Vma.start + v.Vma.pages - 1 do
        visit vpn
      done;
      (* VMAs are disjoint; never coalesce across a gap. *)
      flush ())
    (Vma.to_list (Mm.vmas mm));
  flush ();
  List.rev !out

let vma_entries proc =
  List.map
    (fun (v : Vma.vma) ->
      {
        Dump.start = Page_table.addr_of_vpn v.Vma.start;
        pages = v.Vma.pages;
        prot = Perm.to_string v.Vma.attrs.Vma.prot;
        pkey = Pkey.to_int v.Vma.attrs.Vma.pkey;
      })
    (Vma.to_list (Mm.vmas (Proc.mm proc)))

let regs proc =
  Array.to_list
    (Array.map
       (fun c ->
         {
           Dump.core = Cpu.id c;
           pkru = Pkru.to_int (Cpu.pkru c);
           cycles = Cpu.cycles c;
         })
       (Machine.cores (Proc.machine proc)))

let capture ~proc ~task ?mpk ?siginfo ~key ~seed ~policy () =
  if Mpk_faultinj.fire fault_point then
    Error "capture failed: injected fault at coredump.capture"
  else
    try
      (* Prefer the crash record snapshotted at kill time: the ring may
         have moved on (or been disturbed by unwinding) since. *)
      let crash = Task.last_kill task in
      let siginfo =
        match siginfo, crash with
        | Some si, _ | None, Some { Signal.si; _ } -> Some (report_of_siginfo si)
        | None, None -> None
      in
      let blackbox =
        match crash with
        | Some c -> c.Signal.blackbox
        | None -> Signal.blackbox ()
      in
      let profile = Option.map (fun p -> Prof.json_of_snapshot (Prof.tree p)) (Prof.current ()) in
      let raws = sections proc mpk in
      Ok
        (Dump.seal ~key ~seed ~policy ~task:(Task.id task) ?siginfo ~regs:(regs proc)
           ~task_pkru:(Pkru.to_int (Task.pkru task)) ~vmas:(vma_entries proc) ~blackbox
           ?profile raws)
    with e -> Error (Printf.sprintf "capture failed: %s" (Printexc.to_string e))

let default_sentinel = "SENTINEL-TLS-PRIVATE-KEY-0xDEADBEEF"

type crash = Crash_none | Crash_pkey | Crash_oom

let scenario ~crash ~sentinel k =
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  let proc = Proc.create machine in
  let task = Proc.spawn proc ~core_id:0 () in
  fst @@ Tracer.record @@ fun () ->
  let mpk = Libmpk.init ~evict_rate:1.0 proc task in
  let ks = Mpk_secstore.Keystore.create ~mode:Mpk_secstore.Keystore.Protected proc task ~mpk () in
  let secret_addr = Mpk_secstore.Keystore.store_opaque ks task (Bytes.of_string sentinel) in
  let clear_addr = Syscall.mmap proc task ~len:Physmem.page_size ~prot:Perm.rw () in
  let mmu = Proc.mmu proc and core = Task.core task in
  Mmu.write_bytes mmu core ~addr:clear_addr (Bytes.of_string "mpkctl-coredump-clear-page");
  (match crash with
  | Crash_none -> ()
  | Crash_pkey -> (
      (* The keystore's write window is closed, so PKRU denies the
         domain: an unwrapped read faults SEGV_PKUERR and the task dies. *)
      try ignore (Mmu.read_byte mmu core ~addr:secret_addr) with Signal.Killed _ -> ())
  | Crash_oom ->
      ignore
      @@ Mpk_faultinj.inject ~seed:0L [ ("physmem.alloc_frame", Mpk_faultinj.Once 0) ]
      @@ fun () ->
      let a = Syscall.mmap proc task ~len:Physmem.page_size ~prot:Perm.rw () in
      try Mmu.write_byte mmu core ~addr:a 'x' with Signal.Killed _ -> ());
  k (proc, task, mpk, secret_addr, clear_addr)
