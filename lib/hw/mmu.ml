type access = Read | Write | Fetch

type cause = Not_present | Page_perm | Pkey_denied | No_memory

type fault = { addr : int; access : access; cause : cause }

exception Fault of fault

let access_to_string = function
  | Read -> "read"
  | Write -> "write"
  | Fetch -> "fetch"

let cause_to_string = function
  | Not_present -> "not-present"
  | Page_perm -> "page-permission"
  | Pkey_denied -> "pkey-denied"
  | No_memory -> "out-of-frames"

let fault_to_string f =
  Printf.sprintf "fault: %s at 0x%x (%s)" (access_to_string f.access) f.addr
    (cause_to_string f.cause)

type t = {
  table : Page_table.t;
  mem : Physmem.t;
  mutable fault_handler : (Cpu.t option -> fault -> bool) option;
  mutable fault_sink : (Cpu.t -> fault -> unit) option;
}

let create table mem = { table; mem; fault_handler = None; fault_sink = None }

let page_table t = t.table

let set_fault_handler t h = t.fault_handler <- Some h
let set_fault_sink t s = t.fault_sink <- Some s

(* An unresolved fault from user code traps to the kernel's sink (signal
   delivery) when one is installed; the sink normally raises. [Fault] is
   the bare-hardware fallback: no kernel attached, or a privileged access
   (no faulting CPU context). *)
let user_fault t cpu fault =
  (match cpu, t.fault_sink with
  | Some cpu, Some sink -> sink cpu fault
  | _ -> ());
  raise (Fault fault)

(* Not-present faults get one shot at the kernel's demand-paging handler
   before being delivered. The handler may itself refuse with a [Fault]
   (e.g. frame exhaustion becomes [No_memory]); that refusal is delivered
   in place of the original fault. *)
let resolve_or_fault t cpu fault =
  match fault.cause, t.fault_handler with
  | Not_present, Some handler -> (
      match handler cpu fault with
      | true -> ()
      | false -> user_fault t cpu fault
      | exception Fault refusal -> user_fault t cpu refusal)
  | _ -> user_fault t cpu fault

let translate t cpu ~addr =
  let vpn = Page_table.vpn_of_addr addr in
  let costs = Cpu.costs cpu in
  match Tlb.lookup (Cpu.tlb cpu) ~vpn with
  | Some pte ->
      Cpu.charge ~label:"tlb_hit" cpu costs.tlb_hit;
      pte
  | None ->
      Cpu.charge ~label:"page_walk" cpu costs.page_walk;
      if Mpk_trace.Tracer.on () then Cpu.emit cpu (Mpk_trace.Event.Tlb_miss { vpn });
      let pte = Page_table.get t.table ~vpn in
      if Pte.is_present pte then begin
        Tlb.insert (Cpu.tlb cpu) ~vpn pte;
        if Mpk_trace.Tracer.on () then
          Cpu.emit cpu
            (Mpk_trace.Event.Tlb_fill { vpn; pkey = Pkey.to_int (Pte.pkey pte) })
      end;
      pte

let check t cpu ~addr ~access =
  let pte =
    let first = translate t cpu ~addr in
    if Pte.is_present first then first
    else begin
      resolve_or_fault t (Some cpu) { addr; access; cause = Not_present };
      let retried = translate t cpu ~addr in
      if Pte.is_present retried then retried
      else user_fault t (Some cpu) { addr; access; cause = Not_present }
    end
  in
  let perm = Pte.perm pte in
  let page_ok =
    match access with
    | Read -> perm.Perm.read
    | Write -> perm.Perm.write
    | Fetch -> perm.Perm.exec
  in
  if not page_ok then user_fault t (Some cpu) { addr; access; cause = Page_perm };
  (match access with
  | Fetch -> ()  (* instruction fetch is independent of PKRU *)
  | Read | Write ->
      let rights = Pkru.rights (Cpu.pkru cpu) (Pte.pkey pte) in
      if not (Pkru.allows rights ~write:(access = Write)) then
        user_fault t (Some cpu) { addr; access; cause = Pkey_denied });
  Cpu.charge ~label:"mem_access" cpu (Cpu.costs cpu).mem_access;
  pte

let split_pages ~addr ~len f =
  (* Apply [f pte_addr page_off chunk_off chunk_len] per page touched. *)
  let rec go addr off remaining =
    if remaining > 0 then begin
      let page_off = addr land (Physmem.page_size - 1) in
      let chunk = min remaining (Physmem.page_size - page_off) in
      f addr page_off off chunk;
      go (addr + chunk) (off + chunk) (remaining - chunk)
    end
  in
  go addr 0 len

let read_byte t cpu ~addr =
  let pte = check t cpu ~addr ~access:Read in
  Physmem.read_byte t.mem (Pte.frame pte) (addr land (Physmem.page_size - 1))

let write_byte t cpu ~addr c =
  let pte = check t cpu ~addr ~access:Write in
  Physmem.write_byte t.mem (Pte.frame pte) (addr land (Physmem.page_size - 1)) c

let read_bytes t cpu ~addr ~len =
  if len < 0 then invalid_arg "Mmu.read_bytes: negative length";
  let out = Bytes.create len in
  split_pages ~addr ~len (fun page_addr page_off out_off chunk ->
      let pte = check t cpu ~addr:page_addr ~access:Read in
      Physmem.read_into t.mem (Pte.frame pte) page_off out out_off chunk);
  out

let write_bytes t cpu ~addr src =
  let len = Bytes.length src in
  split_pages ~addr ~len (fun page_addr page_off src_off chunk ->
      let pte = check t cpu ~addr:page_addr ~access:Write in
      Physmem.write_bytes t.mem (Pte.frame pte) page_off src src_off chunk)

let read_int64 t cpu ~addr =
  let b = read_bytes t cpu ~addr ~len:8 in
  Bytes.get_int64_le b 0

let write_int64 t cpu ~addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  write_bytes t cpu ~addr b

let fetch t cpu ~addr ~len =
  if len < 0 then invalid_arg "Mmu.fetch: negative length";
  let out = Bytes.create len in
  split_pages ~addr ~len (fun page_addr page_off out_off chunk ->
      let pte = check t cpu ~addr:page_addr ~access:Fetch in
      Physmem.read_into t.mem (Pte.frame pte) page_off out out_off chunk);
  out

let kernel_pte t ~addr ~access =
  let vpn = Page_table.vpn_of_addr addr in
  let pte = Page_table.get t.table ~vpn in
  if Pte.is_present pte then pte
  else begin
    (* privileged copy-to/from-user faults the page in like Linux does *)
    resolve_or_fault t None { addr; access; cause = Not_present };
    let retried = Page_table.get t.table ~vpn in
    if Pte.is_present retried then retried
    else raise (Fault { addr; access; cause = Not_present })
  end

let kernel_write_bytes t ~addr src =
  let len = Bytes.length src in
  split_pages ~addr ~len (fun page_addr page_off src_off chunk ->
      let pte = kernel_pte t ~addr:page_addr ~access:Write in
      Physmem.write_bytes t.mem (Pte.frame pte) page_off src src_off chunk)

let kernel_read_bytes t ~addr ~len =
  if len < 0 then invalid_arg "Mmu.kernel_read_bytes: negative length";
  let out = Bytes.create len in
  split_pages ~addr ~len (fun page_addr page_off out_off chunk ->
      let pte = kernel_pte t ~addr:page_addr ~access:Read in
      Physmem.read_into t.mem (Pte.frame pte) page_off out out_off chunk);
  out
