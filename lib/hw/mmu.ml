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
  let cached = Tlb.lookup (Cpu.tlb cpu) ~vpn in
  if Pte.is_present cached then begin
    Cpu.charge ~label:"tlb_hit" cpu costs.tlb_hit;
    cached
  end
  else begin
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
  end

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

let page_off addr = addr land (Physmem.page_size - 1)

(* Copy between [buf] and the [len] bytes at [addr], one [check] per
   page touched, in address order. The loop builds no closure, so an
   access allocates nothing whether it stays in one page or crosses
   several. *)
let user_copy t cpu ~access ~addr buf len =
  let off = ref 0 in
  while !off < len do
    let a = addr + !off in
    let chunk = Int.min (len - !off) (Physmem.page_size - page_off a) in
    let frame = Pte.frame (check t cpu ~addr:a ~access) in
    (match access with
    | Write -> Physmem.write_bytes t.mem frame (page_off a) buf !off chunk
    | Read | Fetch -> Physmem.read_into t.mem frame (page_off a) buf !off chunk);
    off := !off + chunk
  done

let read_byte t cpu ~addr =
  let pte = check t cpu ~addr ~access:Read in
  Physmem.read_byte t.mem (Pte.frame pte) (addr land (Physmem.page_size - 1))

let write_byte t cpu ~addr c =
  let pte = check t cpu ~addr ~access:Write in
  Physmem.write_byte t.mem (Pte.frame pte) (addr land (Physmem.page_size - 1)) c

let read_bytes t cpu ~addr ~len =
  if len < 0 then invalid_arg "Mmu.read_bytes: negative length";
  let out = Bytes.create len in
  user_copy t cpu ~access:Read ~addr out len;
  out

let read_into t cpu ~addr buf ~len =
  if len < 0 || len > Bytes.length buf then invalid_arg "Mmu.read_into: bad length";
  user_copy t cpu ~access:Read ~addr buf len

let write_bytes t cpu ~addr src = user_copy t cpu ~access:Write ~addr src (Bytes.length src)

(* A word inside one page is read or written in place, without the
   8-byte buffer a page-crossing word goes through. *)
let word_in_page addr = page_off addr <= Physmem.page_size - 8

let read_word t cpu ~addr =
  if word_in_page addr then begin
    let pte = check t cpu ~addr ~access:Read in
    Physmem.read_word t.mem (Pte.frame pte) (page_off addr)
  end
  else Int64.to_int (Bytes.get_int64_le (read_bytes t cpu ~addr ~len:8) 0)

let write_word t cpu ~addr v =
  if word_in_page addr then begin
    let pte = check t cpu ~addr ~access:Write in
    Physmem.write_word t.mem (Pte.frame pte) (page_off addr) v
  end
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    write_bytes t cpu ~addr b
  end

let fetch t cpu ~addr ~len =
  if len < 0 then invalid_arg "Mmu.fetch: negative length";
  let out = Bytes.create len in
  user_copy t cpu ~access:Fetch ~addr out len;
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

(* [user_copy] for privileged accesses: no PKRU or page-permission
   check, but a missing page is faulted in. *)
let kernel_copy t ~access ~addr buf =
  let len = Bytes.length buf in
  let off = ref 0 in
  while !off < len do
    let a = addr + !off in
    let chunk = Int.min (len - !off) (Physmem.page_size - page_off a) in
    let frame = Pte.frame (kernel_pte t ~addr:a ~access) in
    (match access with
    | Write -> Physmem.write_bytes t.mem frame (page_off a) buf !off chunk
    | Read | Fetch -> Physmem.read_into t.mem frame (page_off a) buf !off chunk);
    off := !off + chunk
  done

let kernel_write_bytes t ~addr src = kernel_copy t ~access:Write ~addr src

let kernel_read_bytes t ~addr ~len =
  if len < 0 then invalid_arg "Mmu.kernel_read_bytes: negative length";
  let out = Bytes.create len in
  kernel_copy t ~access:Read ~addr out;
  out
