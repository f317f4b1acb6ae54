open Mpk_hw
open Mpk_kernel

type outcome = Injected of int | Blocked of string

(* The value the attacker's shellcode returns when it wins. *)
let shellcode_marker = 0x5EED

(* push shellcode_marker; ret *)
let shellcode =
  Bytecode.compile { Bytecode.name = "shell"; body = [ Bytecode.Push shellcode_marker; Bytecode.Ret ] }

let needs_mpk = function
  | Wx.Key_per_page | Wx.Key_per_process -> true
  | Wx.No_wx | Wx.Mprotect | Wx.Sdcg -> false

let run ~strategy () =
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  let proc = Proc.create machine in
  let compiler = Proc.spawn proc ~core_id:0 () in
  let attacker = Proc.spawn proc ~core_id:1 () in
  let mpk =
    if needs_mpk strategy then Some (Libmpk.init ~evict_rate:1.0 proc compiler) else None
  in
  let engine = Engine.create Engine.Chakracore strategy proc compiler ?mpk () in
  let name = Engine.compile engine compiler ~ops:10 ~seed:1 () in
  let entry =
    match Codecache.find (Engine.cache engine) ~name with
    | Some e -> e
    | None -> assert false
  in
  (* The patch opens the write window; the attacker races inside it. *)
  let attack_result = ref (Blocked "window never opened") in
  let racing_write () =
    match
      Mmu.write_bytes (Proc.mmu proc) (Task.core attacker) ~addr:entry.Codecache.addr
        shellcode
    with
    | () -> attack_result := Injected 0
    | exception Mmu.Fault f -> attack_result := Blocked (Mmu.fault_to_string f)
    | exception Signal.Killed si -> attack_result := Blocked (Signal.to_string si)
  in
  (* the legitimate patch re-emits the function's own code *)
  let fs_code = Bytecode.compile (Bytecode.synth ~seed:1 ~ops:10) in
  Codecache.update (Engine.cache engine) compiler entry fs_code ~during:racing_write ();
  match !attack_result with
  | Blocked _ as b -> b
  | Injected _ ->
      (* Did the shellcode actually take effect? Execute the function. *)
      let v = Engine.run engine compiler name in
      if v = shellcode_marker then Injected v
      else Blocked "write landed but code unchanged"
