open Mpk_hw

type instr =
  | Push of int
  | Add
  | Sub
  | Mul
  | Dup
  | Swap
  | Load of int
  | Store of int
  | Jmp of int
  | Jz of int
  | Ret

type func = { name : string; body : instr list }

let locals = 16

let compile f =
  let buf = Buffer.create 64 in
  let u16 v =
    Buffer.add_char buf (Char.chr (v land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))
  in
  List.iter
    (fun i ->
      match i with
      | Push v ->
          Buffer.add_char buf '\x01';
          Buffer.add_char buf (Char.chr (v land 0xff));
          Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
          Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
          Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))
      | Add -> Buffer.add_char buf '\x02'
      | Sub -> Buffer.add_char buf '\x03'
      | Mul -> Buffer.add_char buf '\x04'
      | Dup -> Buffer.add_char buf '\x05'
      | Swap -> Buffer.add_char buf '\x06'
      | Load i ->
          if i < 0 || i >= locals then invalid_arg "Bytecode.compile: bad local";
          Buffer.add_char buf '\x07';
          Buffer.add_char buf (Char.chr i)
      | Store i ->
          if i < 0 || i >= locals then invalid_arg "Bytecode.compile: bad local";
          Buffer.add_char buf '\x08';
          Buffer.add_char buf (Char.chr i)
      | Jmp off ->
          Buffer.add_char buf '\x09';
          u16 off
      | Jz off ->
          Buffer.add_char buf '\x0a';
          u16 off
      | Ret -> Buffer.add_char buf '\xff')
    f.body;
  Buffer.to_bytes buf

(* The interpreter core, parameterized by a per-instruction charge so the
   simulated and host-side evaluations cannot drift apart. *)
let interp ~fuel ~charge code len =
  let stack = ref [] in
  let local = Array.make locals 0 in
  let push v = stack := v :: !stack in
  let pop () =
    match !stack with
    | v :: rest ->
        stack := rest;
        v
    | [] -> failwith "Bytecode: stack underflow"
  in
  let byte i =
    if i >= len then failwith "Bytecode: truncated instruction";
    Char.code (Bytes.get code i)
  in
  let pc = ref 0 in
  let steps = ref 0 in
  let result = ref None in
  while !result = None do
    incr steps;
    if !steps > fuel then failwith "Bytecode: fuel exhausted (runaway loop?)";
    if !pc >= len then failwith "Bytecode: ran off the end";
    let op = byte !pc in
    (match op with
    | 0x01 ->
        push (byte (!pc + 1) lor (byte (!pc + 2) lsl 8) lor (byte (!pc + 3) lsl 16) lor (byte (!pc + 4) lsl 24));
        pc := !pc + 5
    | 0x02 ->
        let a = pop () and b = pop () in
        push (a + b);
        incr pc
    | 0x03 ->
        let a = pop () and b = pop () in
        push (b - a);
        incr pc
    | 0x04 ->
        let a = pop () and b = pop () in
        push (a * b);
        incr pc
    | 0x05 ->
        let a = pop () in
        push a;
        push a;
        incr pc
    | 0x06 ->
        let a = pop () and b = pop () in
        push a;
        push b;
        incr pc
    | 0x07 ->
        let i = byte (!pc + 1) in
        if i >= locals then failwith "Bytecode: bad local index";
        push local.(i);
        pc := !pc + 2
    | 0x08 ->
        let i = byte (!pc + 1) in
        if i >= locals then failwith "Bytecode: bad local index";
        local.(i) <- pop ();
        pc := !pc + 2
    | 0x09 ->
        let off = byte (!pc + 1) lor (byte (!pc + 2) lsl 8) in
        if off >= len then failwith "Bytecode: jump out of bounds";
        pc := off
    | 0x0a ->
        let off = byte (!pc + 1) lor (byte (!pc + 2) lsl 8) in
        if off >= len then failwith "Bytecode: jump out of bounds";
        if pop () = 0 then pc := off else pc := !pc + 3
    | 0xff -> result := Some (pop ())
    | op -> failwith (Printf.sprintf "Bytecode: bad opcode 0x%02x" op));
    charge ()
  done;
  match !result with Some v -> v | None -> assert false

let eval_host code = interp ~fuel:10_000_000 ~charge:ignore code (Bytes.length code)

let execute ?(fuel = 10_000_000) mmu cpu ~addr ~len =
  let code = Mmu.fetch mmu cpu ~addr ~len in
  interp ~fuel ~charge:(fun () -> Cpu.charge ~label:"interp" cpu 1.0) code len

let synth ~seed ~ops =
  let prng = Mpk_util.Prng.create ~seed:(Int64.of_int (seed * 2654435761 + 1)) in
  let body = ref [ Push (Mpk_util.Prng.int prng 1000) ] in
  (* keep the stack depth positive: every binop is preceded by a push *)
  for _ = 1 to max 0 ((ops - 2) / 2) do
    let op =
      match Mpk_util.Prng.int prng 4 with
      | 0 -> Add
      | 1 -> Sub
      | 2 -> Mul
      | _ -> Add
    in
    body := op :: Push (Mpk_util.Prng.int prng 1000) :: !body
  done;
  { name = Printf.sprintf "f%d" seed; body = List.rev (Ret :: !body) }
