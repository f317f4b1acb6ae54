(** The JIT substrate's "native code": a tiny stack machine with locals
    and (backward/forward) branches, so hot functions can contain real
    loops.

    [compile] emits opcode bytes; [execute] *fetches* those bytes from
    simulated memory through the MMU (instruction-fetch permission
    checks apply — a non-executable or revoked code page faults), then
    interprets them. *)

open Mpk_hw

type instr =
  | Push of int  (** push a 32-bit immediate *)
  | Add
  | Sub
  | Mul
  | Dup
  | Swap
  | Load of int  (** push local[i], i in [0, 16) *)
  | Store of int  (** pop into local[i] *)
  | Jmp of int  (** absolute byte offset within the function *)
  | Jz of int  (** pop; jump when zero *)
  | Ret  (** return the top of stack *)

type func = { name : string; body : instr list }

val compile : func -> bytes

(** [eval_host code] — interpret encoded code host-side (no simulated
    memory, no cycle charges): the reference result. *)
val eval_host : bytes -> int

(** [execute mmu cpu ~addr ~len] — fetch + interpret; returns the result.
    Raises [Mmu.Fault] when the page is not executable, and [Failure] on
    malformed code or when [fuel] interpreted instructions are exceeded
    (runaway loops, e.g. after an attacker corrupted the code). *)
val execute : ?fuel:int -> Mmu.t -> Cpu.t -> addr:int -> len:int -> int

(** [synth ~seed ~ops] — a deterministic pseudo-random straight-line
    function with roughly [ops] instructions. *)
val synth : seed:int -> ops:int -> func

