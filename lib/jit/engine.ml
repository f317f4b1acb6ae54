open Mpk_kernel

type profile = Spidermonkey | Chakracore | V8

let profile_name = function
  | Spidermonkey -> "SpiderMonkey"
  | Chakracore -> "ChakraCore"
  | V8 -> "v8"

(* Fraction of update events that actually flip permissions under this
   profile (1.0 = every update). *)
let switch_ratio = function Spidermonkey -> 0.3 | Chakracore -> 1.0 | V8 -> 1.0

type func_state = {
  entry : Codecache.entry;
  func : Bytecode.func;
  expected : int;
}

type t = {
  profile : profile;
  cache : Codecache.t;
  proc : Proc.t;
  funcs : (string, func_state) Hashtbl.t;
  prng : Mpk_util.Prng.t;
}

(* The reference result comes from the same interpreter core running
   host-side on the encoded bytes. *)
let eval_host (f : Bytecode.func) = Bytecode.eval_host (Bytecode.compile f)

let create profile strategy proc task ?mpk ?cache_pages () =
  {
    profile;
    cache = Codecache.create strategy proc task ?mpk ?cache_pages ();
    proc;
    funcs = Hashtbl.create 64;
    prng = Mpk_util.Prng.create ~seed:0x217L;
  }

let cache t = t.cache

let pad_code code pad_to =
  match pad_to with
  | Some n when n > Bytes.length code ->
      let out = Bytes.make n '\000' in
      Bytes.blit code 0 out 0 (Bytes.length code);
      out
  | Some _ | None -> code

let compile t task ~ops ~seed ?pad_to () =
  let func = Bytecode.synth ~seed ~ops in
  let code = pad_code (Bytecode.compile func) pad_to in
  let entry = Codecache.emit t.cache task ~name:func.Bytecode.name code in
  Hashtbl.replace t.funcs func.Bytecode.name { entry; func; expected = eval_host func };
  func.Bytecode.name

let get t name =
  match Hashtbl.find_opt t.funcs name with
  | Some fs -> fs
  | None -> invalid_arg ("Engine: unknown function " ^ name)

let patch t task name =
  let fs = get t name in
  if Mpk_util.Prng.float t.prng <= switch_ratio t.profile then
    (* re-emit the same code in place: a patch event *)
    Codecache.update t.cache task fs.entry (Bytecode.compile fs.func) ()

let run t task name =
  let fs = get t name in
  Bytecode.execute (Proc.mmu t.proc) (Task.core task) ~addr:fs.entry.Codecache.addr
    ~len:fs.entry.Codecache.len

let expected t name = (get t name).expected
