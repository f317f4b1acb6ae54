(* The splitmix64 state lives unboxed in 8 bytes: a mutable [int64]
   field would box every new state. Only this module reads the bytes,
   so they are kept in the host's byte order. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed =
  let t = Bytes.create 8 in
  set_state t 0 seed;
  t

(* splitmix64 finalizer: Steele, Lea & Flood, "Fast splittable pseudorandom
   number generators" (OOPSLA 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Inlined into every draw below, so that none of them boxes an [int64]. *)
let[@inline] advance t =
  let state = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 state;
  mix state

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits OCaml's 63-bit int non-negatively. *)
  let r = Int64.to_int (Int64.shift_right_logical (advance t) 2) in
  r mod bound

(* Inlined, so that a caller that computes or compares with the result
   keeps it unboxed. *)
let[@inline] float t =
  let r = Int64.shift_right_logical (advance t) 11 in
  Int64.to_float r /. 9007199254740992.0

let bool t ~p =
  if Float.is_nan p then invalid_arg "Prng.bool: p is NaN";
  if p >= 1.0 then true
  else if p <= 0.0 then false
  else float t < p

let split t = create ~seed:(mix (advance t))
