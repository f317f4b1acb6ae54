type t = int

let bit_present = 0
let bit_write = 1
let bit_read = 2  (* simulator-local: real x86 has no separate R bit *)
let bit_exec = 3  (* complement of NX, kept low for simplicity *)
let frame_shift = 12
let frame_mask = 0xFFFFFFFFF (* 36 bits of frame number *)
let pkey_shift = 59
let pkey_mask = 0xF

let absent = 0

let bit b = 1 lsl b
let test v b = v land bit b <> 0

let perm_field = 7 lsl bit_write
let pkey_field = pkey_mask lsl pkey_shift

let perm_bits (perm : Perm.t) =
  (if perm.read then bit bit_read else 0)
  lor (if perm.write then bit bit_write else 0)
  lor if perm.exec then bit bit_exec else 0

let pkey_bits pkey = Pkey.to_int pkey lsl pkey_shift

let make ~frame ~perm ~pkey =
  bit bit_present lor perm_bits perm
  lor ((frame land frame_mask) lsl frame_shift)
  lor pkey_bits pkey

let is_present t = test t bit_present

let frame t = (t lsr frame_shift) land frame_mask

(* The W, R and X bits are contiguous, so they index one of eight shared
   records: decoding a permission allocates nothing. *)
let perms =
  Array.init 8 (fun i : Perm.t ->
      let has b = i land bit (b - bit_write) <> 0 in
      { read = has bit_read; write = has bit_write; exec = has bit_exec })

let perm t = perms.((t lsr bit_write) land 7)

let pkey t = Pkey.of_int ((t lsr pkey_shift) land pkey_mask)

(* A rewrite is one int: the new field values at their entry positions,
   plus, in bits no entry field uses, a flag per field it replaces. *)
type rewrite = int

let replaces_perm = bit 4
let replaces_pkey = bit 5

let rewrite_perm perm = replaces_perm lor perm_bits perm
let rewrite_pkey pkey = replaces_pkey lor pkey_bits pkey
let rewrite_perm_pkey perm pkey = rewrite_perm perm lor rewrite_pkey pkey

(* The entry bits a rewrite keeps, and the ones it sets. *)
let kept rw =
  lnot
    ((if rw land replaces_perm <> 0 then perm_field else 0)
    lor if rw land replaces_pkey <> 0 then pkey_field else 0)

let set_bits rw = rw land (perm_field lor pkey_field)

let apply rw t = if is_present t then t land kept rw lor set_bits rw else t

let identity = 0

(* [r2]'s fields and flags over [r1]'s: a field either replaces is set to
   the last value given it. The flags sit outside every entry field, so
   [kept r2] keeps [r1]'s. *)
let compose r1 r2 = r1 land kept r2 lor r2

(* The per-entry loop lives here, beside the representation, so that it
   makes no call per entry whatever the compiler inlines: a build with
   -opaque (dune's dev profile) keeps a call to [is_present] or [apply]
   from another module out of line. *)
let apply_present rw (entries : t array) ~lo ~hi =
  let keep = kept rw and set = set_bits rw in
  let n = ref 0 in
  for i = lo to hi - 1 do
    let v = entries.(i) in
    if is_present v then begin
      entries.(i) <- v land keep lor set;
      incr n
    end
  done;
  !n
