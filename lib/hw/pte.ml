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

let make ~frame ~perm ~pkey =
  let v = bit bit_present in
  let v = if (perm : Perm.t).read then v lor bit bit_read else v in
  let v = if perm.write then v lor bit bit_write else v in
  let v = if perm.exec then v lor bit bit_exec else v in
  let v = v lor ((frame land frame_mask) lsl frame_shift) in
  v lor (Pkey.to_int pkey lsl pkey_shift)

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

let with_perm t p = make ~frame:(frame t) ~perm:p ~pkey:(pkey t)
let with_pkey t k = make ~frame:(frame t) ~perm:(perm t) ~pkey:k

let pp fmt t =
  if not (is_present t) then Format.pp_print_string fmt "<absent>"
  else
    Format.fprintf fmt "frame:%d perm:%a %a" (frame t) Perm.pp (perm t) Pkey.pp (pkey t)
