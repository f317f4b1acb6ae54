type t = int

type rights = No_access | Read_only | Read_write

let init = 0x55555554

let of_int v = v land 0xFFFFFFFF
let to_int t = t

let ad_bit k = 2 * Pkey.to_int k
let wd_bit k = (2 * Pkey.to_int k) + 1

let rights t k =
  let ad = (t lsr ad_bit k) land 1 in
  let wd = (t lsr wd_bit k) land 1 in
  if ad = 1 then No_access else if wd = 1 then Read_only else Read_write

let set_rights t k r =
  let ad, wd =
    match r with
    | No_access -> 1, 0
    | Read_only -> 0, 1
    | Read_write -> 0, 0
  in
  let cleared = t land lnot ((1 lsl ad_bit k) lor (1 lsl wd_bit k)) in
  cleared lor (ad lsl ad_bit k) lor (wd lsl wd_bit k)

let rights_of_perm (p : Perm.t) =
  if p.write then Read_write
  else if p.read then Read_only
  else No_access

let allows r ~write =
  match r, write with
  | Read_write, _ -> true
  | Read_only, false -> true
  | Read_only, true -> false
  | No_access, _ -> false

let rights_to_string = function
  | No_access -> "--"
  | Read_only -> "r-"
  | Read_write -> "rw"

