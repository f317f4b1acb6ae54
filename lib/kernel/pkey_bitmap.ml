open Mpk_hw

type t = { mutable bits : int }

let create () = { bits = 1 }  (* key 0 is always taken *)

let alloc t =
  let rec scan k =
    if k >= Pkey.count then None
    else if t.bits land (1 lsl k) = 0 then begin
      t.bits <- t.bits lor (1 lsl k);
      Some (Pkey.of_int k)
    end
    else scan (k + 1)
  in
  scan 1

let free t key =
  let k = Pkey.to_int key in
  if k = 0 then Errno.fail EINVAL "pkey_free: cannot free the default key";
  if t.bits land (1 lsl k) = 0 then Errno.fail EINVAL "pkey_free: key %d not allocated" k;
  t.bits <- t.bits land lnot (1 lsl k)

let is_allocated t key = t.bits land (1 lsl Pkey.to_int key) <> 0


