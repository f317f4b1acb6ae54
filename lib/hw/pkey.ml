type t = int

let count = 16

let default = 0

let of_int k =
  if k < 0 || k >= count then
    invalid_arg (Printf.sprintf "Pkey.of_int: %d not in [0, %d)" k count);
  k

let to_int t = t
let equal = Int.equal

let allocatable = List.init (count - 1) (fun i -> i + 1)

let pp fmt t = Format.fprintf fmt "pkey:%d" t
