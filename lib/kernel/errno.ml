type t = EINVAL | ENOMEM | ENOSPC | EACCES | ENOENT

exception Error of t * string

let to_string = function
  | EINVAL -> "EINVAL"
  | ENOMEM -> "ENOMEM"
  | ENOSPC -> "ENOSPC"
  | EACCES -> "EACCES"
  | ENOENT -> "ENOENT"

let fail errno fmt = Printf.ksprintf (fun msg -> raise (Error (errno, msg))) fmt
