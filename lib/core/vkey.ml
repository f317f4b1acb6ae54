type t = int

let hash = Hashtbl.hash
