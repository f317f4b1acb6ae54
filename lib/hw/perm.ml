type t = { read : bool; write : bool; exec : bool }

let none = { read = false; write = false; exec = false }
let r = { read = true; write = false; exec = false }
let rw = { read = true; write = true; exec = false }
let rx = { read = true; write = false; exec = true }
let rwx = { read = true; write = true; exec = true }
let x_only = { read = false; write = false; exec = true }

let make ?(read = false) ?(write = false) ?(exec = false) () = { read; write; exec }

let equal a b = a.read = b.read && a.write = b.write && a.exec = b.exec

let subsumes a b =
  (b.read <= a.read) && (b.write <= a.write) && (b.exec <= a.exec)

let to_string t =
  Printf.sprintf "%c%c%c"
    (if t.read then 'r' else '-')
    (if t.write then 'w' else '-')
    (if t.exec then 'x' else '-')

let pp fmt t = Format.pp_print_string fmt (to_string t)
