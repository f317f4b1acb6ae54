(* Bounded ring buffer that keeps the newest [capacity] pushes.

   Backing store is an option array rather than a dummy-element array so
   the structure is usable with any element type without requiring a
   witness value at creation. *)

type 'a t = {
  slots : 'a option array;
  mutable pushed : int;  (* total pushes ever; write cursor = pushed mod capacity *)
}

let create capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be positive";
  { slots = Array.make capacity None; pushed = 0 }

let capacity t = Array.length t.slots

let length t = Stdlib.min t.pushed (capacity t)

let push t x =
  t.slots.(t.pushed mod capacity t) <- Some x;
  t.pushed <- t.pushed + 1

(* Oldest retained element first. *)
let to_list t =
  let cap = capacity t in
  let len = length t in
  let start = t.pushed - len in
  List.init len (fun i ->
      match t.slots.((start + i) mod cap) with
      | Some x -> x
      | None -> assert false)
