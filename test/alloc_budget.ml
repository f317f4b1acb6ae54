(* Allocation measurement shared by the [alloc_budget] test groups. *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Words [f] allocates beyond an empty call's measurement overhead. *)
let allocated f = minor_words f -. minor_words ignore
