let page_size = 4096
let page_shift = 12

(* Fault injection: simulate physical-frame exhaustion (ENOMEM upstream). *)
let fp_alloc_frame = "physmem.alloc_frame"
let () = Mpk_faultinj.declare fp_alloc_frame

type frame = int

type t = {
  total : int;
  backing : (int, bytes) Hashtbl.t;  (* frame -> storage, lazily allocated *)
  refs : (int, int) Hashtbl.t;  (* frame -> mapping count *)
  mutable free_list : int list;
  mutable next_fresh : int;
  mutable in_use : int;
}

let create ~frames =
  if frames <= 0 then invalid_arg "Physmem.create: frames must be positive";
  {
    total = frames;
    backing = Hashtbl.create 1024;
    refs = Hashtbl.create 1024;
    free_list = [];
    next_fresh = 0;
    in_use = 0;
  }

let total_frames t = t.total
let frames_in_use t = t.in_use

let alloc_frame t =
  if Mpk_faultinj.fire fp_alloc_frame then raise Out_of_memory;
  let frame =
    match t.free_list with
    | f :: rest ->
        t.free_list <- rest;
        (* Frames are zeroed on reuse; remove stale backing. *)
        Hashtbl.remove t.backing f;
        f
    | [] ->
        if t.next_fresh >= t.total then raise Out_of_memory;
        let f = t.next_fresh in
        t.next_fresh <- t.next_fresh + 1;
        f
  in
  t.in_use <- t.in_use + 1;
  Hashtbl.replace t.refs frame 1;
  frame

let refcount t f = Option.value ~default:0 (Hashtbl.find_opt t.refs f)

let ref_frame t f =
  match Hashtbl.find_opt t.refs f with
  | Some n -> Hashtbl.replace t.refs f (n + 1)
  | None -> invalid_arg "Physmem.ref_frame: frame not allocated"

let free_frame t f =
  if f < 0 || f >= t.next_fresh then invalid_arg "Physmem.free_frame: bad frame";
  match Hashtbl.find_opt t.refs f with
  | None -> invalid_arg "Physmem.free_frame: frame not allocated"
  | Some n when n > 1 -> Hashtbl.replace t.refs f (n - 1)
  | Some _ ->
      Hashtbl.remove t.refs f;
      Hashtbl.remove t.backing f;
      t.free_list <- f :: t.free_list;
      t.in_use <- t.in_use - 1

let frame_to_int f = f

let frame_of_int t f =
  if f < 0 || f >= t.total then invalid_arg "Physmem.frame_of_int: out of range";
  f

let storage t f =
  match Hashtbl.find_opt t.backing f with
  | Some b -> b
  | None ->
      let b = Bytes.make page_size '\000' in
      Hashtbl.replace t.backing f b;
      b

let check_off off len =
  if off < 0 || len < 0 || off + len > page_size then
    invalid_arg "Physmem: offset out of frame bounds"

let read_byte t f off =
  check_off off 1;
  match Hashtbl.find_opt t.backing f with
  | None -> '\000'
  | Some b -> Bytes.get b off

let write_byte t f off c =
  check_off off 1;
  Bytes.set (storage t f) off c

let read_into t f off dst dst_off len =
  check_off off len;
  match Hashtbl.find_opt t.backing f with
  | None -> Bytes.fill dst dst_off len '\000'
  | Some b -> Bytes.blit b off dst dst_off len

let read_bytes t f off len =
  check_off off len;
  let b = Bytes.create len in
  read_into t f off b 0 len;
  b

let write_bytes t f off src src_off len =
  check_off off len;
  Bytes.blit src src_off (storage t f) off len

let read_int64 t f off =
  check_off off 8;
  match Hashtbl.find_opt t.backing f with
  | None -> 0L
  | Some b -> Bytes.get_int64_le b off

let write_int64 t f off v =
  check_off off 8;
  Bytes.set_int64_le (storage t f) off v
