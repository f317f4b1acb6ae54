type code = Segv_maperr | Segv_accerr | Segv_pkuerr | Bus_adrerr

type siginfo = {
  signo : int;
  code : code;
  addr : int;
  access : Mpk_hw.Mmu.access;
  pkey : int;
}

exception Killed of siginfo

let sigsegv = 11
let sigbus = 7

let code_to_string = function
  | Segv_maperr -> "SEGV_MAPERR"
  | Segv_accerr -> "SEGV_ACCERR"
  | Segv_pkuerr -> "SEGV_PKUERR"
  | Bus_adrerr -> "BUS_ADRERR"

let signo_to_string = function
  | 11 -> "SIGSEGV"
  | 7 -> "SIGBUS"
  | n -> Printf.sprintf "signal %d" n

let to_string si =
  Printf.sprintf "%s (%s) %s at 0x%x%s" (signo_to_string si.signo)
    (code_to_string si.code)
    (Mpk_hw.Mmu.access_to_string si.access)
    si.addr
    (if si.code = Segv_pkuerr then Printf.sprintf " pkey=%d" si.pkey else "")

let of_fault (f : Mpk_hw.Mmu.fault) ~pkey =
  match f.cause with
  | Not_present ->
      { signo = sigsegv; code = Segv_maperr; addr = f.addr; access = f.access; pkey = 0 }
  | Page_perm ->
      { signo = sigsegv; code = Segv_accerr; addr = f.addr; access = f.access; pkey = 0 }
  | Pkey_denied ->
      { signo = sigsegv; code = Segv_pkuerr; addr = f.addr; access = f.access; pkey }
  | No_memory ->
      { signo = sigbus; code = Bus_adrerr; addr = f.addr; access = f.access; pkey = 0 }

type handler = siginfo -> unit

(* --- default-kill crash record --- *)

let blackbox_depth = 64

let blackbox () =
  match Mpk_trace.Tracer.current () with
  | None -> []
  | Some t -> List.map Mpk_trace.Event.to_line (Mpk_trace.Tracer.recent t blackbox_depth)

type crash = { task : int; si : siginfo; blackbox : string list }

let last_crash_ref : crash option ref = ref None

let record_kill ~task si =
  (* Snapshot the flight recorder *now*: by the time anyone asks, the
     recording may have closed or moved on. An empty list just means no
     recording was open. *)
  last_crash_ref := Some { task; si; blackbox = blackbox () }

let last_crash () = !last_crash_ref
let clear_last_crash () = last_crash_ref := None

let () =
  Printexc.register_printer (function
    | Killed si -> Some (Printf.sprintf "Signal.Killed(%s)" (to_string si))
    | _ -> None)
