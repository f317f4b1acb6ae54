(* Tests for mpk_coredump: capture classification, redaction/encryption
   policies, the sentinel no-leak guarantee, serialization round-trips,
   tamper evidence, keyed decryption, determinism, and graceful failure
   of capture itself. *)

open Mpk_kernel
module Dump = Mpk_coredump.Dump
module Capture = Mpk_coredump.Capture
module Inspect = Mpk_coredump.Inspect

let sentinel = Capture.default_sentinel
let page = Mpk_hw.Physmem.page_size

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i <= h - n && (String.sub hay i n = needle || at (i + 1)) in
  n = 0 || at 0

(* The pkey crash snapshots its black box at kill time, so a capture
   taken after the scenario's trace recording closed still carries it. *)
let scenario () = Capture.scenario ~crash:Capture.Crash_pkey ~sentinel Fun.id

let capture ?(policy = Dump.Redact) ?(seed = 1L) (proc, task, mpk, _, _) =
  let key = Capture.default_key ~seed in
  match Capture.capture ~proc ~task ~mpk ~key ~seed ~policy () with
  | Ok d -> (d, key)
  | Error e -> Alcotest.fail e

let find_protected d =
  match
    List.find_opt (fun (s : Dump.section) -> s.Dump.sealed <> Dump.Clear) d.Dump.sections
  with
  | Some s -> s
  | None -> Alcotest.fail "no protected section in dump"

(* --- capture + classification --- *)

let test_classification () =
  let sc = scenario () in
  let d, _ = capture sc in
  let _, _, _, secret_addr, clear_addr = sc in
  let prot = find_protected d in
  Alcotest.(check int) "protected section at the keystore page" secret_addr prot.Dump.base;
  Alcotest.(check int) "tagged with a nonzero pkey" 1 prot.Dump.pkey;
  Alcotest.(check (option int)) "attributed to the keystore vkey"
    (Some Mpk_secstore.Keystore.vkey) prot.Dump.vkey;
  match
    List.find_opt (fun (s : Dump.section) -> s.Dump.base = clear_addr) d.Dump.sections
  with
  | Some s ->
      Alcotest.(check bool) "clear page stays clear" true (s.Dump.sealed = Dump.Clear);
      Alcotest.(check int) "clear payload is the whole page" page
        (Bytes.length s.Dump.payload)
  | None -> Alcotest.fail "clear page missing from dump"

let test_redact_leaves_marker_only () =
  let d, _ = capture (scenario ()) in
  let s = find_protected d in
  (match s.Dump.sealed with
  | Dump.Redacted m -> Alcotest.(check string) "marker" "REDACTED:1" m
  | _ -> Alcotest.fail "expected a redacted section");
  Alcotest.(check int) "no payload bytes" 0 (Bytes.length s.Dump.payload)

let test_siginfo_recorded () =
  let sc = scenario () in
  let d, _ = capture sc in
  let _, _, _, secret_addr, _ = sc in
  match d.Dump.siginfo with
  | None -> Alcotest.fail "crash capture lost its siginfo"
  | Some si ->
      Alcotest.(check int) "SIGSEGV" 11 si.Dump.signo;
      Alcotest.(check string) "pkey fault" "SEGV_PKUERR" si.Dump.code;
      Alcotest.(check int) "faulting address" secret_addr si.Dump.addr;
      Alcotest.(check int) "offending pkey" 1 si.Dump.pkey

let test_killed_carries_blackbox () =
  let sc = scenario () in
  let _, task, _, _, _ = sc in
  match Task.last_kill task with
  | None -> Alcotest.fail "default kill did not record a crash"
  | Some c ->
      Alcotest.(check bool) "black box nonempty" true (c.Signal.blackbox <> []);
      Alcotest.(check bool) "bounded by its 64-event depth" true
        (List.length c.Signal.blackbox <= 64);
      let d, _ = capture sc in
      Alcotest.(check (list string)) "dump embeds the kill-time black box"
        c.Signal.blackbox d.Dump.blackbox

(* --- the no-leak guarantee --- *)

let test_sentinel_absent_redact () =
  let d, _ = capture ~policy:Dump.Redact (scenario ()) in
  Alcotest.(check (list string)) "no hits" [] (Dump.scan ~sentinel (Dump.to_string d))

let test_sentinel_absent_encrypt () =
  let d, _ = capture ~policy:Dump.Encrypt (scenario ()) in
  Alcotest.(check (list string)) "no hits" [] (Dump.scan ~sentinel (Dump.to_string d))

let test_sentinel_found_under_none () =
  let d, _ = capture ~policy:Dump.Clear_debug (scenario ()) in
  match Dump.scan ~sentinel (Dump.to_string d) with
  | [] -> Alcotest.fail "scanner missed a deliberate leak"
  | _ :: _ -> ()

(* --- serialization + integrity --- *)

let test_json_roundtrip () =
  let d, _ = capture ~policy:Dump.Encrypt (scenario ()) in
  let s = Dump.to_string d in
  match Dump.of_string s with
  | Error e -> Alcotest.fail e
  | Ok d' ->
      Alcotest.(check string) "reserializes identically" s (Dump.to_string d');
      Alcotest.(check (list string)) "verifies clean" [] (Dump.verify d')

let test_verify_detects_tamper () =
  let d, _ = capture ~policy:Dump.Encrypt (scenario ()) in
  (* metadata tamper: move a section *)
  let sections =
    List.map
      (fun (s : Dump.section) ->
        if s.Dump.sealed = Dump.Clear then s else { s with Dump.base = s.Dump.base + page })
      d.Dump.sections
  in
  Alcotest.(check bool) "moved section fails verify" true
    (Dump.verify { d with Dump.sections } <> []);
  (* payload tamper *)
  let sections =
    List.map
      (fun (s : Dump.section) ->
        match s.Dump.sealed with
        | Dump.Encrypted _ ->
            let p = Bytes.copy s.Dump.payload in
            Bytes.set p 0 (Char.chr (Char.code (Bytes.get p 0) lxor 1));
            { s with Dump.payload = p }
        | _ -> s)
      d.Dump.sections
  in
  Alcotest.(check bool) "flipped ciphertext bit fails verify" true
    (Dump.verify { d with Dump.sections } <> []);
  (* marker tamper on a redacted dump *)
  let r, _ = capture ~policy:Dump.Redact (scenario ()) in
  let sections =
    List.map
      (fun (s : Dump.section) ->
        match s.Dump.sealed with
        | Dump.Redacted _ -> { s with Dump.sealed = Dump.Redacted "REDACTED:7" }
        | _ -> s)
      r.Dump.sections
  in
  Alcotest.(check bool) "forged marker fails verify" true
    (Dump.verify { r with Dump.sections } <> [])

let test_decrypt_roundtrip () =
  let sc = scenario () in
  let d, key = capture ~policy:Dump.Encrypt sc in
  let s = find_protected d in
  match Dump.open_section ~key d s with
  | Error e -> Alcotest.fail e
  | Ok plaintext ->
      Alcotest.(check int) "full page run" (s.Dump.pages * page) (Bytes.length plaintext);
      Alcotest.(check bool) "original bytes recovered" true
        (contains ~needle:sentinel (Bytes.to_string plaintext))

let test_wrong_key_rejected () =
  let d, _ = capture ~policy:Dump.Encrypt (scenario ()) in
  let s = find_protected d in
  let wrong = Capture.default_key ~seed:999L in
  match Dump.open_section ~key:wrong d s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decryption with the wrong key succeeded"

let test_redacted_section_unopenable () =
  let d, key = capture ~policy:Dump.Redact (scenario ()) in
  match Dump.open_section ~key d (find_protected d) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "redacted section yielded bytes"

let test_determinism () =
  let run () = Dump.to_string (fst (capture ~policy:Dump.Redact ~seed:42L (scenario ()))) in
  let a = run () and b = run () in
  Alcotest.(check string) "byte-identical dumps" a b;
  let enc () = Dump.to_string (fst (capture ~policy:Dump.Encrypt ~seed:42L (scenario ()))) in
  Alcotest.(check string) "byte-identical under encrypt too" (enc ()) (enc ())

(* --- inspection --- *)

let test_inspect_clean_and_silent () =
  let d, key = capture ~policy:Dump.Encrypt (scenario ()) in
  match Inspect.run ~key (Dump.to_string d) with
  | Error e -> Alcotest.fail e
  | Ok o ->
      Alcotest.(check (list string)) "no failures" [] o.Inspect.failures;
      Alcotest.(check bool) "report never prints protected plaintext" false
        (contains ~needle:sentinel o.Inspect.report)

let test_inspect_flags_leak_and_garbage () =
  let d, _ = capture ~policy:Dump.Clear_debug (scenario ()) in
  (match Inspect.run (Dump.to_string d) with
  | Error e -> Alcotest.fail e
  | Ok o ->
      Alcotest.(check bool) "policy-none dump is reported as a failure" true
        (o.Inspect.failures <> []));
  match Inspect.run "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage parsed as a dump"

let test_capture_faultpoint () =
  let proc, task, mpk, _, _ = scenario () in
  let key = Capture.default_key ~seed:1L in
  let capture () = Capture.capture ~proc ~task ~mpk ~key ~seed:1L ~policy:Dump.Redact () in
  (match Mpk_faultinj.inject ~seed:0L [ (Capture.fault_point, Mpk_faultinj.Once 0) ] capture with
  | Error _, _ -> ()
  | Ok _, _ -> Alcotest.fail "armed coredump.capture did not fail");
  match capture () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "disarmed capture still failing: %s" e

(* Task ids restart at 0 on every machine: another machine's task 0
   dying says nothing about this one's. *)
let test_live_capture_ignores_other_kills () =
  let live = Capture.scenario ~crash:Capture.Crash_none ~sentinel Fun.id in
  let proc = Proc.create (Mpk_hw.Machine.create ~cores:1 ~mem_mib:16 ()) in
  let other = Proc.spawn proc ~core_id:0 () in
  (try ignore (Mpk_hw.Mmu.read_byte (Proc.mmu proc) (Task.core other) ~addr:0x7fff_0000)
   with Signal.Killed _ -> ());
  Alcotest.(check bool) "the other task 0 was killed" true (Task.last_kill other <> None);
  let d, _ = capture live in
  Alcotest.(check bool) "the live task's dump carries no siginfo" true (d.Dump.siginfo = None)

let test_filename_and_profile () =
  let sc = scenario () in
  let (d, _), _ = Mpk_trace.Prof.record (fun () -> capture ~seed:7L sc) in
  Alcotest.(check string) "filename" "CORE_t0_s7.json" (Dump.filename d);
  Alcotest.(check bool) "profile embedded while profiling" true (d.Dump.profile <> None);
  let d2, _ = capture ~seed:7L sc in
  Alcotest.(check bool) "no profile when disabled" true (d2.Dump.profile = None)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "mpk_coredump"
    [
      ( "capture",
        [
          tc "classification by pkey + group" `Quick test_classification;
          tc "redact leaves marker only" `Quick test_redact_leaves_marker_only;
          tc "siginfo recorded" `Quick test_siginfo_recorded;
          tc "kill carries black box" `Quick test_killed_carries_blackbox;
          tc "capture faultpoint degrades gracefully" `Quick test_capture_faultpoint;
          tc "filename + profile embedding" `Quick test_filename_and_profile;
          tc "live task ignores other kills" `Quick test_live_capture_ignores_other_kills;
        ] );
      ( "no-leak",
        [
          tc "sentinel absent under redact" `Quick test_sentinel_absent_redact;
          tc "sentinel absent under encrypt" `Quick test_sentinel_absent_encrypt;
          tc "sentinel found under policy none" `Quick test_sentinel_found_under_none;
        ] );
      ( "format",
        [
          tc "json roundtrip + clean verify" `Quick test_json_roundtrip;
          tc "verify detects tamper" `Quick test_verify_detects_tamper;
          tc "determinism: same seed, same bytes" `Quick test_determinism;
        ] );
      ( "keys",
        [
          tc "decrypt roundtrips the page bytes" `Quick test_decrypt_roundtrip;
          tc "wrong key rejected" `Quick test_wrong_key_rejected;
          tc "redacted sections cannot be opened" `Quick test_redacted_section_unopenable;
        ] );
      ( "inspect",
        [
          tc "clean report, no plaintext" `Quick test_inspect_clean_and_silent;
          tc "flags leaks and garbage" `Quick test_inspect_flags_leak_and_garbage;
        ] );
    ]
