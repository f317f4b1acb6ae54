(* Whole-system integration: one simulated machine, one process, ONE
   libmpk instance shared by all three case-study applications at once
   (keystore vkey 100, JIT cache vkeys 1000+, XOM modules 5000+), under
   concurrent multi-thread use — verifying that virtual-key namespaces
   compose, hardware keys are shared fairly, and every security property
   holds simultaneously. *)

open Mpk_hw
open Mpk_kernel

let test_three_apps_one_libmpk () =
  let machine = Machine.create ~cores:4 ~mem_mib:512 () in
  let proc = Proc.create machine in
  let server_thread = Proc.spawn proc ~core_id:0 () in
  let jit_thread = Proc.spawn proc ~core_id:1 () in
  let attacker = Proc.spawn proc ~core_id:2 () in
  let mpk = Libmpk.init ~evict_rate:1.0 proc server_thread in
  let mmu = Proc.mmu proc in

  (* --- app 1: the TLS keystore on thread 0 --- *)
  let tls =
    Mpk_secstore.Tls_server.create ~mode:Mpk_secstore.Keystore.Protected proc server_thread
      ~mpk ~seed:0x1AAL ()
  in
  let prng = Mpk_util.Prng.create ~seed:3L in
  let blob, client_key = Mpk_secstore.Tls_server.client_hello tls prng in
  let session = Mpk_secstore.Tls_server.accept tls server_thread blob in
  Alcotest.(check bytes) "tls handshake works" client_key
    (Mpk_secstore.Tls_server.session_key session);

  (* --- app 2: a JIT on thread 1, key-per-process --- *)
  let engine =
    Mpk_jit.Engine.create Mpk_jit.Engine.Chakracore Mpk_jit.Wx.Key_per_process proc
      jit_thread ~mpk ~cache_pages:8 ()
  in
  let fname = Mpk_jit.Engine.compile engine jit_thread ~ops:30 ~seed:9 () in
  Alcotest.(check int) "jit runs" (Mpk_jit.Engine.expected engine fname)
    (Mpk_jit.Engine.run engine jit_thread fname);

  (* --- app 3: XOM modules, also on thread 1 --- *)
  let xom = Mpk_jit.Xom.create mpk in
  let m =
    Mpk_jit.Xom.load xom jit_thread ~name:"plugin"
      (Mpk_jit.Bytecode.compile
         { Mpk_jit.Bytecode.name = "p"; body = [ Mpk_jit.Bytecode.Push 99; Mpk_jit.Bytecode.Ret ] })
  in
  Mpk_jit.Xom.seal xom jit_thread m;
  Alcotest.(check int) "sealed module runs" 99 (Mpk_jit.Xom.execute xom jit_thread m);

  (* --- cross-app security, all at once --- *)
  (* attacker can't read the TLS key... *)
  let key_addr, key_len = Mpk_secstore.Keystore.secret_region (Mpk_secstore.Tls_server.keystore tls) in
  (match Mmu.read_bytes mmu (Task.core attacker) ~addr:key_addr ~len:key_len with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "attacker read the TLS private key");
  (* ...or write the code cache... *)
  (let entry = Option.get (Mpk_jit.Codecache.find (Mpk_jit.Engine.cache engine) ~name:fname) in
   match Mmu.write_byte mmu (Task.core attacker) ~addr:entry.Mpk_jit.Codecache.addr 'X' with
   | exception Signal.Killed _ -> ()
   | _ -> Alcotest.fail "attacker wrote the JIT code cache");
  (* ...or read the sealed module... *)
  (match Mmu.read_byte mmu (Task.core attacker) ~addr:m.Mpk_jit.Xom.base with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "attacker read the XOM module");
  (* ...while everything keeps working for legitimate threads *)
  ignore (Mpk_jit.Engine.run engine jit_thread fname);
  ignore (Mpk_secstore.Tls_server.serve server_thread session ~size:1024);
  (* keys are genuinely shared: total groups exceeds 3, all backed by <=15 keys *)
  Alcotest.(check bool) "several groups coexist" true (Libmpk.group_count mpk >= 3);
  Alcotest.(check bool) "within hardware keys" true
    (Libmpk.Key_cache.in_use (Libmpk.cache mpk) <= 15)

let test_interleaved_domains () =
  (* keystore domain open on thread 0 while the JIT patches on thread 1:
     thread-local rights must not leak across either thread or app *)
  let machine = Machine.create ~cores:4 ~mem_mib:512 () in
  let proc = Proc.create machine in
  let t0 = Proc.spawn proc ~core_id:0 () in
  let t1 = Proc.spawn proc ~core_id:1 () in
  let mpk = Libmpk.init ~evict_rate:1.0 proc t0 in
  let mmu = Proc.mmu proc in
  let secret = Libmpk.mpk_mmap mpk t0 ~vkey:100 ~len:4096 ~prot:Perm.rw in
  let engine =
    Mpk_jit.Engine.create Mpk_jit.Engine.Chakracore Mpk_jit.Wx.Key_per_page proc t1 ~mpk ()
  in
  let f = Mpk_jit.Engine.compile engine t1 ~ops:20 ~seed:4 () in
  (* t0 opens its secret domain *)
  Libmpk.mpk_begin mpk t0 ~vkey:100 ~prot:Perm.rw;
  Mmu.write_byte mmu (Task.core t0) ~addr:secret 's';
  (* t1 patches its code cache concurrently (its own begin/end inside) *)
  Mpk_jit.Engine.patch engine t1 f;
  (* t1 must not see t0's open domain *)
  (match Mmu.read_byte mmu (Task.core t1) ~addr:secret with
  | exception Signal.Killed _ -> ()
  | _ -> Alcotest.fail "JIT thread read the open keystore domain");
  (* and t0's domain is still open and intact *)
  Alcotest.(check char) "t0 still inside its domain" 's'
    (Mmu.read_byte mmu (Task.core t0) ~addr:secret);
  Libmpk.mpk_end mpk t0 ~vkey:100;
  Alcotest.(check int) "patched function still correct"
    (Mpk_jit.Engine.expected engine f)
    (Mpk_jit.Engine.run engine t1 f)

let test_show_maps () =
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  let proc = Proc.create machine in
  let task = Proc.spawn proc ~core_id:0 () in
  let mpk = Libmpk.init ~evict_rate:1.0 proc task in
  let addr = Libmpk.mpk_mmap mpk task ~vkey:1 ~len:8192 ~prot:Perm.rw in
  Libmpk.mpk_begin mpk task ~vkey:1 ~prot:Perm.rw;
  Mmu.write_byte (Proc.mmu proc) (Task.core task) ~addr 'x';
  Libmpk.mpk_end mpk task ~vkey:1;
  let maps = Mm.show_maps (Proc.mm proc) in
  let contains needle =
    let n = String.length needle and h = String.length maps in
    let rec scan i = i + n <= h && (String.sub maps i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "mentions a pkey-tagged area" true (contains "pkey=1 ");
  Alcotest.(check bool) "shows partial residency" true (contains "1/2 pages resident")

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "integration"
    [
      ( "whole_system",
        [
          tc "three apps, one libmpk" `Quick test_three_apps_one_libmpk;
          tc "interleaved domains" `Quick test_interleaved_domains;
          tc "show_maps" `Quick test_show_maps;
        ] );
    ]
