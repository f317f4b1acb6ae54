(* Model-based fuzzing of libmpk: drive random API sequences from two
   threads and, after EVERY operation, check the security invariants the
   paper promises:

   I1 (isolation): a thread that is not inside mpk_begin for a group can
      access it exactly as the group's *global* permission allows —
      never more.
   I2 (domain): a thread inside mpk_begin sees at least what it asked
      for.
   I3 (bookkeeping): hardware keys in use never exceed 15; every Mapped
      group's PTEs carry its hardware key; every Unmapped group's pages
      are back on key 0.
   I4 (data integrity): a group's bytes survive arbitrary interleavings
      of eviction, re-attachment and permission changes. *)

open Mpk_hw
open Mpk_kernel
open Mpk_analysis
module Stress = Mpk_check.Stress

(* Traffic is analyzer IR steps, run by the stress driver's executor.
   Group-wide calls (mmap, munmap, mprotect) come from thread 0. *)
let gen_step =
  QCheck.Gen.(
    let vkey = int_range 1 6 in
    let thread = int_range 0 1 in
    let step stid sop = { Ir.stid; sop } in
    oneof
      [
        map (fun vkey -> step 0 (Ir.Mmap { vkey; pages = 1; prot = Perm.rw })) vkey;
        map (fun vkey -> step 0 (Ir.Free { vkey })) vkey;
        map2 (fun vkey t -> step t (Ir.Begin { vkey; prot = Perm.rw })) vkey thread;
        map2 (fun vkey t -> step t (Ir.End { vkey })) vkey thread;
        map2
          (fun vkey prot -> step 0 (Ir.Mprotect { vkey; prot }))
          vkey
          (oneofl [ Perm.none; Perm.r; Perm.rw ]);
        map2 (fun vkey t -> step t (Ir.Read { vkey })) vkey thread;
      ])

let arb_steps =
  QCheck.make ~print:(fun l -> String.concat "; " (List.map Ir.step_to_string l))
    QCheck.Gen.(list_size (int_range 1 60) gen_step)

(* The model: what we believe each group's state is. *)
type mgroup = {
  addr : int;
  mutable global_prot : Perm.t option;  (* None = domain-only (locked) *)
  open_by : (int, int) Hashtbl.t;  (* thread -> depth *)
  payload : char;
}

let run_sequence ?(hw_keys = 15) steps =
  let env = Stress.make_env { Stress.default_config with hw_keys } ~cores:3 in
  let mpk = env.Stress.mpk and proc = env.Stress.proc in
  let threads = [| Stress.task env 0; Stress.task env 1 |] in
  let t0 = threads.(0) in
  let mmu = Proc.mmu proc in
  let model : (int, mgroup) Hashtbl.t = Hashtbl.create 8 in
  let fail s msg = failwith (Printf.sprintf "[%s] %s" (Ir.step_to_string s) msg) in

  let readable_by g thread =
    (* what the model says this thread may read *)
    let tid = Task.id threads.(thread) in
    let open_here = Option.value ~default:0 (Hashtbl.find_opt g.open_by tid) > 0 in
    open_here
    || match g.global_prot with Some p -> p.Perm.read | None -> false
  in
  let check_invariants op =
    (* I3: key usage bound *)
    if Libmpk.Key_cache.in_use (Libmpk.cache mpk) > 15 then fail op "more than 15 keys";
    Hashtbl.iter
      (fun vkey g ->
        (* I3: PTE tags consistent with the group state *)
        (match Libmpk.find_group mpk vkey with
        | None -> fail op "model has a group libmpk lost"
        | Some lg -> (
            let vpn = Page_table.vpn_of_addr g.addr in
            let pte = Page_table.get (Mm.page_table (Proc.mm proc)) ~vpn in
            match lg.Libmpk.Group.state, Pte.is_present pte with
            | Libmpk.Group.Mapped k, true ->
                if not (Pkey.equal (Pte.pkey pte) k) then fail op "Mapped group PTE tag mismatch"
            | Libmpk.Group.Unmapped, true ->
                if Pkey.to_int (Pte.pkey pte) <> 0 then fail op "Unmapped group keeps a key"
            | _, false -> ()));
        (* I1/I2: per-thread readability matches the model *)
        Array.iteri
          (fun i task ->
            let expect = readable_by g i in
            let got =
              match Mmu.read_byte mmu (Task.core task) ~addr:g.addr with
              | c -> Some c
              | exception Signal.Killed _ -> None
            in
            match expect, got with
            | true, Some c ->
                (* I4: the data is the model's data *)
                if c <> g.payload then fail op "payload corrupted"
            | true, None -> fail op (Printf.sprintf "thread %d lost expected access" i)
            | false, Some _ -> fail op (Printf.sprintf "thread %d has forbidden access" i)
            | false, None -> ())
          threads)
      model
  in

  List.iter
    (fun (s : Ir.step) ->
      let exec () = Stress.exec_step env s in
      (match s.Ir.sop with
      | Ir.Mmap { vkey; _ } ->
          if not (Hashtbl.mem model vkey) then begin
            exec ();
            let addr = (Option.get (Libmpk.find_group mpk vkey)).Libmpk.Group.base in
            (* write an identifying byte through a temporary domain; under
               extreme key pressure the begin may legitimately fail, in
               which case the group keeps its zeroed contents *)
            let payload =
              match Libmpk.mpk_begin mpk t0 ~vkey ~prot:Perm.rw with
              | () ->
                  let payload = Char.chr (65 + (vkey mod 26)) in
                  Mmu.write_byte mmu (Task.core t0) ~addr payload;
                  Libmpk.mpk_end mpk t0 ~vkey;
                  payload
              | exception Libmpk.Key_exhausted -> '\000'
            in
            Hashtbl.replace model vkey
              { addr; global_prot = None; open_by = Hashtbl.create 2; payload }
          end
      | Ir.Free { vkey } -> (
          match Hashtbl.find_opt model vkey with
          | Some g when Hashtbl.fold (fun _ d acc -> acc + d) g.open_by 0 = 0 ->
              exec ();
              Hashtbl.remove model vkey
          | Some _ | None -> ())
      | Ir.Begin { vkey; _ } -> (
          match Hashtbl.find_opt model vkey with
          | Some g -> (
              match exec () with
              | () ->
                  let tid = Task.id threads.(s.Ir.stid) in
                  Hashtbl.replace g.open_by tid
                    (1 + Option.value ~default:0 (Hashtbl.find_opt g.open_by tid))
              | exception Libmpk.Key_exhausted -> ())
          | None -> ())
      | Ir.End { vkey } -> (
          match Hashtbl.find_opt model vkey with
          | Some g -> (
              let tid = Task.id threads.(s.Ir.stid) in
              let depth = Option.value ~default:0 (Hashtbl.find_opt g.open_by tid) in
              match exec () with
              | () ->
                  if depth = 0 then failwith "mpk_end accepted without begin";
                  if depth = 1 then Hashtbl.remove g.open_by tid
                  else Hashtbl.replace g.open_by tid (depth - 1)
              | exception Errno.Error (Errno.EINVAL, _) ->
                  if depth > 0 then failwith "mpk_end rejected a legitimate end")
          | None -> ())
      | Ir.Mprotect { vkey; prot } -> (
          match Hashtbl.find_opt model vkey with
          | Some g
            when Hashtbl.fold (fun _ d acc -> acc + d) g.open_by 0 = 0 ->
              exec ();
              g.global_prot <- Some prot
          | Some _ | None -> ())
      | Ir.Read { vkey } ->
          if Hashtbl.mem model vkey then (try exec () with Signal.Killed _ -> ())
      | _ -> ());
      check_invariants s)
    steps;
  true

let model_fuzz =
  QCheck.Test.make ~name:"libmpk invariants hold under random API sequences" ~count:500
    arb_steps run_sequence

(* Two hardware keys for six groups: nearly every begin evicts, so the
   recycle/scrub/retag paths run constantly. *)
let model_fuzz_key_pressure =
  QCheck.Test.make ~name:"invariants hold under extreme key pressure (2 hw keys)"
    ~count:500 arb_steps
    (fun steps -> run_sequence ~hw_keys:2 steps)

let () =
  Alcotest.run "model"
    [
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest model_fuzz;
          QCheck_alcotest.to_alcotest model_fuzz_key_pressure;
        ] );
    ]
