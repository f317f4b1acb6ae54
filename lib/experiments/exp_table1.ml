open Mpk_hw
open Mpk_kernel

type row = { name : string; cycles : float; paper : float; description : string }

let reps = 1000

let rows () =
  let env = Env.make () in
  let task = Env.main env in
  let proc = env.Env.proc in
  let core = Task.core task in
  let measure f = Env.mean_cycles ~reps task f in
  (* alloc and free measured in alternating batches of all 15 keys *)
  let alloc_only =
    let ks = ref [] in
    let c =
      Env.span task "table1_pkey_alloc" @@ fun () ->
      Env.mean_cycles ~reps:15 task (fun _ ->
          ks := Syscall.pkey_alloc proc task ~init_rights:Pkru.Read_write :: !ks)
    in
    List.iter (fun k -> Syscall.pkey_free proc task k) !ks;
    c
  in
  let free_only =
    let ks =
      List.init 15 (fun _ -> Syscall.pkey_alloc proc task ~init_rights:Pkru.Read_write)
    in
    Env.span task "table1_pkey_free" @@ fun () ->
    let before = Cpu.cycles core in
    List.iter (fun k -> Syscall.pkey_free proc task k) ks;
    (Cpu.cycles core -. before) /. 15.0
  in
  let addr = Syscall.mmap proc task ~len:4096 ~prot:Perm.rw () in
  Mm.populate (Proc.mm proc) core ~addr ~len:4096;
  let k = Syscall.pkey_alloc proc task ~init_rights:Pkru.Read_write in
  let flip i = if i land 1 = 0 then Perm.r else Perm.rw in
  let pkey_mprotect =
    Env.span task "table1_pkey_mprotect" @@ fun () ->
    measure (fun i -> Syscall.pkey_mprotect proc task ~addr ~len:4096 ~prot:(flip i) ~pkey:k)
  in
  let mprotect =
    Env.span task "table1_mprotect" @@ fun () ->
    measure (fun i -> Syscall.mprotect proc task ~addr ~len:4096 ~prot:(flip i))
  in
  let rdpkru =
    Env.span task "table1_rdpkru" @@ fun () -> measure (fun _ -> ignore (Cpu.rdpkru core))
  in
  let wrpkru =
    Env.span task "table1_wrpkru" @@ fun () ->
    measure (fun _ -> Cpu.wrpkru core (Cpu.pkru core))
  in
  let reg_move =
    Env.span task "table1_reg_move" @@ fun () -> measure (fun _ -> Cpu.exec_reg_move core)
  in
  [
    { name = "pkey_alloc()"; cycles = alloc_only; paper = 186.3; description = "Allocate a new pkey" };
    { name = "pkey_free()"; cycles = free_only; paper = 137.2; description = "Deallocate a pkey" };
    { name = "pkey_mprotect()"; cycles = pkey_mprotect; paper = 1104.9; description = "Associate a pkey with memory pages" };
    { name = "pkey_get()/RDPKRU"; cycles = rdpkru; paper = 0.5; description = "Get the access right of a pkey" };
    { name = "pkey_set()/WRPKRU"; cycles = wrpkru; paper = 23.3; description = "Update the access right of a pkey" };
    { name = "mprotect() [ref]"; cycles = mprotect; paper = 1094.0; description = "Reference: mprotect on one 4KB page" };
    { name = "MOVQ rbx,rdx [ref]"; cycles = reg_move; paper = 0.0; description = "Reference: register move" };
  ]

(* "pkey_set()/WRPKRU" -> "pkey_set_wrpkru": lowercase alphanumeric runs
   joined by single underscores. *)
let sanitize name =
  String.lowercase_ascii name
  |> String.map (function ('a' .. 'z' | '0' .. '9') as c -> c | _ -> '_')
  |> String.split_on_char '_'
  |> List.filter (fun run -> run <> "")
  |> String.concat "_"

let metrics ~seed:_ ~smoke:_ =
  List.map
    (fun r -> Env.metric ("table1." ^ sanitize r.name ^ "_cycles") Lower_better r.cycles)
    (rows ())

let render () =
  let body =
    List.map
      (fun r ->
        [
          r.name;
          Mpk_util.Table.float_cell r.cycles;
          Mpk_util.Table.float_cell r.paper;
          r.description;
        ])
      (rows ())
  in
  "Table 1: Overhead of MPK instructions, system calls and APIs (cycles)\n"
  ^ Mpk_util.Table.render
      ~aligns:[ Mpk_util.Table.Left; Right; Right; Mpk_util.Table.Left ]
      ~header:[ "Name"; "Simulated"; "Paper"; "Description" ]
      body
