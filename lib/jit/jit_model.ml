open Mpk_analysis
open Mpk_hw

let cache_vkey = Codecache.vkey_base

(* What the engine normally emits: computation, one trusted domain
   switch (checked WRPKRU), return. *)
let trusted_stream =
  Ir.
    [
      I_op "push rbp";
      I_op "mov rax, pkru_begin";
      I_wrpkru;
      I_cmp_pkru;
      I_br_trusted;
      I_op "add rdx, rcx";
      I_ret;
    ]

(* An unchecked WRPKRU in generated code: jumping here with a chosen eax
   rewrites PKRU — exactly what ERIM's binary scan rejects. *)
let gadget_stream =
  Ir.[ I_op "mov rax, attacker"; I_wrpkru; I_op "jmp rbx"; I_ret ]

let program ?plant () =
  let open Ir in
  let emit code = op (Emit { vkey = cache_vkey; code }) in
  let serve_loop code =
    Loop
      ( "compile-and-run",
        [
          If
            ( "function hot?",
              [
                op (Begin { vkey = cache_vkey; prot = Perm.rw });
                emit code;
                op (End { vkey = cache_vkey });
              ],
              [ label "interpret bytecode" ] );
          op (Exec { vkey = cache_vkey });
        ] )
  in
  let main =
    [ op (Mmap { vkey = cache_vkey; pages = 4; prot = Perm.rwx }) ]
    @ (match plant with
      | Some `Gadget -> [ serve_loop gadget_stream ]
      | Some `Wx | None -> [ serve_loop trusted_stream ])
    @ (match plant with
      | Some `Wx ->
          (* "fast-patch mode": unlock the whole cache for in-place
             patching and keep running out of it *)
          [
            label "enable fast patching";
            op (Mprotect { vkey = cache_vkey; prot = Perm.rwx });
            op (Write { vkey = cache_vkey });
            op (Exec { vkey = cache_vkey });
          ]
      | Some `Gadget | None -> [])
    @ [ op (Free { vkey = cache_vkey }) ]
  in
  Ir.build ~name:"jit" ~main ()
