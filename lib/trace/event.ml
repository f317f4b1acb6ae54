(* Typed trace events spanning every simulator layer.

   One flat variant rather than per-layer types: the tracer stores a
   single heterogeneous stream per core, and exporters dispatch on the
   constructor. Payloads carry only plain ints/strings so this module
   stays at the bottom of the dependency graph (nothing above mpk_util),
   letting hw, kernel, core, and faultinj all emit without cycles. *)

type ev =
  (* hw *)
  | Wrpkru of { pkru : int }
  | Rdpkru of { pkru : int }
  | Tlb_miss of { vpn : int }
  | Tlb_fill of { vpn : int; pkey : int }
  | Tlb_flush of { pages : int; all : bool }
  | Pte_update of { pages : int; present : int }
  | Page_fault of { addr : int; cause : string }
  (* kernel *)
  | Syscall_enter of { name : string }
  | Syscall_exit of { name : string; errno : string option }
  | Pkey_sync_deferred of { target : int; pkey : int }
  | Pkey_sync_executed of { target : int; pkey : int }
  | Ipi of { kind : string; target_core : int }
  | Context_switch of { task : int; onto : bool }
  | Signal_delivered of { task : int; signo : int; code : string }
  | Lock_acquire of { cls : string; excl : bool; actor : int }
  | Lock_release of { cls : string; excl : bool; actor : int }
  | Lock_contended of { cls : string; excl : bool; actor : int }
  (* libmpk core *)
  | Cache_hit of { vkey : int; pkey : int }
  | Cache_miss of { vkey : int }
  | Cache_evict of { vkey : int; victim : int; pkey : int }
  | Cache_full of { vkey : int }
  | Cache_pin of { vkey : int }
  | Cache_unpin of { vkey : int }
  | Group_op of { op : string; vkey : int }
  | Heap_alloc of { vkey : int; size : int; addr : int }
  | Heap_free of { vkey : int; addr : int }
  (* faultinj *)
  | Fault_point_fired of { point : string }
  (* tracer-internal *)
  | Span_begin of { name : string }
  | Span_end of { name : string }

type t = {
  seq : int;  (* global emission order, unique *)
  ts : float;  (* simulated cycle time on [core] *)
  core : int;  (* -1 when no core context (faultinj firings) *)
  task : int;  (* task id running on [core] at emission, -1 if none *)
  span : int;  (* innermost open span id, 0 = top level *)
  ev : ev;
}

let kind = function
  | Wrpkru _ -> "wrpkru"
  | Rdpkru _ -> "rdpkru"
  | Tlb_miss _ -> "tlb_miss"
  | Tlb_fill _ -> "tlb_fill"
  | Tlb_flush _ -> "tlb_flush"
  | Pte_update _ -> "pte_update"
  | Page_fault _ -> "page_fault"
  | Syscall_enter _ -> "syscall_enter"
  | Syscall_exit _ -> "syscall_exit"
  | Pkey_sync_deferred _ -> "pkey_sync_deferred"
  | Pkey_sync_executed _ -> "pkey_sync_executed"
  | Ipi _ -> "ipi"
  | Context_switch _ -> "context_switch"
  | Signal_delivered _ -> "signal_delivered"
  | Lock_acquire _ -> "lock_acquire"
  | Lock_release _ -> "lock_release"
  | Lock_contended _ -> "lock_contended"
  | Cache_hit _ -> "cache_hit"
  | Cache_miss _ -> "cache_miss"
  | Cache_evict _ -> "cache_evict"
  | Cache_full _ -> "cache_full"
  | Cache_pin _ -> "cache_pin"
  | Cache_unpin _ -> "cache_unpin"
  | Group_op _ -> "group_op"
  | Heap_alloc _ -> "heap_alloc"
  | Heap_free _ -> "heap_free"
  | Fault_point_fired _ -> "fault_point_fired"
  | Span_begin _ -> "span_begin"
  | Span_end _ -> "span_end"

let args = function
  | Wrpkru { pkru } | Rdpkru { pkru } -> [ "pkru", Printf.sprintf "0x%08x" pkru ]
  | Tlb_miss { vpn } -> [ "vpn", string_of_int vpn ]
  | Tlb_fill { vpn; pkey } -> [ "vpn", string_of_int vpn; "pkey", string_of_int pkey ]
  | Tlb_flush { pages; all } ->
      [ "pages", string_of_int pages; "all", string_of_bool all ]
  | Pte_update { pages; present } ->
      [ "pages", string_of_int pages; "present", string_of_int present ]
  | Page_fault { addr; cause } -> [ "addr", Printf.sprintf "0x%x" addr; "cause", cause ]
  | Syscall_enter { name } -> [ "name", name ]
  | Syscall_exit { name; errno } ->
      [ "name", name; "errno", (match errno with None -> "0" | Some e -> e) ]
  | Pkey_sync_deferred { target; pkey } | Pkey_sync_executed { target; pkey } ->
      [ "target_task", string_of_int target; "pkey", string_of_int pkey ]
  | Ipi { kind; target_core } ->
      [ "kind", kind; "target_core", string_of_int target_core ]
  | Context_switch { task; onto } ->
      [ "task", string_of_int task; "dir", (if onto then "in" else "out") ]
  | Signal_delivered { task; signo; code } ->
      [ "task", string_of_int task; "signo", string_of_int signo; "code", code ]
  | Lock_acquire { cls; excl; actor }
  | Lock_release { cls; excl; actor }
  | Lock_contended { cls; excl; actor } ->
      (* No lock-instance id here: ids are a process-global counter, and
         trace bytes must be deterministic per seed (coredump dumps). *)
      [
        "cls", cls;
        "mode", (if excl then "excl" else "shared");
        "actor", string_of_int actor;
      ]
  | Cache_hit { vkey; pkey } -> [ "vkey", string_of_int vkey; "pkey", string_of_int pkey ]
  | Cache_miss { vkey } | Cache_full { vkey } | Cache_pin { vkey } | Cache_unpin { vkey }
    ->
      [ "vkey", string_of_int vkey ]
  | Cache_evict { vkey; victim; pkey } ->
      [
        "vkey", string_of_int vkey;
        "victim_vkey", string_of_int victim;
        "pkey", string_of_int pkey;
      ]
  | Group_op { op; vkey } -> [ "op", op; "vkey", string_of_int vkey ]
  | Heap_alloc { vkey; size; addr } ->
      [
        "vkey", string_of_int vkey;
        "size", string_of_int size;
        "addr", Printf.sprintf "0x%x" addr;
      ]
  | Heap_free { vkey; addr } ->
      [ "vkey", string_of_int vkey; "addr", Printf.sprintf "0x%x" addr ]
  | Fault_point_fired { point } -> [ "point", point ]
  | Span_begin { name } | Span_end { name } -> [ "name", name ]

let to_line t =
  let payload =
    args t.ev
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v)
    |> String.concat " "
  in
  Printf.sprintf "#%-6d %12.1f cy  core=%-2d task=%-3d span=%-3d %-18s %s" t.seq t.ts
    t.core t.task t.span (kind t.ev) payload
