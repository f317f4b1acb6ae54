(** A chained hash table living in simulated memory (paper §5.3: the hash
    table maintaining key→value mappings is the second structure libmpk
    protects in Memcached).

    Buckets are an array of 8-byte entry pointers in one region; entries
    ([next, keylen, vallen, key, value]) are slab chunks. Every byte is
    read and written through the MMU with the calling task's core, so
    page permissions and protection keys apply to the lookup path
    itself. *)

open Mpk_kernel

type t

(** [create proc ~buckets ~bucket_base slab] — [bucket_base] must point
    at a mapped region of at least [8 * buckets] bytes. *)
val create : Proc.t -> buckets:int -> bucket_base:int -> Slab.t -> t

(** The table's key hash (FNV-1a), exposed so a sharded store can route a
    key to its owning shard with the same function the buckets use. *)
val hash : string -> int

val buckets : t -> int

(** [set t task ~key ~value] — insert or overwrite. [Error EINVAL] when
    the entry (16-byte header, key, value) exceeds the largest slab
    class, so it can never fit; [Error ENOSPC] when the slab region is
    exhausted for its class (the caller decides whether to evict,
    report, or fail). Nothing is written in either case. Once the
    entry's slab class has grown, a [set] allocates nothing. *)
val set : t -> Task.t -> key:string -> value:bytes -> (unit, Errno.t) result

(** [get t task ~key] — the value, read into a fresh buffer. A chain
    walk compares keys in place and allocates nothing, so a miss
    allocates nothing and a hit only its value and its [Some]. *)
val get : t -> Task.t -> key:string -> bytes option

(** [delete t task ~key] — true when the key existed. *)
val delete : t -> Task.t -> key:string -> bool
