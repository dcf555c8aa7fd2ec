(** Content-addressed artifact cache for the rewriting service.

    Two layers, both keyed by [(namespace, hex-digest)] where the digest is
    a content hash of everything the artifact was computed from — so a key
    either misses or returns exactly the bytes some earlier computation
    produced, and "invalidation" is simply a changed key:

    - an {b in-memory} layer (a [Hashtbl] behind one [Mutex]) that is safe
      under {!Eel_util.Pool} domain fan-out and bounded by a byte budget
      with FIFO eviction — content-addressed entries never go stale, so
      recency bookkeeping buys nothing over insertion order here;
    - a {b durable on-disk} layer: one flat file per entry at
      [dir/<ns>-<key>], written atomically (temp file + [rename]), bounded
      by a byte budget ([EEL_CACHE_MB]) enforced by oldest-[mtime]-first
      eviction. Disk hits touch the file's mtime so the LRU order reflects
      use, and are promoted into the memory layer.

    Every operation bumps both [eel.cache.<ns>.*] metrics (domain-local,
    merged at pool joins) and a shared mutex-protected {!stats} record the
    tests can read mid-run from any domain. *)

type t

val mkdir_p : string -> unit

(** [create ()] — a cache rooted at [?dir] (default [EEL_CACHE_DIR]; no
    directory means a memory-only cache), with the disk layer bounded by
    [?disk_budget_bytes] (default [EEL_CACHE_MB], else 256 MB) and the
    memory layer by [?mem_budget_bytes] (default 64 MB). *)
val create :
  ?dir:string -> ?disk_budget_bytes:int -> ?mem_budget_bytes:int -> unit -> t

(** Re-scan the disk layer and delete oldest-mtime entries until it fits
    the budget again. Exact: recomputes [disk_bytes] from the directory, so
    double-counted concurrent writes self-correct here. *)
val enforce_disk_budget : t -> unit

val get : t -> ns:string -> string -> string option

val put : t -> ns:string -> string -> string -> unit

(** Drop the whole memory layer (tests use this to force the disk path). *)
val mem_clear : t -> unit

type snapshot = {
  sn_mem_hits : int;
  sn_disk_hits : int;
  sn_misses : int;
  sn_stores : int;
  sn_store_bytes : int;
  sn_evictions : int;
  sn_evicted_bytes : int;
  sn_mem_entries : int;
  sn_mem_bytes : int;
  sn_disk_bytes : int;
}

val snapshot : t -> snapshot

val hits : snapshot -> int

val stats_json : t -> string
