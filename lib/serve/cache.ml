type stats = {
  mutable st_mem_hits : int;
  mutable st_disk_hits : int;
  mutable st_misses : int;
  mutable st_stores : int;
  mutable st_store_bytes : int;
  mutable st_evictions : int;  (** disk files evicted *)
  mutable st_evicted_bytes : int;
}

type t = {
  lock : Mutex.t;
  mem : (string, string) Hashtbl.t;
  order : string Queue.t;  (** mem keys, insertion order *)
  mutable mem_bytes : int;
  mem_budget : int;
  dir : string option;  (** [None]: memory-only cache *)
  disk_budget : int;
  mutable disk_bytes : int;  (** approximate; exact after each eviction scan *)
  mutable tmp_seq : int;
  stats : stats;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let metric ns what =
  Eel_obs.Metrics.incr
    (Eel_obs.Metrics.counter (Printf.sprintf "eel.cache.%s.%s" ns what))

let env_bytes name ~default_mb =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some mb when mb > 0 -> mb * 1024 * 1024
      | _ -> default_mb * 1024 * 1024)
  | None -> default_mb * 1024 * 1024

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then (
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

let is_tmp name = String.length name >= 4 && String.sub name 0 4 = ".tmp"

(* Entry files only; a crashed writer's temp files don't count against the
   budget and get swept by eviction. *)
let disk_entries dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             if is_tmp name then None
             else
               let path = Filename.concat dir name in
               match Unix.stat path with
               | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                   Some (path, st_size, st_mtime)
               | _ -> None
               | exception Unix.Unix_error _ -> None)

let create ?dir ?disk_budget_bytes ?mem_budget_bytes () =
  let dir =
    match dir with Some _ as d -> d | None -> Sys.getenv_opt "EEL_CACHE_DIR"
  in
  let disk_budget =
    match disk_budget_bytes with
    | Some b -> b
    | None -> env_bytes "EEL_CACHE_MB" ~default_mb:256
  in
  let mem_budget =
    match mem_budget_bytes with Some b -> b | None -> 64 * 1024 * 1024
  in
  Option.iter mkdir_p dir;
  let disk_bytes =
    match dir with
    | None -> 0
    | Some d -> List.fold_left (fun a (_, s, _) -> a + s) 0 (disk_entries d)
  in
  {
    lock = Mutex.create ();
    mem = Hashtbl.create 256;
    order = Queue.create ();
    mem_bytes = 0;
    mem_budget;
    dir;
    disk_budget;
    disk_bytes;
    tmp_seq = 0;
    stats =
      {
        st_mem_hits = 0;
        st_disk_hits = 0;
        st_misses = 0;
        st_stores = 0;
        st_store_bytes = 0;
        st_evictions = 0;
        st_evicted_bytes = 0;
      };
  }

let file_name ~ns key = ns ^ "-" ^ key

(* caller holds the lock *)
let mem_insert_locked t full v =
  if not (Hashtbl.mem t.mem full) then (
    Hashtbl.replace t.mem full v;
    Queue.push full t.order;
    t.mem_bytes <- t.mem_bytes + String.length v;
    while t.mem_bytes > t.mem_budget && Queue.length t.order > 1 do
      let victim = Queue.pop t.order in
      match Hashtbl.find_opt t.mem victim with
      | Some old ->
          Hashtbl.remove t.mem victim;
          t.mem_bytes <- t.mem_bytes - String.length old
      | None -> ()
    done)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | s -> Some s
      | exception (Sys_error _ | End_of_file) -> None)

let enforce_disk_budget t =
  match t.dir with
  | None -> ()
  | Some d ->
      with_lock t (fun () ->
          let entries = disk_entries d in
          let total = List.fold_left (fun a (_, s, _) -> a + s) 0 entries in
          t.disk_bytes <- total;
          if total > t.disk_budget then (
            let oldest_first =
              List.sort (fun (_, _, a) (_, _, b) -> compare a b) entries
            in
            let remaining = ref total in
            let n = List.length oldest_first in
            List.iteri
              (fun i (path, size, _) ->
                (* never evict the newest entry: a single oversized artifact
                   must not empty the cache it was just written into *)
                if !remaining > t.disk_budget && i < n - 1 then (
                  (try Sys.remove path with Sys_error _ -> ());
                  remaining := !remaining - size;
                  t.stats.st_evictions <- t.stats.st_evictions + 1;
                  t.stats.st_evicted_bytes <- t.stats.st_evicted_bytes + size))
              oldest_first;
            t.disk_bytes <- !remaining;
            metric "disk" "evict_scans"))

let get t ~ns key =
  let full = file_name ~ns key in
  let from_mem =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.mem full with
        | Some v ->
            t.stats.st_mem_hits <- t.stats.st_mem_hits + 1;
            Some v
        | None -> None)
  in
  match from_mem with
  | Some v ->
      metric ns "mem_hits";
      Some v
  | None -> (
      let from_disk =
        match t.dir with
        | None -> None
        | Some d -> (
            let path = Filename.concat d full in
            match read_file path with
            | Some v ->
                (* LRU touch: both times to "now" *)
                (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
                Some v
            | None -> None)
      in
      match from_disk with
      | Some v ->
          with_lock t (fun () ->
              t.stats.st_disk_hits <- t.stats.st_disk_hits + 1;
              mem_insert_locked t full v);
          metric ns "disk_hits";
          Some v
      | None ->
          with_lock t (fun () -> t.stats.st_misses <- t.stats.st_misses + 1);
          metric ns "misses";
          None)

let put t ~ns key v =
  let full = file_name ~ns key in
  let already =
    with_lock t (fun () ->
        if Hashtbl.mem t.mem full then true
        else (
          t.stats.st_stores <- t.stats.st_stores + 1;
          t.stats.st_store_bytes <- t.stats.st_store_bytes + String.length v;
          mem_insert_locked t full v;
          false))
  in
  if not already then (
    metric ns "stores";
    match t.dir with
    | None -> ()
    | Some d ->
        let path = Filename.concat d full in
        if not (Sys.file_exists path) then (
          let tmp =
            with_lock t (fun () ->
                t.tmp_seq <- t.tmp_seq + 1;
                Filename.concat d
                  (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ()) t.tmp_seq))
          in
          (try
             let oc = open_out_bin tmp in
             Fun.protect
               ~finally:(fun () -> close_out_noerr oc)
               (fun () -> output_string oc v);
             Sys.rename tmp path
           with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()));
          let over =
            with_lock t (fun () ->
                t.disk_bytes <- t.disk_bytes + String.length v;
                t.disk_bytes > t.disk_budget)
          in
          if over then enforce_disk_budget t))

let mem_clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.mem;
      Queue.clear t.order;
      t.mem_bytes <- 0)

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

let snapshot t =
  with_lock t (fun () ->
      {
        sn_mem_hits = t.stats.st_mem_hits;
        sn_disk_hits = t.stats.st_disk_hits;
        sn_misses = t.stats.st_misses;
        sn_stores = t.stats.st_stores;
        sn_store_bytes = t.stats.st_store_bytes;
        sn_evictions = t.stats.st_evictions;
        sn_evicted_bytes = t.stats.st_evicted_bytes;
        sn_mem_entries = Hashtbl.length t.mem;
        sn_mem_bytes = t.mem_bytes;
        sn_disk_bytes = t.disk_bytes;
      })

let hits s = s.sn_mem_hits + s.sn_disk_hits
let lookups s = hits s + s.sn_misses

let hit_rate s =
  let l = lookups s in
  if l = 0 then 0.0 else float_of_int (hits s) /. float_of_int l

let snapshot_to_json s =
  Printf.sprintf
    {|{"mem_hits": %d, "disk_hits": %d, "misses": %d, "hit_rate": %.4f, "stores": %d, "store_bytes": %d, "evictions": %d, "evicted_bytes": %d, "mem_entries": %d, "mem_bytes": %d, "disk_bytes": %d}|}
    s.sn_mem_hits s.sn_disk_hits s.sn_misses (hit_rate s) s.sn_stores
    s.sn_store_bytes s.sn_evictions s.sn_evicted_bytes s.sn_mem_entries
    s.sn_mem_bytes s.sn_disk_bytes

let stats_json t = snapshot_to_json (snapshot t)
