type t = {
  mutable instrs_lifted : int;
  mutable instrs_alloc : int;
  mutable blocks_alloc : int;
  mutable edges_alloc : int;
  mutable snippets_alloc : int;
  mutable cfgs_built : int;
}

let fresh () =
  {
    instrs_lifted = 0;
    instrs_alloc = 0;
    blocks_alloc = 0;
    edges_alloc = 0;
    snippets_alloc = 0;
    cfgs_built = 0;
  }

let stats_key : t Domain.DLS.key = Domain.DLS.new_key fresh

let stats () = Domain.DLS.get stats_key

let reset () =
  let s = stats () in
  s.instrs_lifted <- 0;
  s.instrs_alloc <- 0;
  s.blocks_alloc <- 0;
  s.edges_alloc <- 0;
  s.snippets_alloc <- 0;
  s.cfgs_built <- 0

type snapshot = {
  s_instrs_lifted : int;
  s_instrs_alloc : int;
  s_blocks_alloc : int;
  s_edges_alloc : int;
  s_snippets_alloc : int;
  s_cfgs_built : int;
}

let snapshot () =
  let s = stats () in
  {
    s_instrs_lifted = s.instrs_lifted;
    s_instrs_alloc = s.instrs_alloc;
    s_blocks_alloc = s.blocks_alloc;
    s_edges_alloc = s.edges_alloc;
    s_snippets_alloc = s.snippets_alloc;
    s_cfgs_built = s.cfgs_built;
  }

let total_objects () =
  let s = stats () in
  s.instrs_alloc + s.blocks_alloc + s.edges_alloc + s.snippets_alloc

let pp fmt () =
  let s = stats () in
  Format.fprintf fmt
    "instrs lifted=%d allocated=%d blocks=%d edges=%d snippets=%d cfgs=%d"
    s.instrs_lifted s.instrs_alloc s.blocks_alloc s.edges_alloc
    s.snippets_alloc s.cfgs_built

(* Absorb the record into the metrics registry: callback gauges read the
   live counters at snapshot time, so the increment paths stay plain int
   stores. *)
let () =
  let reg name read =
    Eel_obs.Metrics.gauge_fn ("eel.stats." ^ name) (fun () ->
        float_of_int (read ()))
  in
  reg "instrs_lifted" (fun () -> (stats ()).instrs_lifted);
  reg "instrs_alloc" (fun () -> (stats ()).instrs_alloc);
  reg "blocks_alloc" (fun () -> (stats ()).blocks_alloc);
  reg "edges_alloc" (fun () -> (stats ()).edges_alloc);
  reg "snippets_alloc" (fun () -> (stats ()).snippets_alloc);
  reg "cfgs_built" (fun () -> (stats ()).cfgs_built);
  reg "total_objects" (fun () -> total_objects ())

(* Pool workers start from a zeroed record, so the capture below is the
   worker's delta; summing it into the caller's record reproduces the
   serial totals. *)
let () =
  Eel_util.Pool.on_join (fun () ->
      let d = snapshot () in
      fun () ->
        let s = stats () in
        s.instrs_lifted <- s.instrs_lifted + d.s_instrs_lifted;
        s.instrs_alloc <- s.instrs_alloc + d.s_instrs_alloc;
        s.blocks_alloc <- s.blocks_alloc + d.s_blocks_alloc;
        s.edges_alloc <- s.edges_alloc + d.s_edges_alloc;
        s.snippets_alloc <- s.snippets_alloc + d.s_snippets_alloc;
        s.cfgs_built <- s.cfgs_built + d.s_cfgs_built)
