(* The job-level benchmark: three workloads of real EEL jobs, each a closed
   loop with one client in one process, timed around the public entry call
   of every job.

     bench.exe setup   --workload W --seed N --dir D [--reps K]
     bench.exe measure --workload W --seed N --seconds S --trace 0|1 --dir D

   [setup] builds the workload's inputs from the seed K times (default 1),
   keeps the last copy in D and appends the mean set-up time to D. [measure]
   runs in a fresh process (so its peak heap is its own), reads D, runs
   whole passes over the job list for about S seconds, repeats the set-up
   between passes (see [setup_plan]), checks every job and prints the
   metrics; the last line of its output is one JSON object.
   With [--trace 1] it spends half the time on untraced passes and half on
   traced ones, and reports per-layer metrics instead (see [Calc.jobs]). *)

open Perfbench
module Serve = Eel_service.Serve
module Cache = Eel_service.Cache
module Analysis = Eel_service.Analysis
module Proto = Eel_service.Proto
module Toolbox = Eel_tools.Toolbox
module Diffexec = Eel_diffexec.Diffexec
module Corpus = Eel_diffexec.Corpus
module Contract = Eel_equiv.Contract
module Emu = Eel_emu.Emu
module Sef = Eel_sef.Sef
module E = Eel.Executable
module Gen = Eel_workload.Gen
module Ledger = Eel_obs.Ledger
module Trace = Eel_obs.Trace

let mach = Eel_sparc.Mach.mach
let now = Unix.gettimeofday
let digest s = Digest.to_hex (Digest.string s)

let assemble src =
  match Eel_sparc.Asm.assemble src with
  | Ok exe -> exe
  | Error m -> failwith ("assembly failed: " ^ m)

let ok_or_fail = function Ok v -> v | Error m -> failwith m
let diag_fail = function
  | Ok v -> v
  | Error e -> failwith (Eel_robust.Diag.error_message e)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path)
    else Sys.remove path

(* ---- workload parameters ---- *)

(* Serve jobs: [Serve.mixed_jobs] with its tool/source pairing fixed, and
   its generated programs drawn from the workload seed. Every pair it
   reaches is distinct below this count. *)
let serve_count = 66
let serve_jobs seed =
  let reseed (j : Proto.job) =
    match j.Proto.j_src with
    | Proto.S_gen g -> { j with Proto.j_src = Proto.S_gen { g with seed = g.seed + (101 * seed) } }
    | _ -> j
  in
  List.map reseed (Serve.mixed_jobs ~count:serve_count ~seed:0)

(* Four programs of 200 routines, two in each compiler style: the figures
   of one seed then rest on several program shapes, not one. *)
let instr_programs seed =
  List.concat_map
    (fun k ->
      let seed = (4 * seed) + (2 * k) in
      [
        (Printf.sprintf "gcc-200-%d" k, Gen.spim_like ~seed ~routines:200 ~style:Gen.Gcc ());
        ( Printf.sprintf "sunpro-200-%d" k,
          Gen.spim_like ~seed:(seed + 1) ~routines:200 ~style:Gen.Sunpro () );
      ])
    [ 0; 1 ]

(* Set-up runs at least [setup_min_reps] times and for at least
   [setup_min_s] seconds in all, at most [setup_max_reps] times. The host's
   speed drifts over seconds to minutes, so the set-ups are spread over the
   run as the passes are: the first runs before the passes, the rest in up
   to [setup_batches] batches at evenly spaced points between them. Like a
   pass, a batch is one sample, its time per set-up; setup_s is the median
   sample. *)
let setup_min_reps = 3
let setup_max_reps = 1000
let setup_min_s = 5.0
let setup_batches = 5

(* ---- what setup hands to measure ---- *)

(* Per (tool, program) facts an oracle run established. *)
type reference = {
  rf_verdict : string;  (** the oracle's verdict on the edited image *)
  rf_digest : string;  (** digest of that image *)
  rf_growth : float option;  (** edited / original image bytes *)
  rf_overhead : float option;  (** edited / original dynamic instructions *)
}

type product =
  | Serve_jobs of {
      jobs : Proto.job list;
      warm_dir : string option;  (** populated cache (serve-warm only) *)
      refs : (string * string) list;  (** job id -> edited digest *)
    }
  | Instrument of {
      progs : (string * string) list;  (** name -> serialized image *)
      irefs : ((string * string) * reference) list;  (** (tool, prog) *)
    }

(* ---- one job's record ---- *)

type job = {
  label : string;  (** tool and program, for failure reports *)
  ms : float;
  alloc : float;  (** bytes *)
  check : Calc.check;
  growth : float option;
  overhead : float option;
  emulated : int;  (** dynamic instructions emulated, both sides *)
}

let timed f =
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  let t1 = now () in
  (v, (t1 -. t0) *. 1000.0, Gc.allocated_bytes () -. a0)

let failed_job label ms alloc verdict =
  {
    label;
    ms;
    alloc;
    check = { Calc.verdict; digest_ok = false };
    growth = None;
    overhead = None;
    emulated = 0;
  }

let ratio a b = if a > 0 && b > 0 then Some (float_of_int a /. float_of_int b) else None

(* ---- spans and counters of the traced run ---- *)

let tracer = Trace.create ()
let job_id = ref 0

(* [span ?explains name f] — [f ()] in a span tagged with the current job;
   a probe names the span it explains (see [Calc.jobs]). *)
let span ?explains name f =
  let explains = Option.to_list (Option.map (fun e -> ("explains", e)) explains) in
  Trace.span tracer ~args:(("job", string_of_int !job_id) :: explains) name f

let job_root f =
  incr job_id;
  span "job" f

let counters : (string, float) Hashtbl.t = Hashtbl.create 32
let count name v =
  Hashtbl.replace counters name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))
let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)

(* ---- probes: separate calls that split an opaque span ---- *)

(* The identity pipeline on the job's input, with the calls
   [Diffexec.identity_roundtrip] makes, run with the analysis cache
   removed: an estimate of the core layer's share of [Toolbox.apply]. *)
let core_probes exe =
  let saved = Atomic.get E.analysis_cache in
  E.set_analysis_cache None;
  Fun.protect ~finally:(fun () -> E.set_analysis_cache saved) @@ fun () ->
  let explains = "tools.apply" in
  match span ~explains "core.open" (fun () -> E.open_exe mach exe) with
  | Error _ -> ()
  | Ok t ->
      let js = span ~explains "core.cfg" (fun () -> E.jump_stats t) in
      ignore (span ~explains "core.emit" (fun () -> E.to_edited_sef t ()));
      count "core.routines" (float_of_int js.E.js_routines);
      count "core.blocks" (float_of_int (E.cfg_stats t).Eel.Cfg.s_blocks);
      count "core.jumps_analyzed"
        (float_of_int (js.E.js_indirect_jumps - js.E.js_unanalyzable))

(* Both sides of [verify_edit] again, as [Diffexec.execute] calls with the
   same arguments, each split by an [Emu.load] at the same equalized
   headroom. *)
let verify_probes ~fuel ?os ?os_b (ap : Toolbox.applied) exe =
  let head_a, head_b = Diffexec.equalized_headroom exe ap.Toolbox.ap_edited in
  let side image headroom run =
    let r = span ~explains:"diffexec.verify" "diffexec.execute" run in
    let t = span ~explains:"diffexec.execute" "emu.load" (fun () -> Emu.load ~headroom image) in
    count "emu.loads" 1.0;
    count "emu.mem_mb" (float_of_int (Bytes.length t.Emu.mem) /. 1e6);
    count "emu.predecode_words" (float_of_int (Array.length t.Emu.code));
    let r = diag_fail r in
    count "emu.insns" (float_of_int r.Diffexec.r_insns);
    r
  in
  let ra =
    side exe head_a (fun () ->
        Diffexec.execute ~fuel ~headroom:head_a ~profile:true ?os exe)
  in
  let keep t ev = not (Contract.declared ap.Toolbox.ap_contract ~sp:(Emu.sp t) ev) in
  let os_b = match os_b with Some _ -> os_b | None -> os in
  ignore
    (side ap.Toolbox.ap_edited head_b (fun () ->
         Diffexec.execute ~fuel ~headroom:head_b ~profile:true ~filter:keep
           ?os:os_b ap.Toolbox.ap_edited));
  Array.iter
    (function Emu.Ob_syscall _ -> count "os.syscalls" 1.0 | _ -> ())
    ra.Diffexec.r_events

(* [Toolbox.measure] as its public parts, each in a span. Returns the
   measured result and the probes to run once the job is over. *)
let traced_measure ~fuel ?os ~prog tool exe =
  let ap = span "tools.apply" (fun () -> ok_or_fail (Toolbox.apply tool mach exe)) in
  count "tools.sites" (float_of_int ap.Toolbox.ap_sites);
  count "tools.edited_bytes" (float_of_int (Sef.image_size ap.Toolbox.ap_edited));
  let ap, os_b =
    match os with
    | None -> (ap, None)
    | Some spec ->
        let ap, spec_b = Toolbox.os_interpose ap spec in
        (ap, Some spec_b)
  in
  let er =
    span "diffexec.verify" (fun () ->
        diag_fail
          (Diffexec.verify_edit ~fuel ~profiles:true ?os ?os_b
             ~norm_b:ap.Toolbox.ap_norm_b ~block_of:ap.Toolbox.ap_block_of
             ~contract:ap.Toolbox.ap_contract exe ap.Toolbox.ap_edited))
  in
  count "equiv.masked_events" (float_of_int er.Diffexec.er_masked);
  let entry = Toolbox.ledger_entry ~prog ap er exe in
  Ledger.record entry;
  let probes () =
    core_probes exe;
    verify_probes ~fuel ?os ?os_b ap exe
  in
  ((ap, er, entry), probes)

(* ---- serve workloads ---- *)

let resolve_traced (j : Proto.job) =
  let asm src = span "sparc.asm" (fun () -> assemble src) in
  match j.Proto.j_src with
  | Proto.S_corpus name -> (
      match (List.assoc_opt name Corpus.sources, List.assoc_opt name Corpus.os_sources) with
      | Some src, _ -> (asm src, None)
      | None, Some (src, spec) -> (asm src, Some spec)
      | None, None -> failwith ("unknown corpus program " ^ name))
  | Proto.S_gen { seed; style = "os"; _ } ->
      let src, world =
        span "workload.gen" (fun () -> Gen.os_program { Gen.default with seed })
      in
      (asm src, Some (Corpus.spec_of_world world))
  | Proto.S_gen { seed; routines; style } ->
      let style = if style = "sunpro" then Gen.Sunpro else Gen.Gcc in
      let src =
        span "workload.gen" (fun () ->
            Gen.program { Gen.default with seed; routines; style })
      in
      (asm src, None)
  | Proto.S_file _ | Proto.S_inline _ -> failwith "unsupported job source"

(* [Serve.run_job] as its public parts, each in a span. *)
let traced_run_job (cfg : Serve.config) (j : Proto.job) =
  let probes = ref (fun () -> ()) in
  let outcome =
    span "serve.run_job" @@ fun () ->
    let tool = j.Proto.j_tool and prog = Proto.prog_name j in
    let exe, os = resolve_traced j in
    let image = span "sef.to_string" (fun () -> Sef.to_string exe) in
    let key = span "serve.job_key" (fun () -> Serve.job_key cfg j ?os image) in
    let cached =
      match
        span "serve.cache_get" (fun () ->
            Cache.get cfg.Serve.c_cache ~ns:Serve.result_ns key)
      with
      | None -> None
      | Some s -> span "serve.decode" (fun () -> Serve.decode_outcome ~tool ~prog s)
    in
    match cached with
    | Some o ->
        Ledger.record o.Serve.o_entry;
        o
    | None ->
        let fuel = Option.value j.Proto.j_fuel ~default:cfg.Serve.c_fuel in
        let (ap, er, entry), p = traced_measure ~fuel ?os ~prog tool exe in
        probes := p;
        let o =
          {
            Serve.o_verdict = entry.Ledger.le_verdict;
            o_masked = er.Diffexec.er_masked;
            o_result_hit = false;
            o_edited = span "sef.to_string" (fun () -> Sef.to_string ap.Toolbox.ap_edited);
            o_entry = entry;
          }
        in
        if o.Serve.o_verdict = "equivalent" then
          span "serve.cache_put" (fun () ->
              Cache.put cfg.Serve.c_cache ~ns:Serve.result_ns key (Serve.encode_outcome o));
        o
  in
  (outcome, !probes)

(* A served outcome as a job record: it must be (or not be) a cache hit
   and, when [ref_digest] is known, carry exactly those edited bytes. *)
let serve_job ~label ~ms ~alloc ~expect_hit ~ref_digest ~digest:d (o : Serve.outcome) =
  let e = o.Serve.o_entry in
  {
    label;
    ms;
    alloc;
    check =
      {
        Calc.verdict = o.Serve.o_verdict;
        digest_ok =
          o.Serve.o_result_hit = expect_hit
          && (match ref_digest with Some r -> r = d | None -> true);
      };
    growth = ratio e.Ledger.le_bytes_edited e.Ledger.le_bytes_orig;
    overhead = ratio e.Ledger.le_insns_edited e.Ledger.le_insns_orig;
    emulated =
      (if o.Serve.o_result_hit then 0 else e.Ledger.le_insns_orig + e.Ledger.le_insns_edited);
  }

(* One pass of the job list against [cache], with the per-routine analysis
   cache installed as [Serve.run_batch] does. [refs] maps a job id to the
   digest its edited image must have; [seen] collects this pass's digests. *)
let serve_pass ~traced ~expect_hit ~refs ~seen cache jobs =
  let cfg = Serve.default_config cache in
  Analysis.install cache;
  Fun.protect ~finally:Analysis.uninstall @@ fun () ->
  List.map
    (fun (j : Proto.job) ->
      let s0 = Cache.snapshot cache in
      let call () =
        if traced then job_root (fun () -> traced_run_job cfg j)
        else
          let r = Serve.run_job cfg j in
          ( (match r.Serve.sr_outcome with Ok o -> o | Error m -> failwith m),
            fun () -> () )
      in
      let v, ms, alloc = timed call in
      let s1 = Cache.snapshot cache in
      if traced then (
        count "serve.cache.mem_hits" (float_of_int (s1.Cache.sn_mem_hits - s0.Cache.sn_mem_hits));
        count "serve.cache.disk_hits"
          (float_of_int (s1.Cache.sn_disk_hits - s0.Cache.sn_disk_hits));
        count "serve.cache.misses" (float_of_int (s1.Cache.sn_misses - s0.Cache.sn_misses));
        count "serve.cache.stores" (float_of_int (s1.Cache.sn_stores - s0.Cache.sn_stores));
        count "serve.cache.store_bytes"
          (float_of_int (s1.Cache.sn_store_bytes - s0.Cache.sn_store_bytes)));
      let label = String.concat " " [ j.Proto.j_id; j.Proto.j_tool; Proto.prog_name j ] in
      match v with
      | Error m -> failed_job label ms alloc ("error: " ^ m)
      | Ok (o, probes) ->
          probes ();
          let d = digest o.Serve.o_edited in
          Hashtbl.replace seen j.Proto.j_id d;
          serve_job ~label ~ms ~alloc ~expect_hit
            ~ref_digest:(List.assoc_opt j.Proto.j_id refs) ~digest:d o)
    jobs

let serve_setup ~warm ~seed ~dir =
  (* input generation and assembly; two jobs whose content keys coincide
     (a generated program can equal a corpus one) are one job, so a cold
     pass never hits its own results *)
  let cfg = Serve.default_config (Cache.create ~dir:(Filename.concat dir "keys") ()) in
  let keys = Hashtbl.create 64 in
  let jobs =
    List.filter
      (fun (j : Proto.job) ->
        let exe, os = ok_or_fail (Serve.resolve j) in
        let key = Serve.job_key cfg j ?os (Sef.to_string exe) in
        let fresh = not (Hashtbl.mem keys key) in
        Hashtbl.replace keys key ();
        fresh)
      (serve_jobs seed)
  in
  if not warm then Serve_jobs { jobs; warm_dir = None; refs = [] }
  else
    (* cache population: the cold path once, into a durable directory *)
    let cache_dir = Filename.concat dir "warm-cache" in
    rm_rf cache_dir;
    let seen = Hashtbl.create 64 in
    let rs =
      serve_pass ~traced:false ~expect_hit:false ~refs:[] ~seen (Cache.create ~dir:cache_dir ()) jobs
    in
    if Calc.failed_count (List.map (fun r -> r.check) rs) > 0 then
      failwith "serve-warm setup: a cold job did not verify equivalent";
    Serve_jobs
      {
        jobs;
        warm_dir = Some cache_dir;
        refs = List.map (fun (j : Proto.job) -> (j.Proto.j_id, Hashtbl.find seen j.Proto.j_id)) jobs;
      }

(* ---- instrument-large ---- *)

let instrument_setup ~seed =
  let progs = List.map (fun (name, src) -> (name, assemble src)) (instr_programs seed) in
  let irefs =
    List.concat_map
      (fun (prog, exe) ->
        List.map
          (fun tool ->
            let ms = diag_fail (Toolbox.measure ~prog tool mach exe) in
            let e = ms.Toolbox.ms_entry in
            ( (tool, prog),
              {
                rf_verdict = e.Ledger.le_verdict;
                rf_digest = digest (Sef.to_string ms.Toolbox.ms_applied.Toolbox.ap_edited);
                rf_growth = ratio e.Ledger.le_bytes_edited e.Ledger.le_bytes_orig;
                rf_overhead = ratio e.Ledger.le_insns_edited e.Ledger.le_insns_orig;
              } ))
          Toolbox.names)
      progs
  in
  Instrument { progs = List.map (fun (n, exe) -> (n, Sef.to_string exe)) progs; irefs }

(* One tool run over one executable image: read it, edit it, write it. *)
let instrument_pass ~traced progs irefs =
  List.concat_map
    (fun (prog, bytes) ->
      List.map
        (fun tool ->
          let plain () =
            let exe = diag_fail (Sef.load bytes) in
            let ap = ok_or_fail (Toolbox.apply tool mach exe) in
            (Sef.to_string ap.Toolbox.ap_edited, fun () -> ())
          in
          let with_spans () =
            job_root (fun () ->
                let exe = span "sef.load" (fun () -> diag_fail (Sef.load bytes)) in
                let ap = span "tools.apply" (fun () -> ok_or_fail (Toolbox.apply tool mach exe)) in
                count "tools.sites" (float_of_int ap.Toolbox.ap_sites);
                count "tools.edited_bytes" (float_of_int (Sef.image_size ap.Toolbox.ap_edited));
                ( span "sef.to_string" (fun () -> Sef.to_string ap.Toolbox.ap_edited),
                  fun () -> core_probes exe ))
          in
          let v, ms, alloc = timed (if traced then with_spans else plain) in
          let label = tool ^ " " ^ prog in
          match v with
          | Error m -> failed_job label ms alloc ("error: " ^ m)
          | Ok (edited, probes) ->
              probes ();
              let rf = List.assoc (tool, prog) irefs in
              {
                label;
                ms;
                alloc;
                (* the oracle's verdict on this exact image in setup *)
                check = { Calc.verdict = rf.rf_verdict; digest_ok = digest edited = rf.rf_digest };
                growth = rf.rf_growth;
                overhead = rf.rf_overhead;
                emulated = 0;
              })
        Toolbox.names)
    progs

(* ---- driving a workload ---- *)

let workloads = [ "serve-cold"; "serve-warm"; "instrument-large" ]

let setup_once workload ~seed ~dir =
  match workload with
  | "serve-cold" -> serve_setup ~warm:false ~seed ~dir
  | "serve-warm" -> serve_setup ~warm:true ~seed ~dir
  | "instrument-large" -> instrument_setup ~seed
  | w -> failwith ("unknown workload " ^ w)

(* [pass_runner workload dir product] — a function running one whole pass
   over the workload's jobs, traced or not. *)
let pass_runner workload dir product =
  let seen = Hashtbl.create 64 in
  match (workload, product) with
  | "serve-cold", Serve_jobs { jobs; _ } ->
      (* every pass starts from a fresh, empty cache directory; the first
         pass's digests are the reference for the later ones *)
      let n = ref 0 in
      fun ~traced ->
        incr n;
        let d = Filename.concat dir (Printf.sprintf "cold-%d" !n) in
        let refs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) seen [] in
        Fun.protect ~finally:(fun () -> rm_rf d) @@ fun () ->
        serve_pass ~traced ~expect_hit:false ~refs ~seen (Cache.create ~dir:d ()) jobs
  | "serve-warm", Serve_jobs { jobs; warm_dir = Some d; refs } ->
      (* a restarted daemon: a new [Cache.t] over the populated directory,
         so every hit crosses the disk layer *)
      fun ~traced -> serve_pass ~traced ~expect_hit:true ~refs ~seen (Cache.create ~dir:d ()) jobs
  | "instrument-large", Instrument { progs; irefs } ->
      fun ~traced -> instrument_pass ~traced progs irefs
  | _ -> failwith "setup product does not match the workload"

(* Whole passes until [seconds] have gone by (at least one), calling
   [between] with the time taken so far after each. Returns the jobs, the
   wall time of the passes and the median pass throughput. A pass's
   throughput is its job count over the time its jobs took, which leaves
   out the benchmark's own checks and probes between jobs (on serve-warm
   the digest check alone costs more than a job); a pass that a burst of
   outside load slowed moves the median little. *)
let run_passes ?(between = fun _ -> ()) pass ~traced ~seconds =
  let rec go acc rates wall =
    if acc <> [] && wall >= seconds then (List.concat (List.rev acc), wall, Calc.median rates)
    else
      let t0 = now () in
      let js = pass ~traced in
      let dt = now () -. t0 in
      between (wall +. dt);
      let busy = List.fold_left (fun a j -> a +. j.ms) 0.0 js /. 1000.0 in
      go (js :: acc) ((float_of_int (List.length js) /. busy) :: rates) (wall +. dt)
  in
  go [] [] 0.0

(* ---- output ---- *)

let metric_json (name, value, unit) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", " (List.map metric_json metrics))

let end_to_end ~setup_s (jobs : job list) jobs_per_s =
  let n = List.length jobs in
  let lat = List.map (fun j -> j.ms) jobs in
  let geo f = Calc.geomean (List.filter_map f jobs) in
  let top_heap =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let p90 = match Calc.percentile 90.0 lat with Some p -> [ ("job_ms_p90", p, "ms") ] | None -> [] in
  [ ("jobs_per_s", jobs_per_s, "1/s"); ("job_ms_p50", Calc.median lat, "ms") ]
  @ p90
  @ [
      ("alloc_mb_per_job", List.fold_left (fun a j -> a +. j.alloc) 0.0 jobs /. 1e6 /. float_of_int n, "MB");
      ("peak_heap_mb", top_heap, "MB");
      ("code_growth", geo (fun j -> j.growth), "ratio");
      ("insn_overhead", geo (fun j -> j.overhead), "ratio");
      ("setup_s", setup_s, "s");
    ]

(* Named layers: each [_ms]/[_alloc_mb] pair is the time and allocation
   inside that call per job; [emu.run] and [diffexec.compare] are the self
   costs of [Diffexec.execute] and [Diffexec.verify_edit]. *)
let layer_calls =
  [
    "workload.gen"; "sparc.asm"; "sef.to_string"; "sef.load"; "core.open"; "core.cfg";
    "core.emit"; "tools.apply"; "emu.load"; "diffexec.verify"; "serve.run_job";
    "serve.job_key"; "serve.cache_get"; "serve.decode"; "serve.cache_put";
  ]

let layer_counts =
  [
    "core.routines"; "core.blocks"; "core.jumps_analyzed"; "tools.sites"; "tools.edited_bytes";
    "emu.insns"; "equiv.masked_events"; "os.syscalls"; "serve.cache.mem_hits";
    "serve.cache.disk_hits"; "serve.cache.misses"; "serve.cache.stores";
    "serve.cache.store_bytes";
  ]

let per_layer ~untraced_jps ~traced_jps trees =
  let n = float_of_int (max 1 (List.length trees)) in
  let incl = Hashtbl.create 32 and self = Hashtbl.create 32 in
  let add tbl k (ms, mb) =
    let a, b = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl k) in
    Hashtbl.replace tbl k (a +. ms, b +. mb)
  in
  let rec walk (nd : Calc.node) =
    add incl nd.Calc.name (nd.Calc.ms, nd.Calc.mb);
    List.iter walk nd.Calc.children
  in
  List.iter
    (fun t ->
      walk t;
      List.iter (fun (name, ms, mb) -> add self name (ms, mb)) (Calc.self_costs t))
    trees;
  let get tbl k = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl k) in
  let pair name (ms, mb) = [ (name ^ "_ms", ms /. n, "ms/job"); (name ^ "_alloc_mb", mb /. n, "MB/job") ] in
  let run_ms = fst (get self "diffexec.execute") in
  let loads = counter "emu.loads" in
  let per_load k = if loads > 0.0 then counter k /. loads else 0.0 in
  let table =
    Hashtbl.fold (fun k (ms, mb) acc -> (k, ms /. n, mb /. n) :: acc) self []
    |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
  in
  let metrics =
    List.concat_map (fun k -> pair k (get incl k)) layer_calls
    @ pair "emu.run" (get self "diffexec.execute")
    @ pair "diffexec.compare" (get self "diffexec.verify")
    @ List.map (fun k -> (k, counter k /. n, "count/job")) layer_counts
    @ [
        ("emu.mem_mb", per_load "emu.mem_mb", "MB/load");
        ("emu.predecode_words", per_load "emu.predecode_words", "words/load");
        ("emu.mips", (if run_ms > 0.0 then counter "emu.insns" /. run_ms /. 1000.0 else 0.0), "Minsn/s");
        ("unattributed_ms", fst (get self "job") /. n, "ms/job");
        ("trace.jobs_per_s", traced_jps, "1/s");
        ("trace.overhead", untraced_jps /. traced_jps, "ratio");
      ]
  in
  (metrics, table, fst (get incl "job") /. n)

(* Self cost per job of each layer, largest first; a probe-split span's
   self cost is the layer named in the metrics. *)
let print_table workload table job_ms =
  Printf.printf "layer table (%s, traced run, per job; self time excludes nested calls and probes)\n"
    workload;
  Printf.printf "  %-22s %12s %8s %12s\n" "layer" "self ms" "share" "self MB";
  List.iter
    (fun (name, ms, mb) ->
      let name =
        match name with
        | "job" -> "unattributed"
        | "diffexec.execute" -> "emu.run"
        | "diffexec.verify" -> "diffexec.compare"
        | s -> s
      in
      Printf.printf "  %-22s %12.3f %7.1f%% %12.3f\n" name ms
        (if job_ms > 0.0 then 100.0 *. ms /. job_ms else 0.0)
        mb)
    table;
  Printf.printf "  %-22s %12.3f\n" "job (total)" job_ms

(* ---- commands ---- *)

let product_file dir = Filename.concat dir "setup.bin"
let times_file dir = Filename.concat dir "setup_times"

(* [reps] set-ups into [dir]; their mean time is appended to its times
   file. *)
let cmd_setup workload ~seed ~dir ~reps =
  Cache.mkdir_p dir;
  let times =
    List.init reps (fun _ ->
        let t0 = now () in
        let p = setup_once workload ~seed ~dir in
        let dt = now () -. t0 in
        let oc = open_out_bin (product_file dir) in
        Marshal.to_channel oc p [];
        close_out oc;
        dt)
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (times_file dir) in
  Printf.fprintf oc "%.6f\n" (List.fold_left ( +. ) 0.0 times /. float_of_int reps);
  close_out oc

let read_product dir : product =
  let ic = open_in_bin (product_file dir) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic)

let read_times dir =
  let ic = open_in (times_file dir) in
  let rec go acc =
    match input_line ic with
    | l -> go (float_of_string l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* [setup_plan ~first ~seconds] — the set-ups still to run after a first
   one that took [first] seconds, as [(at, reps)] batches: [reps] more
   set-ups once the passes have taken [at] of their [seconds]. *)
let setup_plan ~first ~seconds =
  let total =
    max setup_min_reps (int_of_float (Float.ceil (setup_min_s /. Float.max first 1e-6)))
  in
  let rest = min setup_max_reps total - 1 in
  let b = min rest setup_batches in
  List.init b (fun k ->
      ( float_of_int (k + 1) *. seconds /. float_of_int (b + 1),
        (rest * (k + 1) / b) - (rest * k / b) ))

(* Runs the set-up batches whose time has come, each in a child process so
   that the measured heap stays the passes' own, into [dir]'s "again"
   subdirectory so that the passes' inputs stay as they are. *)
let setup_batcher workload ~seed ~dir plan =
  let plan = ref plan in
  let again = Filename.concat dir "again" in
  let rec between elapsed =
    match !plan with
    | (at, reps) :: rest when elapsed >= at ->
        plan := rest;
        let argv =
          [|
            Sys.executable_name; "setup"; "--workload"; workload; "--seed"; string_of_int seed;
            "--reps"; string_of_int reps; "--dir"; again;
          |]
        in
        flush stdout;
        let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith "a set-up batch failed");
        between elapsed
    | _ -> ()
  in
  let times () =
    let t = if Sys.file_exists again then read_times again else [] in
    rm_rf again;
    t
  in
  (between, times)

let report_jobs workload jobs wall =
  let n = List.length jobs in
  let lat = List.map (fun j -> j.ms) jobs in
  let checks = List.map (fun j -> j.check) jobs in
  Printf.printf "workload %s: %d jobs in %.2f s (closed loop, 1 client, 1 process)\n" workload n wall;
  (match Calc.percentile 90.0 lat with
  | Some p -> Printf.printf "  job_ms_p90 %.3f ms (%d samples)\n" p n
  | None -> Printf.printf "  job_ms_p90 omitted: %d samples, fewer than 100\n" n);
  let emulated = List.fold_left (fun a j -> a + j.emulated) 0 jobs in
  if emulated > 0 then
    Printf.printf "  verified_mips %.3f (dynamic instructions emulated on both sides / job time)\n"
      (float_of_int emulated /. (List.fold_left ( +. ) 0.0 lat *. 1000.0));
  Printf.printf "  failed_share %.4f (%d of %d)\n" (Calc.failed_share checks) (Calc.failed_count checks) n;
  List.iter
    (fun j ->
      if Calc.job_failed j.check then
        Printf.printf "  FAILED job %s: verdict %s, digest %s\n" j.label j.check.Calc.verdict
          (if j.check.Calc.digest_ok then "ok" else "mismatch"))
    jobs

let cmd_measure workload ~seed ~seconds ~trace ~dir =
  Printf.printf "machine: %d domains recommended, %d after the cgroup clamp, OCaml %s\n"
    (Domain.recommended_domain_count ())
    (Eel_util.Pool.recommended_domain_count ())
    Sys.ocaml_version;
  let pass = pass_runner workload dir (read_product dir) in
  let seconds = if trace then seconds /. 2.0 else seconds in
  let first = read_times dir in
  (* set-up time is reported by untraced runs only *)
  let plan = if trace then [] else setup_plan ~first:(List.hd first) ~seconds in
  let between, more_times = setup_batcher workload ~seed ~dir plan in
  let jobs, wall, untraced_jps = run_passes ~between pass ~traced:false ~seconds in
  let samples = first @ more_times () in
  report_jobs workload jobs wall;
  let failed = Calc.failed_count (List.map (fun j -> j.check) jobs) in
  if not trace then (
    let setup_s = Calc.median samples in
    Printf.printf "setup %s: median %.4f s over %d samples\n" workload setup_s (List.length samples);
    let metrics = end_to_end ~setup_s jobs untraced_jps in
    List.iter (fun (k, v, u) -> Printf.printf "  %s %.6g %s\n" k v u) metrics;
    print_result ~correct:(failed = 0) ~attempted:(List.length jobs) ~failed metrics)
  else
    let tjobs, _, traced_jps = run_passes pass ~traced:true ~seconds in
    let tfailed = Calc.failed_count (List.map (fun j -> j.check) tjobs) in
    let metrics, table, job_ms = per_layer ~untraced_jps ~traced_jps (Calc.jobs tracer) in
    print_table workload table job_ms;
    Printf.printf "  tracing overhead: %.2f jobs/s traced against %.2f untraced\n" traced_jps untraced_jps;
    Trace.write_chrome_json tracer (Filename.concat dir "trace.json");
    print_result ~correct:(failed + tfailed = 0)
      ~attempted:(List.length jobs + List.length tjobs) ~failed:(failed + tfailed) metrics

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 and dir = ref "" in
  let reps = ref 1 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--dir", Arg.Set_string dir, "DIR");
      ("--reps", Arg.Set_int reps, "K");
    ]
  in
  Arg.parse_argv ~current:(ref 1) Sys.argv specs (fun _ -> ()) "bench.exe setup|measure [options]";
  if not (List.mem !workload workloads) then (
    prerr_endline ("bench: unknown workload " ^ !workload);
    exit 2);
  if !dir = "" then (
    prerr_endline "bench: --dir is required";
    exit 2);
  match cmd with
  | "setup" -> cmd_setup !workload ~seed:!seed ~dir:!dir ~reps:(max 1 !reps)
  | "measure" -> cmd_measure !workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~dir:!dir
  | c ->
      prerr_endline ("bench: unknown command " ^ c);
      exit 2
