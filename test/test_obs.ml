(* Tests for the observability layer (ISSUE 2): span nesting and balance
   (including unclosed-span detection), metrics registry semantics and
   histogram bucket edges, Chrome trace_event JSON well-formedness
   (validated by actually parsing it), diagnostics appearing as instant
   events on the active trace, emulator ground-truth profiling on a
   hand-assembled loop, and the eel_objdump --trace flag end to end. *)

module Trace = Eel_obs.Trace
module Metrics = Eel_obs.Metrics
module Json = Eel_obs.Json
module Hotspot = Eel_obs.Hotspot
module Ledger = Eel_obs.Ledger
module Sef = Eel_sef.Sef
module Emu = Eel_emu.Emu
module Diag = Eel_robust.Diag
module Toolbox = Eel_tools.Toolbox

let assemble src =
  match Eel_sparc.Asm.assemble src with
  | Ok e -> e
  | Error m -> Alcotest.failf "assembly failed: %s" m

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let tr = Trace.create () in
  Trace.span tr "outer" (fun () ->
      Trace.span tr "inner-a" (fun () -> ignore (Sys.opaque_identity 1));
      Trace.span tr "inner-b" (fun () -> ignore (Sys.opaque_identity 2)));
  Alcotest.(check int) "span count" 3 (Trace.num_spans tr);
  Alcotest.(check (list string)) "balanced" [] (Trace.unclosed tr);
  let totals = Trace.totals tr in
  let names = List.map (fun (n, _, _) -> n) totals in
  Alcotest.(check (list string))
    "totals names" [ "inner-a"; "inner-b"; "outer" ] names;
  List.iter
    (fun (n, total_us, count) ->
      Alcotest.(check int) (n ^ " count") 1 count;
      if total_us < 0. then Alcotest.failf "%s has negative duration" n)
    totals

let test_span_result_and_exn () =
  let tr = Trace.create () in
  let v = Trace.span tr "compute" (fun () -> 41 + 1) in
  Alcotest.(check int) "value through span" 42 v;
  (* a raising thunk must still close its span *)
  (try Trace.span tr "raiser" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check (list string)) "exception closed span" [] (Trace.unclosed tr)

let test_unclosed_detection () =
  let tr = Trace.create () in
  Trace.enter tr "left-open";
  Trace.enter tr "also-open";
  Trace.exit tr;
  Alcotest.(check (list string)) "unclosed" [ "left-open" ] (Trace.unclosed tr);
  (* sealing must have closed it with a real duration, so export works *)
  match Json.parse (Trace.to_chrome_json tr) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "sealed trace does not export: %s" m

let test_span_raise_unclosed () =
  (* an exception inside a span closes that span but must not paper over a
     hand-opened enter above it — the leak is still flagged, and the sealed
     trace still exports *)
  let tr = Trace.create () in
  Trace.enter tr "outer-open";
  (try Trace.span tr "raiser" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check (list string))
    "raiser closed, enter flagged" [ "outer-open" ] (Trace.unclosed tr);
  match Json.parse (Trace.to_chrome_json tr) with
  | Error m -> Alcotest.failf "trace after raise does not export: %s" m
  | Ok root -> (
      match Json.member "traceEvents" root with
      | Some (Json.Arr evs) ->
          let has name =
            List.exists
              (fun ev -> Json.member "name" ev = Some (Json.Str name))
              evs
          in
          Alcotest.(check bool) "raiser span exported" true (has "raiser");
          Alcotest.(check bool) "open span sealed" true (has "outer-open")
      | _ -> Alcotest.fail "no traceEvents after raise")

let test_unmatched_exit () =
  let tr = Trace.create () in
  Trace.exit tr;
  Alcotest.(check (list string))
    "unmatched exit recorded" [ "<exit without enter>" ] (Trace.unclosed tr)

let test_ambient () =
  (* no ambient tracer: with_span is the identity, mark is a no-op *)
  Trace.set_current None;
  Alcotest.(check int) "no tracer" 7 (Trace.with_span "x" (fun () -> 7));
  Trace.mark "dropped";
  let tr = Trace.create () in
  let v =
    Trace.with_current tr (fun () ->
        Trace.with_span "ambient" (fun () ->
            Trace.mark "ping";
            3))
  in
  Alcotest.(check int) "ambient result" 3 v;
  Alcotest.(check int) "ambient recorded" 1 (Trace.num_spans tr);
  (* with_current restored the previous (absent) tracer *)
  Alcotest.(check bool) "restored" true (Trace.get_current () = None);
  (* a verify job under the ambient tracer: each side's run span has the
     emulator load as a child, so the load layer has a span of its own *)
  let tr = Trace.create () in
  let exe =
    match Eel_sparc.Asm.assemble (List.assoc "fib" Eel_diffexec.Corpus.sources) with
    | Ok e -> e
    | Error m -> Alcotest.failf "asm: %s" m
  in
  (match
     Trace.with_current tr (fun () ->
         Toolbox.measure ~prog:"fib" "qpt2" Eel_sparc.Mach.mach exe)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "measure failed: %s" (Diag.error_message e));
  let rec spans_named name = function
    | Trace.N_instant _ -> []
    | Trace.N_span sp ->
        (if sp.Trace.sp_name = name then [ sp ] else [])
        @ List.concat_map (spans_named name) sp.Trace.sp_children
  in
  List.iter
    (fun side ->
      match spans_named side (Trace.N_span tr.Trace.root) with
      | [] -> Alcotest.failf "no %s span" side
      | sps ->
          List.iter
            (fun sp ->
              Alcotest.(check bool)
                (side ^ " has an emu.load child")
                true
                (List.exists
                   (function
                     | Trace.N_span c -> c.Trace.sp_name = "emu.load"
                     | Trace.N_instant _ -> false)
                   sp.Trace.sp_children))
            sps)
    [ "equiv.run.original"; "equiv.run.edited" ]

(* ------------------------------------------------------------------ *)
(* Chrome JSON                                                         *)
(* ------------------------------------------------------------------ *)

let events_of tr =
  match Json.parse (Trace.to_chrome_json tr) with
  | Error m -> Alcotest.failf "trace is not valid JSON: %s" m
  | Ok root -> (
      match Json.member "traceEvents" root with
      | Some (Json.Arr evs) -> evs
      | _ -> Alcotest.fail "no traceEvents array")

let test_chrome_json () =
  let tr = Trace.create () in
  Trace.span tr "phase \"quoted\"\n" ~args:[ ("k", "v\\w") ] (fun () ->
      Trace.instant tr "tick" ~args:[ ("n", "1") ]);
  let evs = events_of tr in
  Alcotest.(check int) "event count" 2 (List.length evs);
  let phases =
    List.map
      (fun ev ->
        match Json.member "ph" ev with
        | Some (Json.Str s) -> s
        | _ -> Alcotest.fail "event without ph")
      evs
  in
  Alcotest.(check (list string)) "phases" [ "X"; "i" ] phases;
  List.iter
    (fun ev ->
      (match Json.member "ts" ev with
      | Some (Json.Num ts) when ts >= 0. -> ()
      | _ -> Alcotest.fail "bad ts");
      match (Json.member "ph" ev, Json.member "dur" ev) with
      | Some (Json.Str "X"), Some (Json.Num d) when d >= 0. -> ()
      | Some (Json.Str "X"), _ -> Alcotest.fail "X event without dur"
      | _ -> ())
    evs;
  (* the escaped name round-trips through the parser *)
  match Json.member "name" (List.hd evs) with
  | Some (Json.Str s) -> Alcotest.(check string) "escaping" "phase \"quoted\"\n" s
  | _ -> Alcotest.fail "no name"

let test_diag_instants () =
  let tr = Trace.create () in
  Trace.with_current tr (fun () ->
      Trace.with_span "validate" (fun () ->
          let sink = Diag.create () in
          Diag.emit sink Diag.Warn ~source:"test" ~loc:(Diag.at_addr 0x40)
            "suspicious %s" "thing"));
  let warn =
    List.filter
      (fun ev -> Json.member "name" ev = Some (Json.Str "diag:warning"))
      (events_of tr)
  in
  Alcotest.(check int) "one diag instant" 1 (List.length warn);
  match Json.member "args" (List.hd warn) with
  | Some (Json.Obj args) ->
      Alcotest.(check bool)
        "message attached" true
        (List.assoc_opt "message" args = Some (Json.Str "suspicious thing"))
  | _ -> Alcotest.fail "diag instant without args"

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counters_gauges () =
  Metrics.clear ();
  let c = Metrics.counter "t.count" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check bool) "counter" true (Metrics.find "t.count" = Some (Metrics.Int 5));
  (* registration is idempotent: same ref comes back *)
  Metrics.incr (Metrics.counter "t.count");
  Alcotest.(check bool) "idempotent" true (Metrics.find "t.count" = Some (Metrics.Int 6));
  (* kind mismatch is an error *)
  (match Metrics.gauge "t.count" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted");
  Metrics.gauge_fn "t.live" (fun () -> 2.5);
  Alcotest.(check bool) "gauge_fn" true (Metrics.find "t.live" = Some (Metrics.Float 2.5));
  Metrics.reset ();
  Alcotest.(check bool) "reset counter" true (Metrics.find "t.count" = Some (Metrics.Int 0));
  Alcotest.(check bool) "gauge_fn survives reset" true
    (Metrics.find "t.live" = Some (Metrics.Float 2.5));
  Metrics.clear ()

let test_histogram_edges () =
  Metrics.clear ();
  let h = Metrics.histogram ~edges:[| 1.; 2.; 5. |] "t.hist" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 2.1; 5.0; 7.0 ];
  (match Metrics.find "t.hist" with
  | Some (Metrics.Hist { counts; n; sum; _ }) ->
      (* bucket semantics: first edge >= v; edge values land inclusively *)
      Alcotest.(check (array int)) "bucket counts" [| 2; 2; 2; 1 |] counts;
      Alcotest.(check int) "n" 7 n;
      Alcotest.(check (float 1e-9)) "sum" 19.1 sum
  | _ -> Alcotest.fail "histogram not found");
  (match Metrics.histogram ~edges:[| 2.; 1. |] "t.bad" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsorted edges accepted");
  (* the JSON rendering of the whole registry parses *)
  (match Json.parse (Metrics.to_json ()) with
  | Ok (Json.Obj kvs) ->
      Alcotest.(check bool) "hist in json" true (List.mem_assoc "t.hist" kvs)
  | Ok _ -> Alcotest.fail "metrics json is not an object"
  | Error m -> Alcotest.failf "metrics json invalid: %s" m);
  Metrics.clear ()

(* ------------------------------------------------------------------ *)
(* Emulator ground-truth profiling                                     *)
(* ------------------------------------------------------------------ *)

(* A hand-assembled counted loop: the body executes exactly 5 times, the
   loop-head block is re-entered via the taken branch exactly 4 times.
   (The label must not start with 'L': local labels never reach the
   symbol table.) *)
let loop_src =
  {|
main:   mov 5, %l0
top:    subcc %l0, 1, %l0
        bne top
        nop
        mov 0, %o0
        ta 1
        nop
|}

let find_sym exe name =
  match
    List.find_opt (fun (s : Sef.symbol) -> s.Sef.sym_name = name) exe.Sef.symbols
  with
  | Some s -> s.Sef.value
  | None -> Alcotest.failf "symbol %s not found" name

let test_emu_block_counts () =
  let exe = assemble loop_src in
  let top = find_sym exe "top" in
  let main = find_sym exe "main" in
  let p = Emu.create_profile () in
  let r, _ = Emu.run_exe ~profile:p exe in
  Alcotest.(check int) "exit" 0 r.Emu.exit_code;
  (* every executed instruction is profiled *)
  Alcotest.(check int) "fuel consumed" r.Emu.insns p.Emu.p_insns;
  (* loop head executed once per iteration *)
  Alcotest.(check int) "top executions" 5 (Emu.pc_count p top);
  (* ... but entered as a block only via the 4 taken back edges *)
  Alcotest.(check int) "top block entries" 4 (Emu.block_count p top);
  (* program start is a block entry *)
  Alcotest.(check int) "entry block" 1 (Emu.block_count p main);
  (* dynamic class mix: bne x5 = branch; mov + subcc x5 + mov = alu;
     the delay-slot nop (sethi 0, %g0) x5 = sethi; ta 1 = trap *)
  let mix = Emu.class_mix p in
  Alcotest.(check int) "branch mix" 5 (List.assoc "branch" mix);
  Alcotest.(check int) "trap mix" 1 (List.assoc "trap" mix);
  Alcotest.(check int) "alu mix" 7 (List.assoc "alu" mix);
  Alcotest.(check int) "sethi mix" 5 (List.assoc "sethi" mix);
  (* publishing surfaces the same numbers in the registry *)
  Metrics.clear ();
  Emu.publish_profile p;
  Alcotest.(check bool) "emu.insns metric" true
    (Metrics.find "emu.insns" = Some (Metrics.Float (float_of_int r.Emu.insns)));
  Metrics.clear ()

(* ------------------------------------------------------------------ *)
(* Hotspot attribution                                                 *)
(* ------------------------------------------------------------------ *)

let test_hotspot_routines () =
  let h = Hotspot.create ~classes:[| "alu"; "load" |] () in
  Hotspot.add h ~stack:[ "main" ] ~classes:[| 3; 2 |] ~self:5 ();
  Hotspot.add h ~stack:[ "main"; "fib" ] ~self:5 ();
  Hotspot.add h ~stack:[ "main"; "fib"; "fib" ] ~self:12 ();
  Alcotest.(check int) "grand total" 22 (Hotspot.total h);
  let find name =
    match
      List.find_opt (fun r -> r.Hotspot.rs_name = name) (Hotspot.routines h)
    with
    | Some r -> r
    | None -> Alcotest.failf "routine %s not attributed" name
  in
  let main = find "main" and fib = find "fib" in
  Alcotest.(check int) "main self" 5 main.Hotspot.rs_self;
  Alcotest.(check int) "main total" 22 main.Hotspot.rs_total;
  Alcotest.(check int) "fib self" 17 fib.Hotspot.rs_self;
  (* recursion: fib-under-fib counts toward fib's total exactly once *)
  Alcotest.(check int) "fib total (recursion once)" 17 fib.Hotspot.rs_total;
  Alcotest.(check (array int)) "main class mix" [| 3; 2 |] main.Hotspot.rs_classes;
  Alcotest.(check string) "collapsed stacks"
    "main 5\nmain;fib 5\nmain;fib;fib 12\n" (Hotspot.collapsed h)

let test_hotspot_merge_and_export () =
  let h = Hotspot.create () in
  Hotspot.add h ~stack:[ "a"; "b" ] ~self:7 ();
  let other = Hotspot.create () in
  (* frame names with separators must be sanitized, not corrupt the file *)
  Hotspot.add other ~stack:[ "a"; "b" ] ~self:2 ();
  Hotspot.add other ~stack:[ "frame;with space" ] ~self:1 ();
  Hotspot.merge ~into:h other;
  Alcotest.(check int) "merged total" 10 (Hotspot.total h);
  Alcotest.(check string) "merged collapsed" "a;b 9\nframe_with_space 1\n"
    (Hotspot.collapsed h);
  match Json.parse (Hotspot.speedscope_json h) with
  | Error m -> Alcotest.failf "speedscope export is not JSON: %s" m
  | Ok root -> (
      (match Json.member "$schema" root with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.fail "speedscope export without $schema");
      match Json.member "profiles" root with
      | Some (Json.Arr [ prof ]) -> (
          match Json.member "endValue" prof with
          | Some (Json.Num ev) ->
              Alcotest.(check int) "endValue = total" 10 (int_of_float ev)
          | _ -> Alcotest.fail "profile without endValue")
      | _ -> Alcotest.fail "expected exactly one profile")

(* A two-call program: every dynamic instruction must land in a named
   calling context, and returns must unwind back to the caller so main's
   inclusive total covers the whole run. *)
let call_src =
  {|
main:   call sub
        nop
        call sub
        nop
        mov 0, %o0
        ta 1
        nop
sub:    retl
        nop
|}

let test_emu_cct () =
  let exe = assemble call_src in
  let sub = find_sym exe "sub" in
  let p = Emu.create_profile () in
  let r, _ = Emu.run_exe ~profile:p exe in
  Alcotest.(check int) "exit" 0 r.Emu.exit_code;
  let name_of pc =
    if pc = sub then "sub" else Printf.sprintf "0x%x" pc
  in
  let h = Emu.profile_hotspot ~name_of ~root:"main" p in
  (* every executed instruction is attributed to some context *)
  Alcotest.(check int) "attributed = executed" r.Emu.insns (Hotspot.total h);
  let find name =
    match
      List.find_opt (fun s -> s.Hotspot.rs_name = name) (Hotspot.routines h)
    with
    | Some s -> s
    | None -> Alcotest.failf "routine %s not in hotspot" name
  in
  let main = find "main" and subr = find "sub" in
  (* main: call,nop x2 + mov + ta = 6 self; everything inclusive *)
  Alcotest.(check int) "main self" 6 main.Hotspot.rs_self;
  Alcotest.(check int) "main total" r.Emu.insns main.Hotspot.rs_total;
  (* sub: retl + delay nop, entered twice *)
  Alcotest.(check int) "sub self" 4 subr.Hotspot.rs_self;
  Alcotest.(check int) "sub total" 4 subr.Hotspot.rs_total;
  (* the collapsed view shows the return actually unwound: sub never
     appears stacked under itself *)
  Alcotest.(check string) "collapsed" "main 6\nmain;sub 4\n"
    (Hotspot.collapsed h)

(* ------------------------------------------------------------------ *)
(* Overhead ledger                                                     *)
(* ------------------------------------------------------------------ *)

let sample_entry =
  {
    Ledger.le_tool = "qpt2";
    le_prog = "fib";
    le_verdict = "equivalent";
    le_sites = 3;
    le_bytes_orig = 100;
    le_bytes_edited = 160;
    le_routines_touched = 2;
    le_insns_orig = 50;
    le_insns_edited = 80;
    le_mem_orig = 10;
    le_mem_edited = 14;
    le_stores_masked = 4;
    le_traps_masked = 1;
    le_sys_masked = 0;
    le_unexplained = 0;
  }

let test_ledger_record () =
  Metrics.clear ();
  Ledger.reset ();
  Ledger.record sample_entry;
  Alcotest.(check int) "one entry" 1 (List.length (Ledger.entries ()));
  let e = List.hd (Ledger.entries ()) in
  Alcotest.(check int) "bytes added" 60 (Ledger.bytes_added e);
  Alcotest.(check int) "extra insns" 30 (Ledger.extra_insns e);
  Alcotest.(check int) "extra mem" 4 (Ledger.extra_mem e);
  Alcotest.(check int) "masked" 5 (Ledger.masked e);
  Alcotest.(check (float 1e-9)) "expansion" 1.6 (Ledger.expansion e);
  Alcotest.(check bool) "counter published" true
    (Metrics.find "eel.ledger.qpt2.bytes_added" = Some (Metrics.Int 60));
  (* re-recording the same (tool, prog) replaces, never duplicates *)
  Ledger.record { sample_entry with Ledger.le_sites = 5 };
  (match Ledger.entries () with
  | [ e ] -> Alcotest.(check int) "replaced sites" 5 e.Ledger.le_sites
  | es -> Alcotest.failf "expected 1 entry after replace, got %d" (List.length es));
  (* the JSON rendering parses *)
  (match Json.parse (Ledger.to_json (Ledger.entries ())) with
  | Ok (Json.Arr [ _ ]) -> ()
  | Ok _ -> Alcotest.fail "ledger json shape"
  | Error m -> Alcotest.failf "ledger json invalid: %s" m);
  Ledger.reset ();
  Metrics.clear ()

let test_measure_cross_check () =
  Metrics.clear ();
  Ledger.reset ();
  let exe = assemble (List.assoc "fib" Eel_diffexec.Corpus.sources) in
  (match Toolbox.measure ~prog:"fib" "qpt2" Eel_sparc.Mach.mach exe with
  | Error e -> Alcotest.failf "measure failed: %s" (Diag.error_message e)
  | Ok ms ->
      let e = ms.Toolbox.ms_entry in
      Alcotest.(check string) "verdict" "equivalent" e.Ledger.le_verdict;
      Alcotest.(check string) "program" "fib" e.Ledger.le_prog;
      (* the zero-unexplained identity: every extra dynamic store the
         edited binary executed is accounted for by a masked event *)
      Alcotest.(check int) "unexplained overhead" 0 e.Ledger.le_unexplained;
      Alcotest.(check bool) "sites placed" true (e.Ledger.le_sites > 0);
      Alcotest.(check bool) "image grew" true (Ledger.bytes_added e > 0);
      Alcotest.(check bool) "run grew" true (Ledger.extra_insns e > 0);
      Alcotest.(check bool) "profiling stores masked" true
        (e.Ledger.le_stores_masked > 0);
      Alcotest.(check bool) "routines touched" true
        (e.Ledger.le_routines_touched > 0);
      (* measure recorded the entry in the ambient ledger *)
      Alcotest.(check int) "ledger entry recorded" 1
        (List.length (Ledger.entries ())));
  Ledger.reset ();
  Metrics.clear ()

(* ------------------------------------------------------------------ *)
(* trace_check on hotspot exports                                      *)
(* ------------------------------------------------------------------ *)

let bin name =
  Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ name)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_trace_check_exports () =
  let h = Hotspot.create () in
  Hotspot.add h ~stack:[ "a"; "b" ] ~self:7 ();
  Hotspot.add h ~stack:[ "a" ] ~self:3 ();
  let flame = Filename.temp_file "eel_obs" ".flame" in
  let scope = Filename.temp_file "eel_obs" ".speedscope.json" in
  write_file flame (Hotspot.collapsed h);
  write_file scope (Hotspot.speedscope_json h);
  let run args =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2>&1"
         (Filename.quote (bin "trace_check.exe"))
         args)
  in
  Alcotest.(check int) "both formats validate with the right total" 0
    (run
       (Printf.sprintf "--total 10 %s %s" (Filename.quote flame)
          (Filename.quote scope)));
  Alcotest.(check int) "wrong total rejected (collapsed)" 1
    (run (Printf.sprintf "--total 11 %s" (Filename.quote flame)));
  Alcotest.(check int) "wrong total rejected (speedscope)" 1
    (run (Printf.sprintf "--total 11 %s" (Filename.quote scope)));
  (* a truncated export must not validate *)
  write_file flame "a;b notanumber\n";
  Alcotest.(check int) "malformed collapsed rejected" 1
    (run (Filename.quote flame));
  Sys.remove flame;
  Sys.remove scope

(* ------------------------------------------------------------------ *)
(* perf-regression gate                                                *)
(* ------------------------------------------------------------------ *)

let test_perf_gate () =
  let regress =
    Filename.concat (Filename.dirname Sys.executable_name)
      "../bench/regress.exe"
  in
  let base = Filename.temp_file "eel_perf" ".json" in
  let hist = Filename.temp_file "eel_perf" ".jsonl" in
  let run env args =
    Sys.command
      (Printf.sprintf
         "EEL_PERF_BUDGET=smoke EEL_PERF_HISTORY=%s %s %s %s > /dev/null 2>&1"
         (Filename.quote hist) env
         (Filename.quote regress)
         args)
  in
  Alcotest.(check int) "baseline written" 0
    (run "" (Printf.sprintf "--write-baseline %s" (Filename.quote base)));
  (* unchanged tree: same-machine remeasure stays inside the tolerance *)
  Alcotest.(check int) "gate passes on unchanged tree" 0
    (run
       (Printf.sprintf "EEL_PERF_BASELINE=%s EEL_REGRESS_TOL=0.18"
          (Filename.quote base))
       "");
  (* a seeded 26% throughput regression must fail the default 12% gate *)
  Alcotest.(check int) "gate fails on seeded regression" 1
    (run
       (Printf.sprintf "EEL_PERF_BASELINE=%s EEL_PERF_HANDICAP=1.35"
          (Filename.quote base))
       "");
  (* every run appended one trajectory-history line *)
  let ic = open_in hist in
  let lines = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr lines
     done
   with End_of_file -> ());
  close_in ic;
  Alcotest.(check int) "history lines" 2 !lines;
  Sys.remove base;
  Sys.remove hist

(* The gate's decision on synthetic measurement records: no timing, so
   these hold on any machine under any load. *)
module Gate = Eel_perfgate.Gate

let gate_base ?(block = Some 4.0) ?(points = []) () =
  {
    Gate.b_cores = 2;
    b_speedup = 2.5;
    b_speedup_block = block;
    b_mips_on = 40.0;
    b_points = points;
  }

let gate_fresh ?(speedup = 2.5) ?(block = 4.0) ?(mips = 40.0)
    ?(scaling = Either.Left "baseline has no sweep points") () =
  {
    Gate.f_speedup = speedup;
    f_speedup_block = block;
    f_mips_on = mips;
    f_scaling = scaling;
  }

let gate_status checks name =
  match List.find_opt (fun c -> c.Gate.c_name = name) checks with
  | Some c -> Gate.status_name c.Gate.c_status
  | None -> Alcotest.failf "no check %S" name

let test_gate_decision () =
  let tol = 0.12 in
  let decide base fresh = Gate.decide ~tol base fresh in
  (* pass: the fresh point matches the baseline, or trails it inside the
     tolerance *)
  Alcotest.(check (list string)) "unchanged passes" []
    (Gate.failures (decide (gate_base ()) (gate_fresh ())));
  Alcotest.(check (list string)) "10% drop passes" []
    (Gate.failures
       (decide (gate_base ()) (gate_fresh ~speedup:2.25 ~block:3.6 ())));
  (* the seeded regression: EEL_PERF_HANDICAP=1.35 stretches predecode
     time, a 26% drop in its speedup, which the 12% gate must catch *)
  Alcotest.(check (list string)) "seeded 26% regression fails"
    [ "throughput speedup vs baseline" ]
    (Gate.failures (decide (gate_base ()) (gate_fresh ~speedup:(2.5 /. 1.35) ())));
  Alcotest.(check (list string)) "floors are absolute"
    [ "predecode not slower than decode"; "throughput speedup vs baseline";
      "tier-2 not slower than predecode"; "tier-2 speedup vs baseline" ]
    (Gate.failures (decide (gate_base ()) (gate_fresh ~speedup:0.9 ~block:0.9 ())));
  (* halved MIPS only warns: absolute throughput is machine-dependent *)
  let slow = decide (gate_base ()) (gate_fresh ~mips:10.0 ()) in
  Alcotest.(check string) "MIPS warns" "WARN" (gate_status slow "absolute MIPS");
  Alcotest.(check (list string)) "MIPS never fails" [] (Gate.failures slow);
  (* a pre-tier-2 baseline, as parsed from the file: the block check is
     skipped, never failed *)
  let pre =
    Gate.parse_baseline
      {|{"cores": 1, "throughput": {"speedup": 2.0, "predecode_on": {"mips": 30.0}}}|}
  in
  Alcotest.(check bool) "no block speedup" true (pre.Gate.b_speedup_block = None);
  let d = decide pre (gate_fresh ~speedup:2.0 ~block:0.5 ()) in
  Alcotest.(check string) "block vs baseline skipped" "SKIP"
    (gate_status d "tier-2 speedup vs baseline");
  Alcotest.(check (list string)) "only the 1.0 floor applies"
    [ "tier-2 not slower than predecode" ] (Gate.failures d);
  (* contended sweep points: measured with more domains than cores, so
     scaling is skipped, and such points are never re-measured *)
  let pt jobs speedup contended =
    { Gate.bp_jobs = jobs; bp_speedup = speedup; bp_contended = contended }
  in
  let contended = gate_base ~points:[ pt 1 1.0 false; pt 4 0.6 true ] () in
  Alcotest.(check (option string)) "contended baseline skips scaling"
    (Some "baseline sweep points tagged contended")
    (Gate.scaling_skip ~env_skip:false ~cores:2 contended);
  Alcotest.(check (list int)) "contended point not re-measured" [ 1 ]
    (Gate.scaling_jobs ~cores:8 contended);
  let clean = gate_base ~points:[ pt 1 1.0 false; pt 2 1.8 false ] () in
  Alcotest.(check (option string)) "1-core run skips scaling"
    (Some "1-core run: sweep measures GC-handshake contention, not scaling")
    (Gate.scaling_skip ~env_skip:false ~cores:1 clean);
  Alcotest.(check (option string)) "uncontended baseline scales" None
    (Gate.scaling_skip ~env_skip:false ~cores:2 clean);
  Alcotest.(check (list string)) "scaling 25% under the baseline fails"
    [ "scaling speedup at 2 domains" ]
    (Gate.failures
       (decide clean (gate_fresh ~scaling:(Either.Right [ (1, 1.0); (2, 1.3) ]) ())))

(* ------------------------------------------------------------------ *)
(* eel_objdump --trace, end to end                                     *)
(* ------------------------------------------------------------------ *)

let test_objdump_trace () =
  let exe =
    Eel_workload.Gen.assemble_program
      { Eel_workload.Gen.default with seed = 5; routines = 6 }
  in
  let dir = Filename.temp_file "eel_obs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sef = Filename.concat dir "w.sef" in
  let trace = Filename.concat dir "t.json" in
  Sef.write_file sef exe;
  (* locate the tool next to this test binary so the test is cwd-agnostic
     (dune runtest runs in _build/default/test, dune exec in the root) *)
  let objdump =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/eel_objdump.exe"
  in
  let cmd =
    Printf.sprintf "%s --trace %s %s > /dev/null" (Filename.quote objdump)
      (Filename.quote trace) (Filename.quote sef)
  in
  Alcotest.(check int) "objdump exit" 0 (Sys.command cmd);
  let ic = open_in_bin trace in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Json.parse src with
  | Error m -> Alcotest.failf "--trace output is not JSON: %s" m
  | Ok root -> (
      match Json.member "traceEvents" root with
      | Some (Json.Arr evs) ->
          let has name =
            List.exists (fun ev -> Json.member "name" ev = Some (Json.Str name)) evs
          in
          Alcotest.(check bool) "load span" true (has "load");
          Alcotest.(check bool) "cfg spans" true (has "cfg.build");
          Alcotest.(check bool) "analyze span" true (has "analyze")
      | _ -> Alcotest.fail "no traceEvents"));
  Sys.remove trace;
  Sys.remove sef;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting and totals" `Quick test_span_nesting;
          Alcotest.test_case "result and exception paths" `Quick test_span_result_and_exn;
          Alcotest.test_case "raise under open enter" `Quick test_span_raise_unclosed;
          Alcotest.test_case "unclosed-span detection" `Quick test_unclosed_detection;
          Alcotest.test_case "unmatched exit" `Quick test_unmatched_exit;
          Alcotest.test_case "ambient tracer" `Quick test_ambient;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome JSON well-formed" `Quick test_chrome_json;
          Alcotest.test_case "diagnostics as instants" `Quick test_diag_instants;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counters_gauges;
          Alcotest.test_case "histogram bucket edges" `Quick test_histogram_edges;
        ] );
      ( "emu-profile",
        [
          Alcotest.test_case "loop block counts" `Quick test_emu_block_counts;
          Alcotest.test_case "calling-context attribution" `Quick test_emu_cct;
        ] );
      ( "hotspot",
        [
          Alcotest.test_case "routines and recursion" `Quick test_hotspot_routines;
          Alcotest.test_case "merge and speedscope export" `Quick
            test_hotspot_merge_and_export;
          Alcotest.test_case "trace_check validates exports" `Quick
            test_trace_check_exports;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "record and render" `Quick test_ledger_record;
          Alcotest.test_case "measure cross-check" `Quick test_measure_cross_check;
        ] );
      ( "perf-gate",
        [
          Alcotest.test_case "pass, seeded regression, history" `Quick
            test_perf_gate;
          Alcotest.test_case "decision on synthetic records" `Quick
            test_gate_decision;
        ] );
      ( "tools",
        [
          Alcotest.test_case "eel_objdump --trace" `Quick test_objdump_trace;
        ] );
    ]
