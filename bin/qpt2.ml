(* qpt2 — the EEL-based edge profiler as a command-line tool (paper §5).

   Instruments FILE, writes FILE.count (paper Fig. 1 writes argv[1]
   ".count"), and with --run executes the edited program and prints the
   edge profile. --trace/--metrics expose the instrumentation pipeline's
   phase timeline and the metrics registry (ISSUE 2). *)

open Cmdliner
module Emu = Eel_emu.Emu
module Qpt2 = Eel_tools.Qpt2
module Trace = Eel_obs.Trace
module Metrics = Eel_obs.Metrics

let main path run_it no_fold trace_file metrics =
  let tracer =
    if trace_file <> None || metrics then Some (Trace.create ()) else None
  in
  Trace.set_current tracer;
  let exe = Trace.with_span "load" (fun () -> Eel_sef.Sef.read_file path) in
  let t0 = Unix.gettimeofday () in
  let prof =
    Trace.with_span "instrument" (fun () ->
        Qpt2.instrument ~fold_delay:(not no_fold) Eel_sparc.Mach.mach exe)
  in
  let dt = Unix.gettimeofday () -. t0 in
  let out = path ^ ".count" in
  Eel_sef.Sef.write_file out prof.Qpt2.edited;
  Metrics.set (Metrics.gauge "qpt2.counters") (float_of_int (List.length prof.Qpt2.counters));
  Metrics.set (Metrics.gauge "qpt2.skipped_uneditable")
    (float_of_int prof.Qpt2.skipped_uneditable);
  Printf.printf "instrumented %s -> %s: %d counters, %d uneditable edges skipped (%.3fs)\n"
    path out
    (List.length prof.Qpt2.counters)
    prof.Qpt2.skipped_uneditable dt;
  if run_it then (
    let profile = if metrics then Some (Emu.create_profile ()) else None in
    let res, st =
      Trace.with_span "emulate" (fun () -> Emu.run_exe ?profile prof.Qpt2.edited)
    in
    Option.iter Emu.publish_profile profile;
    if metrics then Emu.publish_machine st;
    print_string res.Emu.out;
    Printf.printf "--- edge profile ---\n";
    List.iter
      (fun ((c : Qpt2.counter), n) ->
        if n > 0 then
          Printf.printf "%-20s block %-4d edge %-4d : %d\n" c.Qpt2.c_routine
            c.Qpt2.c_block c.Qpt2.c_edge n)
      (Qpt2.counts prof st.Emu.mem));
  (match (trace_file, tracer) with
  | Some f, Some tr -> Trace.write_chrome_json tr f
  | _ -> ());
  if metrics then Format.eprintf "%a%!" Metrics.pp ()

let main path run_it no_fold trace_file metrics =
  try main path run_it no_fold trace_file metrics with
  | Eel_robust.Diag.Error e ->
      Printf.eprintf "qpt2: %s\n" (Eel_robust.Diag.error_message e);
      exit 1
  | Emu.Fault m ->
      Printf.eprintf "qpt2: fault: %s\n" m;
      exit 1

let cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run_it = Arg.(value & flag & info [ "run" ] ~doc:"run and print profile") in
  let no_fold =
    Arg.(value & flag & info [ "no-fold" ] ~doc:"disable delay-slot refolding")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"write a Chrome trace_event JSON timeline")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ] ~doc:"print the metrics registry to stderr")
  in
  Cmd.v
    (Cmd.info "qpt2" ~doc:"EEL-based edge profiler")
    Term.(const main $ path $ run_it $ no_fold $ trace_file $ metrics)

let () = exit (Cmd.eval cmd)
