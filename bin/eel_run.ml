(* eel_run — execute a SEF executable in the emulator.

   --rtl runs the program under the spawn-description-driven interpreter
   instead of the handwritten emulator (they must agree; see test_spawn).

   Observability (ISSUE 2): --trace FILE writes a Chrome trace_event JSON
   timeline of the load -> analyze -> emulate phases (view it in
   chrome://tracing or Perfetto); --metrics profiles the emulated program
   (per-block execution counts, instruction-class mix, memory ops) and
   prints the metrics registry to stderr. Either flag enables the front-end
   analysis phase so the CFG spans appear on the timeline.

   OS mode (ISSUE 9): --os installs the lib/os syscall layer (in-memory
   file system + fd table) as the trap handler, so programs using the OS
   ABI window run instead of faulting on an unknown trap. --os-stdin
   seeds the guest's stdin, --os-file NAME=PATH loads a host file into
   the in-memory FS under NAME. The world is rebuilt from these flags on
   every run — nothing persists.

   Exit status: the process exits 0 when emulation completed (whatever
   the guest's own exit code), nonzero only on eel_run's own errors.
   --exit-status instead maps the guest's exit(n) — syscall or trap-halt
   — onto the process exit code, so shell scripts can branch on the
   guest's result. *)

open Cmdliner
module Trace = Eel_obs.Trace
module Metrics = Eel_obs.Metrics
module Emu = Eel_emu.Emu
module Tier2 = Eel_emu.Tier2

let parse_os_file spec =
  match String.index_opt spec '=' with
  | None ->
      Printf.eprintf "eel_run: --os-file expects NAME=PATH, got %S\n" spec;
      exit 2
  | Some i ->
      let name = String.sub spec 0 i in
      let path = String.sub spec (i + 1) (String.length spec - i - 1) in
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let data = really_input_string ic n in
      close_in ic;
      (name, data)

(* Resolve the execution tier. An explicit [--tier] combined with a flag
   that forces per-instruction interpretation is a contradiction and is
   rejected ([Diag] error); the default tier silently degrades — with a
   one-line stderr notice, mirroring the EEL_JOBS=1 notices — because the
   engine itself refuses to run while a hook or profile is armed. *)
let resolve_tier ~tier ~rtl ~itrace ~metrics ~no_predecode =
  let forcer =
    if rtl then Some "--rtl"
    else if itrace then Some "--itrace"
    else if metrics then Some "--metrics"
    else if no_predecode then Some "--no-predecode"
    else None
  in
  match (tier, forcer) with
  | Some Tier2.Block, Some flag ->
      Eel_robust.Diag.exe_error
        "--tier block is incompatible with %s, which forces per-instruction \
         interpretation; drop one of the two"
        flag
  | Some Tier2.Predecode, Some "--no-predecode" ->
      Eel_robust.Diag.exe_error
        "--tier predecode is incompatible with --no-predecode; drop one of \
         the two"
  | Some tr, _ -> tr
  | None, Some "--no-predecode" -> Tier2.Interp
  | None, Some flag ->
      if flag <> "--rtl" then
        Printf.eprintf
          "eel_run: %s forces per-instruction interpretation (tier-2 block \
           engine off)\n"
          flag;
      Tier2.Predecode
  | None, None -> Tier2.Block

let run path rtl itrace trace_file metrics fuel no_predecode os os_stdin
    os_files exit_status tier =
  if rtl && os then begin
    Printf.eprintf "eel_run: --os is not supported under --rtl\n";
    exit 2
  end;
  let tier = resolve_tier ~tier ~rtl ~itrace ~metrics ~no_predecode in
  let observing = trace_file <> None || metrics in
  let tracer = if observing then Some (Trace.create ()) else None in
  Trace.set_current tracer;
  let exe = Trace.with_span "load" (fun () -> Eel_sef.Sef.read_file path) in
  if observing then
    Trace.with_span "analyze" (fun () ->
        (* advisory: a program can be run even when analysis degrades *)
        match Eel.Executable.open_exe Eel_sparc.Mach.mach exe with
        | Ok t -> ignore (Eel.Executable.jump_stats t)
        | Error e ->
            Trace.mark "analyze-failed"
              ~args:[ ("error", Eel_robust.Diag.error_message e) ]);
  let profile = if metrics && not rtl then Some (Emu.create_profile ()) else None in
  let os_state = ref None in
  let engine = ref None in
  let result =
    Trace.with_span "emulate" @@ fun () ->
    if rtl then (
      let el = Eel_spawn.Smach.load_description "descriptions/sparc.spawn" in
      let r, _ = Eel_spawn.Interp.run ~fuel el exe in
      r)
    else
      let hook =
        if itrace then
          Some
            (function
            | Emu.Ev_exec { pc; word } ->
                Printf.eprintf "%08x: %s\n" pc
                  (Eel_sparc.Mach.mach.Eel_arch.Machine.disas ~pc word)
            | _ -> ())
        else None
      in
      let t =
        Trace.with_span "emu.load" (fun () ->
            Emu.load ~predecode:(tier <> Tier2.Interp) exe)
      in
      if metrics then Emu.publish_machine t;
      if tier = Tier2.Block then engine := Tier2.attach t;
      t.Emu.hook <- hook;
      t.Emu.profile <- profile;
      if os then begin
        let spec =
          Eel_os.Spec.make
            ~files:(List.map parse_os_file os_files)
            ~stdin:os_stdin ()
        in
        os_state := Some (Eel_os.Os.install t spec)
      end;
      Trace.with_span "emu.run" (fun () -> Emu.run ~fuel t)
  in
  print_string result.Emu.out;
  Printf.eprintf "[exit=%d insns=%d loads=%d stores=%d]\n" result.Emu.exit_code
    result.Emu.insns result.Emu.loads result.Emu.stores;
  (match !engine with
  | Some st -> Printf.eprintf "[tier2: %s]\n" (Tier2.summary st)
  | None -> ());
  (match !os_state with
  | Some st ->
      Printf.eprintf "[os: syscalls=%d denied=%d]\n" (Eel_os.Os.sys_count st)
        (Eel_os.Os.denied_count st)
  | None -> ());
  Option.iter Emu.publish_profile profile;
  (match (trace_file, tracer) with
  | Some f, Some tr -> Trace.write_chrome_json tr f
  | _ -> ());
  if metrics then Format.eprintf "%a%!" Metrics.pp ();
  exit (if exit_status then result.Emu.exit_code else 0)

let run path rtl itrace trace_file metrics fuel no_predecode os os_stdin
    os_files exit_status tier =
  try
    run path rtl itrace trace_file metrics fuel no_predecode os os_stdin
      os_files exit_status tier
  with
  | Eel_robust.Diag.Error e ->
      Printf.eprintf "eel_run: %s\n" (Eel_robust.Diag.error_message e);
      exit 1
  | Emu.Fault m ->
      Printf.eprintf "eel_run: fault: %s\n" m;
      exit 1
  | Sys_error m ->
      Printf.eprintf "eel_run: %s\n" m;
      exit 1

let cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let rtl =
    Arg.(value & flag & info [ "rtl" ] ~doc:"use the spawn RTL interpreter")
  in
  let itrace =
    Arg.(value & flag & info [ "itrace" ] ~doc:"print each executed instruction")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"write a Chrome trace_event JSON timeline")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ] ~doc:"profile execution and print the metrics registry")
  in
  let fuel =
    Arg.(value & opt int 200_000_000 & info [ "fuel" ] ~doc:"instruction budget")
  in
  let no_predecode =
    Arg.(
      value & flag
      & info [ "no-predecode" ]
          ~doc:"decode every dynamic instruction instead of predecoding the text segment at load")
  in
  let os =
    Arg.(
      value & flag
      & info [ "os" ]
          ~doc:"install the OS syscall layer (in-memory FS, fd table)")
  in
  let os_stdin =
    Arg.(
      value & opt string ""
      & info [ "os-stdin" ] ~docv:"STRING"
          ~doc:"guest stdin contents (OS mode)")
  in
  let os_files =
    Arg.(
      value & opt_all string []
      & info [ "os-file" ] ~docv:"NAME=PATH"
          ~doc:"preload host file PATH as NAME in the in-memory FS (repeatable)")
  in
  let want_exit_status =
    Arg.(
      value & flag
      & info [ "exit-status" ]
          ~doc:"exit with the guest program's exit code instead of 0")
  in
  let tier =
    let tiers =
      List.map (fun tr -> (Tier2.tier_name tr, tr)) Tier2.all_tiers
    in
    Arg.(
      value
      & opt (some (enum tiers)) None
      & info [ "tier" ] ~docv:"TIER"
          ~doc:
            "execution tier: $(b,interp) decodes every instruction, \
             $(b,predecode) dispatches the predecoded text one instruction \
             at a time, $(b,block) (the default) compiles hot basic blocks. \
             Rejected when combined with a flag that forces \
             per-instruction interpretation.")
  in
  Cmd.v
    (Cmd.info "eel_run" ~doc:"run a SEF executable")
    Term.(
      const run $ path $ rtl $ itrace $ trace_file $ metrics $ fuel
      $ no_predecode $ os $ os_stdin $ os_files $ want_exit_status $ tier)

let () = exit (Cmd.eval cmd)
