(* Tests for the OS layer (ISSUE 9): the syscall ABI and its error
   conventions, the in-memory file system and fd table, the dispatcher's
   observable surface, policy interposition, the OS-mode workload
   generator, and the full corpus x toolbox equivalence sweep — plus the
   adversarial directions the acceptance criteria name: an undeclared
   denial must be a contract violation, and a dropped or reordered write
   must diverge. *)

module Sef = Eel_sef.Sef
module Emu = Eel_emu.Emu
module Diag = Eel_robust.Diag
module Dx = Eel_diffexec.Diffexec
module Corpus = Eel_diffexec.Corpus
module Contract = Eel_equiv.Contract
module Toolbox = Eel_tools.Toolbox
module Fault = Eel_mutate.Fault
module Gen = Eel_workload.Gen
module Abi = Eel_os.Abi
module Fs = Eel_os.Fs
module Fdtab = Eel_os.Fdtab
module Policy = Eel_os.Policy
module Spec = Eel_os.Spec
module Os = Eel_os.Os
open Eel_sparc

let mach = Mach.mach

let assemble src =
  match Asm.assemble src with
  | Ok exe -> exe
  | Error m -> Alcotest.failf "assembly failed: %s" m

let execute_ok ?fuel ?os exe =
  match Dx.execute ?fuel ?os exe with
  | Ok r -> r
  | Error e -> Alcotest.failf "execute: %s" (Diag.error_message e)

let exit_code r =
  match r.Dx.r_stop with
  | Dx.S_exit c -> c
  | s -> Alcotest.failf "expected exit, got %s" (Format.asprintf "%a" Dx.pp_stop s)

(* ------------------------------------------------------------------ *)
(* ABI                                                                 *)
(* ------------------------------------------------------------------ *)

let test_abi_window () =
  Alcotest.(check (option int))
    "below the window" None
    (Abi.num_of_trap_imm (Abi.trap_base - 1));
  Alcotest.(check (option int))
    "at the limit" None
    (Abi.num_of_trap_imm Abi.trap_limit);
  Alcotest.(check (option int))
    "exit" (Some Abi.sys_exit)
    (Abi.num_of_trap_imm (Abi.trap_imm Abi.sys_exit));
  (* the builtin debug traps (ta 1..7) stay outside the window *)
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (Printf.sprintf "builtin ta %d not captured" n)
        None (Abi.num_of_trap_imm n))
    [ 1; 2; 3; 4; 5; 7 ]

let test_abi_names () =
  let name imm = Abi.name_of_trap_imm imm in
  Alcotest.(check (option string)) "exit" (Some "exit") (name 17);
  Alcotest.(check (option string)) "read" (Some "read") (name 19);
  Alcotest.(check (option string)) "write" (Some "write") (name 20);
  Alcotest.(check (option string)) "open" (Some "open") (name 21);
  Alcotest.(check (option string)) "close" (Some "close") (name 22);
  Alcotest.(check (option string)) "brk" (Some "brk") (name 33);
  Alcotest.(check (option string)) "unassigned in-window" None (name 18);
  Alcotest.(check (option string)) "outside window" None (name 4)

(* the workload generator keeps literal trap immediates (to stay free of
   an eel_os dependency); this pin is the promise made in gen.ml that
   they mirror the ABI table *)
let test_gen_mirrors_abi () =
  Alcotest.(check int) "ta_exit" (Abi.trap_imm Abi.sys_exit) Gen.ta_exit;
  Alcotest.(check int) "ta_read" (Abi.trap_imm Abi.sys_read) Gen.ta_read;
  Alcotest.(check int) "ta_write" (Abi.trap_imm Abi.sys_write) Gen.ta_write;
  Alcotest.(check int) "ta_open" (Abi.trap_imm Abi.sys_open) Gen.ta_open;
  Alcotest.(check int) "ta_close" (Abi.trap_imm Abi.sys_close) Gen.ta_close

(* ------------------------------------------------------------------ *)
(* file system + fd table                                              *)
(* ------------------------------------------------------------------ *)

let test_fs_semantics () =
  let fs = Fs.create [ ("a.txt", "hello") ] in
  (match Fs.lookup fs "a.txt" with
  | None -> Alcotest.fail "a.txt missing"
  | Some f ->
      Alcotest.(check string) "read all" "hello" (Fs.read f ~pos:0 ~len:99);
      Alcotest.(check string) "read middle" "ell" (Fs.read f ~pos:1 ~len:3);
      Alcotest.(check string) "read at EOF" "" (Fs.read f ~pos:5 ~len:4);
      Fs.write f ~pos:5 " world";
      Alcotest.(check string) "grown" "hello world" (Fs.contents f);
      (* sparse write zero-fills the gap *)
      Fs.write f ~pos:13 "x";
      Alcotest.(check string) "gap zero-filled" "hello world\000\000x"
        (Fs.contents f));
  Alcotest.(check bool) "absent name" true (Fs.lookup fs "b.txt" = None);
  (* open-for-write truncates *)
  let f2 = Fs.create_file fs "a.txt" in
  Alcotest.(check string) "truncated" "" (Fs.contents f2);
  (* per-run snapshot: a second create from the same spec list is fresh *)
  let fs2 = Fs.create [ ("a.txt", "hello") ] in
  match Fs.lookup fs2 "a.txt" with
  | Some f -> Alcotest.(check string) "snapshot reset" "hello" (Fs.contents f)
  | None -> Alcotest.fail "a.txt missing after reset"

let test_fdtab () =
  let t = Fdtab.create ~stdin:"abc" in
  Alcotest.(check bool) "fd 0 pre-opened" true (Fdtab.get t 0 <> None);
  Alcotest.(check bool) "fd 1 pre-opened" true (Fdtab.get t 1 <> None);
  Alcotest.(check bool) "fd 2 pre-opened" true (Fdtab.get t 2 <> None);
  Alcotest.(check bool) "fd 3 free" true (Fdtab.get t 3 = None);
  Alcotest.(check (option int)) "alloc lowest" (Some 3)
    (Fdtab.alloc t Fdtab.Fd_out);
  Alcotest.(check (option int)) "alloc next" (Some 4)
    (Fdtab.alloc t Fdtab.Fd_out);
  Alcotest.(check bool) "close" true (Fdtab.close t 3);
  Alcotest.(check bool) "double close" false (Fdtab.close t 3);
  Alcotest.(check (option int)) "alloc reuses lowest" (Some 3)
    (Fdtab.alloc t Fdtab.Fd_out);
  (* fill to max_fd, then EMFILE territory *)
  let rec fill () =
    match Fdtab.alloc t Fdtab.Fd_out with Some _ -> fill () | None -> ()
  in
  fill ();
  Alcotest.(check (option int)) "table full" None (Fdtab.alloc t Fdtab.Fd_out)

let test_policy () =
  Alcotest.(check bool) "allow-all never denies" false
    (Policy.denies Policy.Allow_all Abi.sys_write 7);
  let p = Policy.Deny_write_fd_above 2 in
  Alcotest.(check bool) "write fd 3 denied" true (Policy.denies p Abi.sys_write 3);
  Alcotest.(check bool) "write fd 1 allowed" false
    (Policy.denies p Abi.sys_write 1);
  Alcotest.(check bool) "read fd 3 allowed" false
    (Policy.denies p Abi.sys_read 3)

(* ------------------------------------------------------------------ *)
(* dispatcher behaviour through assembled programs                     *)
(* ------------------------------------------------------------------ *)

(* exit(n) via the OS window *)
let test_dispatch_exit () =
  let exe = assemble "        mov 42, %o0\n        ta 17\n        nop\n" in
  let r = execute_ok ~os:Spec.empty exe in
  Alcotest.(check int) "exit code" 42 (exit_code r);
  (* the syscall surfaced as an observable event *)
  let sys =
    Array.to_list r.Dx.r_events
    |> List.filter_map (function
         | Emu.Ob_syscall { num; ret; err; _ } -> Some (num, ret, err)
         | _ -> None)
  in
  Alcotest.(check (list (triple int int bool)))
    "one exit syscall" [ (Abi.sys_exit, 42, false) ] sys

(* brk: grow the data segment, reread the break; shrink requests and
   absurd values are ignored (the break never moves backwards) *)
let test_dispatch_brk () =
  let src =
    "        ta 5\n" (* builtin brk trap: current break -> %o0 *)
    ^ "        add %o0, 64, %l0\n"
    ^ "        mov %l0, %o0\n"
    ^ "        ta 33\n" (* sys_brk(cur+64) *)
    ^ "        cmp %o0, %l0\n"
    ^ "        bne Lbad\n"
    ^ "        nop\n"
    ^ "        mov 1, %o0\n"
    ^ "        ta 33\n" (* sys_brk(1): shrink ignored, returns cur *)
    ^ "        cmp %o0, %l0\n"
    ^ "        bne Lbad\n"
    ^ "        nop\n"
    ^ "        mov 0, %o0\n        ta 17\n        nop\n"
    ^ "Lbad:   mov 1, %o0\n        ta 17\n        nop\n"
  in
  let r = execute_ok ~os:Spec.empty (assemble src) in
  Alcotest.(check int) "brk grows monotonically" 0 (exit_code r)

(* in-window number with no call assigned: EINVAL with carry set *)
let test_dispatch_einval () =
  let src =
    "        ta 35\n" (* syscall 19: unassigned *)
    ^ "        bcc Lbad\n"
    ^ "        nop\n"
    ^ Printf.sprintf "        cmp %%o0, %d\n" Abi.einval
    ^ "        bne Lbad\n"
    ^ "        nop\n"
    ^ "        mov 0, %o0\n        ta 17\n        nop\n"
    ^ "Lbad:   mov 1, %o0\n        ta 17\n        nop\n"
  in
  let r = execute_ok ~os:Spec.empty (assemble src) in
  Alcotest.(check int) "EINVAL with carry" 0 (exit_code r)

(* without the OS layer installed, the same window immediates are
   unknown traps: the run faults instead of dispatching *)
let test_no_os_no_dispatch () =
  let exe = assemble "        mov 0, %o0\n        ta 17\n        nop\n" in
  let r = execute_ok exe in
  match r.Dx.r_stop with
  | Dx.S_fault _ -> ()
  | s ->
      Alcotest.failf "expected fault, got %s"
        (Format.asprintf "%a" Dx.pp_stop s)

(* read from a spec file, write to fd 1: end-to-end data path *)
let test_dispatch_file_io () =
  let spec = Spec.make ~files:[ ("in.txt", "DATA!") ] () in
  let src =
    "        set path, %o0\n"
    ^ "        mov 0, %o1\n"
    ^ "        ta 21\n" (* open(path, O_RDONLY) *)
    ^ "        bcs Lbad\n"
    ^ "        nop\n"
    ^ "        mov %o0, %l6\n"
    ^ "        mov %l6, %o0\n        set buf, %o1\n        mov 64, %o2\n"
    ^ "        ta 19\n" (* read *)
    ^ "        bcs Lbad\n"
    ^ "        nop\n"
    ^ "        mov %o0, %l5\n"
    ^ "        mov 1, %o0\n        set buf, %o1\n        mov %l5, %o2\n"
    ^ "        ta 20\n" (* write(1, buf, n) *)
    ^ "        bcs Lbad\n"
    ^ "        nop\n"
    ^ "        mov %l6, %o0\n        ta 22\n" (* close *)
    ^ "        bcs Lbad\n"
    ^ "        nop\n"
    ^ "        mov 0, %o0\n        ta 17\n        nop\n"
    ^ "Lbad:   mov 1, %o0\n        ta 17\n        nop\n"
    ^ "        .data\npath:   .asciz \"in.txt\"\n"
    ^ "        .bss\nbuf:    .space 64\n"
  in
  let r = execute_ok ~os:spec (assemble src) in
  Alcotest.(check int) "clean run" 0 (exit_code r);
  Alcotest.(check string) "file contents reached stdout" "DATA!" r.Dx.r_out

(* ENOENT on a missing file; EBADF on a bad descriptor *)
let test_dispatch_errnos () =
  let src =
    "        set path, %o0\n        mov 0, %o1\n        ta 21\n"
    ^ "        bcc Lbad\n"
    ^ "        nop\n"
    ^ Printf.sprintf "        cmp %%o0, %d\n" Abi.enoent
    ^ "        bne Lbad\n"
    ^ "        nop\n"
    ^ "        mov 9, %o0\n        set path, %o1\n        mov 1, %o2\n"
    ^ "        ta 20\n" (* write(9, ...): never opened *)
    ^ "        bcc Lbad\n"
    ^ "        nop\n"
    ^ Printf.sprintf "        cmp %%o0, %d\n" Abi.ebadf
    ^ "        bne Lbad\n"
    ^ "        nop\n"
    ^ "        mov 0, %o0\n        ta 17\n        nop\n"
    ^ "Lbad:   mov 1, %o0\n        ta 17\n        nop\n"
    ^ "        .data\npath:   .asciz \"nope.txt\"\n"
  in
  let r = execute_ok ~os:Spec.empty (assemble src) in
  Alcotest.(check int) "errno paths taken" 0 (exit_code r)

(* the policy denies before the call has any side effect *)
let test_policy_interposition () =
  let spec =
    Spec.make ~files:[ ("out.txt", "untouched") ]
      ~policy:(Policy.Deny_write_fd_above 2) ()
  in
  let src =
    "        set path, %o0\n        mov 1, %o1\n        ta 21\n" (* open wr *)
    ^ "        bcs Lbad\n"
    ^ "        nop\n"
    ^ "        set path, %o1\n        mov 4, %o2\n"
    ^ "        ta 20\n" (* write(fd>2): denied *)
    ^ "        bcc Lbad\n" (* must fail *)
    ^ "        nop\n"
    ^ Printf.sprintf "        cmp %%o0, %d\n" Abi.eperm
    ^ "        bne Lbad\n"
    ^ "        nop\n"
    ^ "        mov 0, %o0\n        ta 17\n        nop\n"
    ^ "Lbad:   mov 1, %o0\n        ta 17\n        nop\n"
    ^ "        .data\npath:   .asciz \"out.txt\"\n"
  in
  match Asm.assemble src with
  | Error m -> Alcotest.failf "assembly failed: %s" m
  | Ok exe -> (
      match Emu.load exe with
      | exception Emu.Fault m -> Alcotest.failf "load: %s" m
      | t -> (
          let st = Os.install t spec in
          match Emu.run ~fuel:100_000 t with
          | r ->
              Alcotest.(check int) "EPERM surfaced" 0 r.Emu.exit_code;
              Alcotest.(check int) "denial counted" 1 (Os.denied_count st);
              (* the open truncated out.txt, but the denied write left it
                 alone: suppression means no side effect at all *)
              Alcotest.(check (option string))
                "denied write had no effect" (Some "")
                (Os.file_contents st "out.txt")
          | exception Emu.Out_of_fuel -> Alcotest.fail "out of fuel"))

(* ------------------------------------------------------------------ *)
(* workload generator                                                  *)
(* ------------------------------------------------------------------ *)

let test_gen_deterministic () =
  let cfg seed = { Gen.default with Gen.seed } in
  let s1, w1 = Gen.os_program (cfg 7) in
  let s2, w2 = Gen.os_program (cfg 7) in
  Alcotest.(check string) "same seed, same source" s1 s2;
  Alcotest.(check bool) "same seed, same world" true (w1 = w2);
  let e1 = assemble s1 and e2 = assemble s2 in
  Alcotest.(check string) "byte-identical SEF" (Sef.to_string e1)
    (Sef.to_string e2);
  let s3, _ = Gen.os_program (cfg 8) in
  Alcotest.(check bool) "different seed differs" true (s1 <> s3)

let test_gen_programs_run () =
  (* every generator shape must assemble and exit 0 in its own world *)
  for seed = 0 to 11 do
    let src, world = Gen.os_program { Gen.default with Gen.seed } in
    let exe = assemble src in
    let spec = Corpus.spec_of_world world in
    let r = execute_ok ~fuel:2_000_000 ~os:spec exe in
    Alcotest.(check int) (Printf.sprintf "seed %d exits 0" seed) 0 (exit_code r);
    (* OS-bound by construction: the run makes syscalls *)
    let sys =
      Array.to_list r.Dx.r_events
      |> List.exists (function Emu.Ob_syscall _ -> true | _ -> false)
    in
    Alcotest.(check bool) (Printf.sprintf "seed %d uses the OS" seed) true sys
  done

(* ------------------------------------------------------------------ *)
(* corpus x toolbox equivalence                                        *)
(* ------------------------------------------------------------------ *)

let fuel = 2_000_000

let test_corpus_assembles () =
  let progs = Corpus.all_os () in
  Alcotest.(check bool)
    (Printf.sprintf "at least 6 OS programs (got %d)" (List.length progs))
    true
    (List.length progs >= 6);
  List.iter
    (fun (name, exe, spec) ->
      let r = execute_ok ~fuel ~os:spec exe in
      match r.Dx.r_stop with
      | Dx.S_exit _ -> ()
      | s ->
          Alcotest.failf "%s: expected exit, got %s" name
            (Format.asprintf "%a" Dx.pp_stop s))
    progs

let test_all_tools_equivalent () =
  List.iter
    (fun (prog, exe, spec) ->
      List.iter
        (fun tool ->
          match Toolbox.measure ~fuel ~os:spec ~prog tool mach exe with
          | Error e ->
              Alcotest.failf "%s x %s: %s" tool prog (Diag.error_message e)
          | Ok ms ->
              let e = ms.Toolbox.ms_entry in
              Alcotest.(check string)
                (Printf.sprintf "%s x %s verdict" tool prog)
                "equivalent" e.Eel_obs.Ledger.le_verdict;
              Alcotest.(check int)
                (Printf.sprintf "%s x %s unexplained overhead" tool prog)
                0 e.Eel_obs.Ledger.le_unexplained)
        Toolbox.names)
    (Corpus.all_os ())

(* SFI's syscall interposition: the denied calls are masked under the
   declared suppression, and the ledger says how many *)
let test_sfi_suppression_masked () =
  let exe, spec = List.assoc "os-copy" (Corpus.os_sources) |> fun (src, spec) ->
    (assemble src, spec)
  in
  match Toolbox.measure ~fuel ~os:spec ~prog:"os-copy" "sfi" mach exe with
  | Error e -> Alcotest.failf "sfi x os-copy: %s" (Diag.error_message e)
  | Ok ms ->
      let e = ms.Toolbox.ms_entry in
      Alcotest.(check string) "equivalent under suppression" "equivalent"
        e.Eel_obs.Ledger.le_verdict;
      Alcotest.(check bool) "suppressed calls were masked" true
        (e.Eel_obs.Ledger.le_sys_masked > 0)

(* an UNdeclared denial is a contract violation: same deny world on the
   edited side, but the contract keeps quiet about it *)
let test_undeclared_deny_flagged () =
  let src, spec = List.assoc "os-copy" Corpus.os_sources in
  let exe = assemble src in
  match Toolbox.apply "sfi" mach exe with
  | Error m -> Alcotest.failf "apply sfi: %s" m
  | Ok ap -> (
      let os_b = Spec.with_policy spec Toolbox.sfi_policy in
      match
        Dx.verify_edit ~fuel ~norm_b:ap.Toolbox.ap_norm_b
          ~block_of:ap.Toolbox.ap_block_of ~os:spec ~os_b
          ~contract:ap.Toolbox.ap_contract exe ap.Toolbox.ap_edited
      with
      | Error e -> Alcotest.failf "verify: %s" (Diag.error_message e)
      | Ok er ->
          Alcotest.(check bool) "undeclared denial flagged" true
            (Dx.is_divergence er.Dx.er_report.Dx.rp_verdict))

(* a dropped write must diverge for every tool: nop the write syscall
   site in the edited image and demand a flagged verdict *)
let test_dropped_write_diverges () =
  List.iter
    (fun tool ->
      let src, spec = List.assoc "os-copy" Corpus.os_sources in
      let exe = assemble src in
      match Fault.instrument ~fuel ~os:spec tool ("os-copy", exe) with
      | Error m -> Alcotest.failf "instrument %s: %s" tool m
      | Ok inst ->
          let menu = Fault.sites inst Fault.Drop_syscall in
          Alcotest.(check bool)
            (Printf.sprintf "%s has droppable sites" tool)
            true (menu <> []);
          let armed = Fault.arm inst Fault.Drop_syscall [ 0 ] in
          let at = Fault.attempt ~fuel inst armed in
          Alcotest.(check bool)
            (Printf.sprintf "%s: dropped write flagged (%s)" tool
               at.Fault.at_verdict)
            true at.Fault.at_flagged)
    Toolbox.names

(* a reordered write: swap the payloads of two writes with pokes on the
   edited side — the data checksums must break lockstep *)
let test_reordered_write_diverges () =
  let spec = Spec.make ~stdin:"" () in
  let src =
    "        set buf, %o1\n"
    ^ "        mov 1, %o0\n        mov 1, %o2\n        ta 20\n"
    ^ "        set buf2, %o1\n"
    ^ "        mov 1, %o0\n        mov 1, %o2\n        ta 20\n"
    ^ "        mov 0, %o0\n        ta 17\n        nop\n"
    ^ "        .data\nbuf:    .asciz \"A\"\nbuf2:   .asciz \"B\"\n"
  in
  let exe = assemble src in
  (* find the .data addresses of the two payload bytes via symbols *)
  let sym name =
    match List.find_opt (fun s -> s.Sef.sym_name = name) exe.Sef.symbols with
    | Some s -> s.Sef.value
    | None -> Alcotest.failf "symbol %s missing" name
  in
  let a = sym "buf" and b = sym "buf2" in
  (* poke the edited side before it runs: swap 'A' and 'B', so the same
     two writes emit the bytes in the other order *)
  let edited = assemble src in
  let pokes_b =
    [
      { Emu.pk_at = 0; pk_addr = a; pk_value = Char.code 'B' };
      { Emu.pk_at = 0; pk_addr = b; pk_value = Char.code 'A' };
    ]
  in
  let contract = Contract.make "identity" in
  match
    Dx.verify_edit ~fuel ~pokes_b ~os:spec ~contract exe edited
  with
  | Error e -> Alcotest.failf "verify: %s" (Diag.error_message e)
  | Ok er ->
      Alcotest.(check bool) "reordered write payloads flagged" true
        (Dx.is_divergence er.Dx.er_report.Dx.rp_verdict)

(* ------------------------------------------------------------------ *)
(* eel_run subprocess: --os world flags and --exit-status              *)
(* ------------------------------------------------------------------ *)

let bin name =
  Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ name)

let test_eel_run_exit_status () =
  let src, _spec = List.assoc "os-count" Corpus.os_sources in
  let exe = assemble src in
  let sef = Filename.temp_file "eel_os" ".sef" in
  Sef.write_file sef exe;
  let run args =
    Sys.command
      (Printf.sprintf "%s %s %s > /dev/null 2>&1"
         (Filename.quote (bin "eel_run.exe"))
         args (Filename.quote sef))
  in
  (* os-count exits with the number of stdin bytes it counted *)
  Alcotest.(check int) "exit-status maps guest exit(n)" 5
    (run "--os --os-stdin hello --exit-status");
  Alcotest.(check int) "without --exit-status the process exits 0" 0
    (run "--os --os-stdin hello");
  Alcotest.(check int) "empty stdin counts zero" 0
    (run "--os --exit-status");
  Sys.remove sef

let test_eel_run_os_file () =
  let src, _ = List.assoc "os-copy" Corpus.os_sources in
  let exe = assemble src in
  let sef = Filename.temp_file "eel_os" ".sef" in
  Sef.write_file sef exe;
  let payload = Filename.temp_file "eel_os" ".txt" in
  let oc = open_out_bin payload in
  output_string oc "copy me";
  close_out oc;
  let rc =
    Sys.command
      (Printf.sprintf
         "%s --os --os-file in.txt=%s --exit-status %s > /dev/null 2>&1"
         (Filename.quote (bin "eel_run.exe"))
         (Filename.quote payload) (Filename.quote sef))
  in
  Alcotest.(check int) "os-copy over a host-loaded file" 0 rc;
  Sys.remove sef;
  Sys.remove payload

(* The three execution tiers are interchangeable from the command line:
   same stdout and exit status. The block tier cannot honour --metrics
   (it profiles per instruction), so asking for both is a structured error. *)
let test_eel_run_tier () =
  let src, _ = List.assoc "os-upcase" Corpus.os_sources in
  let exe = assemble src in
  let sef = Filename.temp_file "eel_os" ".sef" in
  Sef.write_file sef exe;
  let out = Filename.temp_file "eel_os" ".out" in
  let err = Filename.temp_file "eel_os" ".err" in
  let slurp f = In_channel.with_open_bin f In_channel.input_all in
  let run args =
    let rc =
      Sys.command
        (Printf.sprintf "%s %s %s > %s 2> %s"
           (Filename.quote (bin "eel_run.exe"))
           args (Filename.quote sef) (Filename.quote out) (Filename.quote err))
    in
    (rc, slurp out, slurp err)
  in
  let on tier =
    run (Printf.sprintf "--tier %s --os --os-stdin hello --exit-status" tier)
  in
  let rc, stdout, _ = on "interp" in
  Alcotest.(check bool) "the program writes to stdout" true (stdout <> "");
  List.iter
    (fun tier ->
      let rc', stdout', _ = on tier in
      Alcotest.(check int) (tier ^ ": same exit status") rc rc';
      Alcotest.(check string) (tier ^ ": same stdout") stdout stdout')
    [ "predecode"; "block" ];
  let rc, _, stderr = run "--tier block --metrics" in
  Alcotest.(check int) "--tier block --metrics exits 1" 1 rc;
  Alcotest.(check string) "structured Diag error"
    "eel_run: executable: --tier block is incompatible with --metrics, which \
     forces per-instruction interpretation; drop one of the two\n"
    stderr;
  List.iter Sys.remove [ sef; out; err ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "os"
    [
      ( "abi",
        [
          Alcotest.test_case "trap window" `Quick test_abi_window;
          Alcotest.test_case "mnemonics" `Quick test_abi_names;
          Alcotest.test_case "generator mirrors the ABI table" `Quick
            test_gen_mirrors_abi;
        ] );
      ( "fs",
        [
          Alcotest.test_case "read/write/truncate/snapshot" `Quick
            test_fs_semantics;
          Alcotest.test_case "fd table" `Quick test_fdtab;
          Alcotest.test_case "policy" `Quick test_policy;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "exit" `Quick test_dispatch_exit;
          Alcotest.test_case "brk" `Quick test_dispatch_brk;
          Alcotest.test_case "EINVAL on unassigned numbers" `Quick
            test_dispatch_einval;
          Alcotest.test_case "no OS layer, no dispatch" `Quick
            test_no_os_no_dispatch;
          Alcotest.test_case "open/read/write/close data path" `Quick
            test_dispatch_file_io;
          Alcotest.test_case "ENOENT and EBADF" `Quick test_dispatch_errnos;
          Alcotest.test_case "policy denies before side effects" `Quick
            test_policy_interposition;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "all shapes run" `Quick test_gen_programs_run;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "corpus assembles and exits" `Quick
            test_corpus_assembles;
          Alcotest.test_case "all tools x all OS programs" `Slow
            test_all_tools_equivalent;
          Alcotest.test_case "sfi masks declared suppression" `Quick
            test_sfi_suppression_masked;
          Alcotest.test_case "undeclared deny is a violation" `Quick
            test_undeclared_deny_flagged;
          Alcotest.test_case "dropped write diverges" `Slow
            test_dropped_write_diverges;
          Alcotest.test_case "reordered write diverges" `Quick
            test_reordered_write_diverges;
        ] );
      ( "eel_run",
        [
          Alcotest.test_case "--exit-status subprocess" `Quick
            test_eel_run_exit_status;
          Alcotest.test_case "--os-file host preload" `Quick
            test_eel_run_os_file;
          Alcotest.test_case "--tier subprocess" `Quick test_eel_run_tier;
        ] );
    ]
