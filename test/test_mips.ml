(* Retargetability: the SAME spawn elaborator, analyzer and RTL interpreter
   drive a second architecture from descriptions/mips.spawn (the paper:
   "a spawn description of the MIPS R2000 architecture is 128 lines").

   MIPS differs from SPARC in every way spawn must abstract over: opcode
   layout (opc/funct vs op/op2/op3), never-annulled delay slots, guard
   conditions computed from registers instead of condition codes, HI/LO
   instead of %y, and a different system-call shape. Programs here are
   hand-encoded with spawn's own encoder and executed by the RTL
   interpreter. *)

module Emu = Eel_emu.Emu
module Sef = Eel_sef.Sef
module Elab = Eel_spawn.Elab
module A = Eel_spawn.Analyze
module Instr = Eel_arch.Instr

let el =
  lazy
    (try Eel_spawn.Smach.load_description "../descriptions/mips.spawn"
     with Sys_error _ -> Eel_spawn.Smach.load_description "descriptions/mips.spawn")

(* register shorthands; values live in the s-registers because the shared
   emulator's system-call convention reads its argument from R[8], which
   [putint] therefore clobbers *)
let zero = 0
let t0 = 16
let t1 = 17
let t2 = 18
let a0 = 4
let ra = 31

let enc name fields = Elab.encode (Lazy.force el) name fields

(* assemble a word list into a runnable SEF image *)
let image ?(base = 0x10000) words =
  let text = Bytes.create (4 * List.length words) in
  List.iteri (fun i w -> Eel_util.Bytebuf.set32_be text (4 * i) w) words;
  Sef.create ~entry:base
    ~sections:
      [
        { Sef.sec_name = ".text"; sec_kind = Sef.Text; vaddr = base;
          size = Bytes.length text; contents = text };
      ]
    ~symbols:[]

let run words =
  let r, _ = Eel_spawn.Interp.run (Lazy.force el) (image words) in
  r

(* common MIPS idioms *)
let ori rt rs imm = enc "ori" [ ("rt", rt); ("rs", rs); ("imm16", imm) ]
let addiu rt rs imm = enc "addiu" [ ("rt", rt); ("rs", rs); ("imm16", imm land 0xFFFF) ]
let addu rd rs rt = enc "addu" [ ("rd", rd); ("rs", rs); ("rt", rt) ]
let nop = enc "sll" [ ("rd", 0); ("rt", 0); ("shamt", 0) ]
let syscall n = enc "syscall" [ ("code20", n) ]

(* our system-call convention for the MIPS description: the code field
   selects the call; the argument register is R[4] ($a0)... but the shared
   emulator reads %o0 = R[8] for arguments. Pass values in R[8]/R[9]
   directly — the machine state is architecture-neutral. *)
let putint rs = [ addu 8 rs zero; syscall 2 ]
let exit0 = [ ori 8 zero 0; syscall 1 ]

let test_decode () =
  let el = Lazy.force el in
  Alcotest.(check (option string)) "nop is sll" (Some "sll") (Elab.decode el nop);
  Alcotest.(check (option string)) "ori" (Some "ori") (Elab.decode el (ori t0 zero 7));
  Alcotest.(check (option string)) "syscall" (Some "syscall")
    (Elab.decode el (syscall 1));
  Alcotest.(check (option string)) "garbage is invalid" None
    (Elab.decode el 0xFFFFFFFF)

let test_arith () =
  let r =
    run
      ([ ori t0 zero 6; ori t1 zero 7;
         enc "mult" [ ("rs", t0); ("rt", t1) ];
         enc "mflo" [ ("rd", t2) ] ]
      @ putint t2 @ exit0)
  in
  Alcotest.(check string) "6*7 via mult/mflo" "42\n" r.Emu.out

let test_slt () =
  let r =
    run
      ([ addiu t0 zero (-5);
         ori t1 zero 3;
         enc "slt" [ ("rd", t2); ("rs", t0); ("rt", t1) ] ]
      @ putint t2
      @ [ enc "sltu" [ ("rd", t2); ("rs", t0); ("rt", t1) ] ]
      @ putint t2 @ exit0)
  in
  (* signed: -5 < 3 -> 1; unsigned: 0xFFFFFFFB < 3 -> 0 *)
  Alcotest.(check string) "signed vs unsigned compare" "1\n0\n" r.Emu.out

let test_branch_delay_slot () =
  (* MIPS delay slots always execute, even on the taken path *)
  let r =
    run
      ([
         ori t0 zero 1;
         enc "beq" [ ("rs", zero); ("rt", zero); ("imm16", 2) ]; (* skip one past the delay *)
         addiu t0 t0 10; (* delay slot: executes *)
         addiu t0 t0 100; (* jumped over *)
       ]
      @ putint t0 @ exit0)
  in
  Alcotest.(check string) "taken branch delay executes" "11\n" r.Emu.out

let test_loop () =
  (* count down from 5, summing: 5+4+3+2+1 = 15 *)
  let r =
    run
      ([
         ori t0 zero 5;
         ori t1 zero 0;
         (* Lloop: *)
         addu t1 t1 t0;
         addiu t0 t0 (-1);
         enc "bne" [ ("rs", t0); ("rt", zero); ("imm16", -3 land 0xFFFF) ];
         nop;
       ]
      @ putint t1 @ exit0)
  in
  Alcotest.(check string) "loop sum" "15\n" r.Emu.out

let test_call_and_return () =
  (* bgezal as call (always taken on $zero), jr $ra as return *)
  let r =
    run
      [
        (* 0x10000: call the doubler at +4 insns *)
        enc "bgezal" [ ("rs", zero); ("rt", 0x11); ("imm16", 5) ];
        ori a0 zero 21; (* delay: argument *)
        addu 8 2 zero; (* result (v0=R[2]) into R[8] for putint *)
        syscall 2;
        ori 8 zero 0;
        syscall 1;
        (* 0x10018: double: v0 = a0 + a0 *)
        addu 2 a0 a0;
        enc "jr" [ ("rs", ra) ];
        nop;
      ]
  in
  Alcotest.(check string) "call through bgezal/jr" "42\n" r.Emu.out

let test_memory () =
  let r =
    run
      ([
         enc "lui" [ ("rt", t0); ("imm16", 2) ]; (* 0x20000: scratch *)
         addiu t1 zero 258;
         enc "sw" [ ("rs", t0); ("rt", t1); ("imm16", 0) ];
         enc "lw" [ ("rs", t0); ("rt", t2); ("imm16", 0) ];
       ]
      @ putint t2
      @ [
          enc "sb" [ ("rs", t0); ("rt", t1); ("imm16", 8) ];
          enc "lbu" [ ("rs", t0); ("rt", t2); ("imm16", 8) ];
        ]
      @ putint t2 @ exit0)
  in
  Alcotest.(check string) "word and byte memory" "258\n2\n" r.Emu.out

(* spawn's derived analysis speaks about MIPS too *)
let test_analysis () =
  let el = Lazy.force el in
  let inst w = Option.get (Elab.instance el w) in
  (* beq: delayed, conditional, reads rs/rt, writes nothing *)
  let beq = inst (enc "beq" [ ("rs", t0); ("rt", t1); ("imm16", 4) ]) in
  let reads, writes = A.rtl_usage beq.Elab.i_rtl (Eel_arch.Regset.empty, Eel_arch.Regset.empty) in
  Alcotest.(check bool) "beq reads rs" true (Eel_arch.Regset.mem t0 reads);
  Alcotest.(check bool) "beq reads rt" true (Eel_arch.Regset.mem t1 reads);
  Alcotest.(check bool) "beq writes nothing" true (Eel_arch.Regset.is_empty writes);
  Alcotest.(check int) "beq is delayed (2 phases)" 2 (List.length beq.Elab.i_rtl);
  (* bgezal writes the link register *)
  let bal = inst (enc "bgezal" [ ("rs", zero); ("rt", 0x11); ("imm16", 4) ]) in
  let _, writes = A.rtl_usage bal.Elab.i_rtl (Eel_arch.Regset.empty, Eel_arch.Regset.empty) in
  Alcotest.(check bool) "bgezal writes $ra" true (Eel_arch.Regset.mem ra writes);
  (* jr is an indirect transfer through rs *)
  let jr = inst (enc "jr" [ ("rs", ra) ]) in
  let env = A.var_env_rtl jr.Elab.i_rtl [] in
  let pws = A.find_pc_writes env None jr.Elab.i_rtl [] in
  (match pws with
  | [ pw ] -> (
      match A.as_indirect env pw.A.pw_target with
      | Some (r, Instr.O_imm 0) -> Alcotest.(check int) "jr target reg" ra r
      | _ -> Alcotest.fail "jr target not recognized as indirect")
  | _ -> Alcotest.fail "jr should write pc once");
  (* lw is a 4-byte load with a recognizable effective address *)
  let lw = inst (enc "lw" [ ("rs", t0); ("rt", t2); ("imm16", 12) ]) in
  (match A.find_mem (A.var_env_rtl lw.Elab.i_rtl []) lw.Elab.i_rtl [] with
  | [ m ] ->
      Alcotest.(check int) "lw width" 4 m.A.ma_width;
      Alcotest.(check bool) "lw is a load" true (not m.A.ma_store)
  | _ -> Alcotest.fail "lw memory access not found")

(* the description is concise, as the paper claims for MIPS (128 lines) *)
let test_conciseness () =
  let path =
    if Sys.file_exists "../descriptions/mips.spawn" then "../descriptions/mips.spawn"
    else "descriptions/mips.spawn"
  in
  let ic = open_in path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check bool) "under 140 lines" true
    (Eel_spawn.Codegen.loc_of_string src < 140)

let () =
  Alcotest.run "mips"
    [
      ( "mips",
        [
          Alcotest.test_case "decode" `Quick test_decode;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "signed/unsigned compare" `Quick test_slt;
          Alcotest.test_case "branch delay slot" `Quick test_branch_delay_slot;
          Alcotest.test_case "loop" `Quick test_loop;
          Alcotest.test_case "call and return" `Quick test_call_and_return;
          Alcotest.test_case "memory" `Quick test_memory;
          Alcotest.test_case "derived analysis" `Quick test_analysis;
          Alcotest.test_case "conciseness" `Quick test_conciseness;
        ] );
    ]
