(* Tests for the EEL core: symbol-table refinement, CFG construction with
   delay-slot normalization (paper Fig. 3), data-flow analyses, slicing
   (Fig. 4 / §3.3), snippets (§3.5), and — most importantly — end-to-end
   editing: edited executables must run in the emulator with unchanged
   observable behaviour and correct instrumentation counters. *)

module Sef = Eel_sef.Sef
module Emu = Eel_emu.Emu
module C = Eel.Cfg
module E = Eel.Executable
module Edit = Eel.Edit
module Snippet = Eel.Snippet
module Regset = Eel_arch.Regset
open Eel_sparc

let mach = Mach.mach

let assemble src =
  match Asm.assemble src with
  | Ok exe -> exe
  | Error m -> Alcotest.failf "assembly failed: %s" m

let open_exe src = E.read_contents mach (assemble src)

let cfg_of_main exe =
  let t = open_exe exe in
  let r =
    match E.routine_named t "main" with
    | Some r -> r
    | None -> Alcotest.failf "no main routine"
  in
  (t, r, E.control_flow_graph t r)

let run_src src =
  let r, _ = Emu.run_exe (assemble src) in
  r

(* run both the original and the edited version; check identical output *)
let edit_and_run ?(edit = fun _t _r -> ()) src =
  let orig = run_src src in
  let t = open_exe src in
  List.iter (fun r -> edit t r) (E.routines t);
  let rec drain () =
    match E.take_hidden t with
    | Some r ->
        edit t r;
        drain ()
    | None -> ()
  in
  drain ();
  let edited = E.to_edited_sef t () in
  let res, st = Emu.run_exe edited in
  Alcotest.(check string) "output unchanged" orig.Emu.out res.Emu.out;
  Alcotest.(check int) "exit code unchanged" orig.Emu.exit_code res.Emu.exit_code;
  (orig, res, st, t)

let exit0 = "        mov 0, %o0\n        ta 1\n"

(* ------------------------------------------------------------------ *)
(* CFG construction                                                    *)
(* ------------------------------------------------------------------ *)

let branchy_program =
  {|
        .text
        .global main
main:   mov 5, %l0
Lloop:  subcc %l0, 1, %l0
        bne Lloop
        nop
        mov 0, %o0
        ta 1
|}

let test_cfg_shapes () =
  let _, _, g = cfg_of_main branchy_program in
  let s = C.stats_of g in
  Alcotest.(check bool) "has delay blocks" true (s.C.s_delay >= 2);
  Alcotest.(check int) "one entry + one exit" 2 s.C.s_entry_exit;
  Alcotest.(check bool) "complete" true g.C.complete;
  (* the loop branch's block has two successors, both through delay blocks
     (non-annulled conditional duplicates the slot, Fig. 3) *)
  let branch_block =
    List.find
      (fun (b : C.block) -> match b.C.term with C.T_branch _ -> true | _ -> false)
      (C.blocks g)
  in
  Alcotest.(check int) "branch has 2 successors" 2 (List.length branch_block.C.succs);
  List.iter
    (fun (e : C.edge) ->
      Alcotest.(check bool) "both go through delay blocks" true
        (e.C.edst.C.kind = C.Delay))
    branch_block.C.succs

let test_cfg_annulled () =
  (* Fig. 3: annulled branch's delay instruction appears only on the taken
     edge *)
  let src =
    {|
main:   cmp %o0, 0
        bne,a L1
        add %l1, %l2, %l1
        mov 1, %o0
L1:     mov 0, %o0
        ta 1
|}
  in
  let _, _, g = cfg_of_main src in
  let b =
    List.find
      (fun (b : C.block) -> match b.C.term with C.T_branch _ -> true | _ -> false)
      (C.blocks g)
  in
  let taken =
    List.find (fun (e : C.edge) -> e.C.ekind = C.Ek_taken) b.C.succs
  in
  let fall =
    List.find (fun (e : C.edge) -> e.C.ekind = C.Ek_fall) b.C.succs
  in
  Alcotest.(check bool) "taken goes through delay block" true
    (taken.C.edst.C.kind = C.Delay);
  Alcotest.(check bool) "fall edge skips the delay instr" true
    (fall.C.edst.C.kind = C.Normal)

let test_cfg_call_surrogate () =
  let src =
    {|
main:   call f
        nop
|} ^ exit0 ^ {|
f:      retl
        nop
|}
  in
  let _, _, g = cfg_of_main src in
  let s = C.stats_of g in
  Alcotest.(check int) "one surrogate" 1 s.C.s_surrogate;
  (* the call's delay block is uneditable (paper §3.3) *)
  let call_block =
    List.find
      (fun (b : C.block) -> match b.C.term with C.T_call _ -> true | _ -> false)
      (C.blocks g)
  in
  let dslot = (List.hd call_block.C.succs).C.edst in
  Alcotest.(check bool) "call delay uneditable" false dslot.C.editable;
  Alcotest.(check bool) "uneditable blocks exist" true (s.C.s_uneditable_blocks > 0)

let test_cfg_data_in_text () =
  (* a word of data after the routine: decodes invalid, becomes a data
     block, not a hidden routine *)
  let src =
    {|
main:   mov 0, %o0
        ta 1
        .word 0
        .word 12
|}
  in
  let t, r, g = cfg_of_main src in
  ignore t;
  ignore r;
  let has_data = List.exists (fun (b : C.block) -> b.C.is_data) (C.blocks g) in
  Alcotest.(check bool) "data block found" true has_data;
  Alcotest.(check (option int)) "no hidden candidate" None g.C.hidden_candidate

let test_hidden_routine () =
  (* a routine with no symbol, reachable only through a function pointer:
     unreachable tail code is reported as a hidden routine (stage 4) *)
  let src =
    {|
        .text
        .global main
main:   set fptr, %l0
        ld [%l0], %l1
        jmpl %l1, %o7
        nop
        mov 0, %o0
        ta 1
        retl
        nop
        .nosym secret
secret: retl
        mov 7, %o0
        .data
        .align 4
fptr:   .word secret
|}
  in
  let t = open_exe src in
  let main = Option.get (E.routine_named t "main") in
  let _ = E.control_flow_graph t main in
  Alcotest.(check int) "one hidden routine discovered" 1
    (List.length (E.hidden_routines t));
  match E.take_hidden t with
  | Some h ->
      Alcotest.(check bool) "hidden flag" true h.E.r_hidden;
      let g = E.control_flow_graph t h in
      Alcotest.(check bool) "hidden routine has code" true
        (List.exists (fun (b : C.block) -> b.C.kind = C.Normal && not b.C.is_data)
           (C.blocks g))
  | None -> Alcotest.fail "expected hidden routine"

let test_stage1_label_filtering () =
  (* debugging labels and internal labels must not become routines *)
  let src =
    {|
        .text
        .global main
main:   mov 3, %l0
Ltop:   subcc %l0, 1, %l0
        .labelsym weird
weird:  bne Ltop
        nop
|}
    ^ exit0
    ^ {|
        .debugsym main
helper: retl
        nop
|}
  in
  let t = open_exe src in
  let names = List.map (fun r -> r.E.r_name) (E.routines t) in
  Alcotest.(check bool) "main present" true (List.mem "main" names);
  Alcotest.(check bool) "helper present" true (List.mem "helper" names);
  Alcotest.(check bool) "debug/label syms dropped" true
    (not (List.mem "weird" names))

let test_stage3_multiple_entries () =
  (* an interprocedural jump creates a second entry point (Fortran ENTRY
     idiom) *)
  let src =
    {|
        .text
        .global main
main:   ba Lmid
        nop
|} ^ exit0 ^ {|
f:      mov 1, %o0
Lmid:   mov 0, %o0
        ta 1
|}
  in
  let t = open_exe src in
  let f = Option.get (E.routine_named t "f") in
  Alcotest.(check bool) "f got a second entry" true
    (List.length f.E.r_entries >= 2)

let test_stripped () =
  let src =
    {|
        .entry main
main:   call f
        nop
|} ^ exit0 ^ {|
f:      retl
        nop
|}
  in
  let exe = Sef.strip (assemble src) in
  let t = E.read_contents mach exe in
  (* entry point + call target found *)
  Alcotest.(check bool) "at least 2 routines" true (List.length (E.routines t) >= 2);
  let stats = E.jump_stats t in
  Alcotest.(check int) "no unanalyzable jumps" 0 stats.E.js_unanalyzable

(* ------------------------------------------------------------------ *)
(* Dataflow                                                            *)
(* ------------------------------------------------------------------ *)

let test_liveness () =
  let _, _, g = cfg_of_main branchy_program in
  let lv = Eel.Dataflow.liveness g in
  (* %l0 is live inside the loop *)
  let loop_block =
    List.find
      (fun (b : C.block) -> match b.C.term with C.T_branch _ -> true | _ -> false)
      (C.blocks g)
  in
  Alcotest.(check bool) "l0 live at loop head" true
    (Regset.mem 16 lv.Eel.Dataflow.l_in.(loop_block.C.bid));
  (* volatile scratch %g1 is dead there *)
  Alcotest.(check bool) "g1 dead" false
    (Regset.mem 1 lv.Eel.Dataflow.l_in.(loop_block.C.bid))

let test_dominators_and_loops () =
  let _, _, g = cfg_of_main branchy_program in
  let loops = Eel.Dataflow.natural_loops g in
  Alcotest.(check int) "one natural loop" 1 (List.length loops);
  let l = List.hd loops in
  Alcotest.(check bool) "loop body nonempty" true (List.length l.Eel.Dataflow.body >= 2)

(* ------------------------------------------------------------------ *)
(* Slicing (§3.3)                                                      *)
(* ------------------------------------------------------------------ *)

let case_program =
  {|
        .text
        .global main
main:   set sel, %l3
        ld [%l3], %o0
        set table, %l0
        sll %o0, 2, %l1
        ld [%l0 + %l1], %l2
        jmp %l2
        nop
Lc0:    mov 100, %o0
        ba Lend
        nop
Lc1:    mov 200, %o0
        ba Lend
        nop
Lc2:    mov 300, %o0
Lend:   ta 2
|}
  ^ exit0
  ^ {|
        .data
        .align 4
sel:    .word 2
table:  .word Lc0, Lc1, Lc2
|}

let test_slice_dispatch_table () =
  let _, _, g = cfg_of_main case_program in
  Alcotest.(check bool) "cfg complete" true g.C.complete;
  let jumps = C.indirect_jumps g in
  Alcotest.(check int) "one indirect jump" 1 (List.length jumps);
  let b, _ = List.hd jumps in
  match b.C.term with
  | C.T_jump { table = Some tbl; _ } ->
      Alcotest.(check int) "3 targets" 3 (Array.length tbl.C.t_targets);
      Alcotest.(check bool) "table in data section" true (tbl.C.t_addr > 0)
  | _ -> Alcotest.fail "jump not resolved"

let test_slice_literal_jump () =
  let src =
    {|
main:   set Ltarget, %l0
        jmp %l0
        nop
        mov 9, %o0
Ltarget: mov 0, %o0
        ta 1
|}
  in
  let _, _, g = cfg_of_main src in
  Alcotest.(check bool) "literal jump analyzed" true g.C.complete

let sunpro_tail_call =
  {|
        .text
        .global main
main:   set fptr, %l0
        ld [%l0], %l1
        jmp %l1
        nop
|}
  ^ exit0
  ^ {|
target: mov 0, %o0
        ta 1
        nop
        .data
        .align 4
fptr:   .word target
|}

let test_slice_unanalyzable () =
  (* a jump through a value loaded from writable data is unanalyzable:
     slicing must refuse (the table could change at run time)... except our
     table reader will read it. The honest unanalyzable case is a
     register-parameter jump. *)
  let src =
    {|
        .text
        .global main
main:   set cont, %o0
        call f
        nop
|} ^ exit0 ^ {|
f:      jmp %o0
        nop
cont:   mov 0, %o0
        ta 1
|}
  in
  let t = open_exe src in
  let stats = E.jump_stats t in
  Alcotest.(check int) "one indirect jump" 1 stats.E.js_indirect_jumps;
  Alcotest.(check int) "unanalyzable" 1 stats.E.js_unanalyzable

(* ------------------------------------------------------------------ *)
(* Snippets                                                            *)
(* ------------------------------------------------------------------ *)

let test_snippet_scavenging () =
  let s = Snippet.of_asm mach "add %v0, 1, %v0\n" in
  (* plenty of dead registers *)
  let inst = Snippet.instantiate mach s ~live:Regset.empty in
  Alcotest.(check int) "no spills" 0 inst.Snippet.in_spilled;
  Alcotest.(check int) "1 word" 1 (Array.length inst.Snippet.in_words);
  (* all allocatable registers live: must spill *)
  let inst2 = Snippet.instantiate mach s ~live:mach.Eel_arch.Machine.allocatable in
  Alcotest.(check int) "spilled one" 1 inst2.Snippet.in_spilled;
  Alcotest.(check int) "wrapped with spill/unspill" 3
    (Array.length inst2.Snippet.in_words)

let test_snippet_forbid () =
  let s =
    Snippet.of_asm mach ~forbid:(Regset.of_list [ 1; 2; 3; 4; 5 ]) "add %v0, 1, %v0\n"
  in
  let inst = Snippet.instantiate mach s ~live:Regset.empty in
  Alcotest.(check bool) "forbidden registers avoided" true
    (not (List.mem inst.Snippet.in_assigned.(0) [ 1; 2; 3; 4; 5 ]))

(* ------------------------------------------------------------------ *)
(* End-to-end editing                                                  *)
(* ------------------------------------------------------------------ *)

let test_identity_reemit () =
  (* produce with no edits: the edited executable must behave identically *)
  ignore (edit_and_run branchy_program);
  ignore (edit_and_run case_program);
  ignore (edit_and_run sunpro_tail_call)

let test_identity_delay_slots () =
  (* all the delay-slot flavours survive re-emission *)
  let src =
    {|
main:   mov 1, %l0
        cmp %l0, 1
        be,a L1
        add %l0, 10, %l0
        add %l0, 100, %l0
L1:     cmp %l0, 99
        be,a L2
        add %l0, 300, %l0
        add %l0, 1, %l0
L2:     ba,a L3
        add %l0, 2000, %l0
L3:     mov %l0, %o0
        ta 2
|}
    ^ exit0
  in
  ignore (edit_and_run src)

let counter_snippet addr =
  Snippet.of_asm mach
    ~params:[ ("counter", addr) ]
    {|
        sethi %hi($counter), %v0
        ld [%v0 + %lo($counter)], %v1
        add %v1, 1, %v1
        st %v1, [%v0 + %lo($counter)]
|}

let test_insert_before () =
  (* count executions of the loop body: must equal 5 *)
  let t0 = ref 0 in
  let counter_addr = ref 0 in
  let _, _, st, _ =
    edit_and_run branchy_program ~edit:(fun t r ->
        if r.E.r_name = "main" then (
          let g = E.control_flow_graph t r in
          let ed = E.editor t r in
          counter_addr := E.reserve_data t 4;
          let loop_block =
            List.find
              (fun (b : C.block) ->
                match b.C.term with C.T_branch _ -> true | _ -> false)
              (C.blocks g)
          in
          Edit.add_before ed loop_block 0 (counter_snippet !counter_addr);
          incr t0);
        E.produce_edited_routine t r)
  in
  Alcotest.(check int) "edited once" 1 !t0;
  Alcotest.(check int) "counter = 5" 5
    (Eel_util.Bytebuf.get32_be st.Emu.mem !counter_addr)

let test_edge_counting () =
  (* Fig. 1: a counter along each outgoing edge of a two-way branch *)
  let src =
    {|
        .text
        .global main
main:   mov 7, %l0
Lloop:  andcc %l0, 1, %g0
        be Leven
        nop
        ba Lnext            ! odd
        nop
Leven:  nop
Lnext:  subcc %l0, 1, %l0
        bne Lloop
        nop
|}
    ^ exit0
  in
  let counters = ref [] in
  let _, _, st, _ =
    edit_and_run src ~edit:(fun t r ->
        (if r.E.r_name = "main" then
           let g = E.control_flow_graph t r in
           let ed = E.editor t r in
           List.iter
             (fun (b : C.block) ->
               if List.length b.C.succs > 1 then
                 List.iter
                   (fun (e : C.edge) ->
                     if e.C.e_editable then (
                       let addr = E.reserve_data t 4 in
                       counters := addr :: !counters;
                       Edit.add_along ed e (counter_snippet addr)))
                   b.C.succs)
             (C.blocks g));
        E.produce_edited_routine t r)
  in
  let values =
    List.rev_map (fun a -> Eel_util.Bytebuf.get32_be st.Emu.mem a) !counters
  in
  (* 7,6,...,1: 4 odd, 3 even; loop back-edge 6 times, exit once *)
  let total = List.fold_left ( + ) 0 values in
  Alcotest.(check int) "4 counters" 4 (List.length values);
  Alcotest.(check int) "edge executions total" 14 total;
  Alcotest.(check bool) "even/odd split" true
    (List.exists (( = ) 3) values && List.exists (( = ) 4) values);
  Alcotest.(check bool) "loop back edge 6" true (List.exists (( = ) 6) values)

let test_delete () =
  (* delete a dead instruction: output unchanged *)
  let src =
    {|
main:   mov 42, %l7          ! dead store, deleted by the tool
        mov 7, %o0
        ta 2
|}
    ^ exit0
  in
  let deleted = ref false in
  let _, res, _, _ =
    edit_and_run src ~edit:(fun t r ->
        (if r.E.r_name = "main" then
           let g = E.control_flow_graph t r in
           let ed = E.editor t r in
           List.iter
             (fun (b : C.block) ->
               Array.iteri
                 (fun idx (_, (i : Eel_arch.Instr.t)) ->
                   if (not !deleted) && Eel_arch.Regset.mem 23 i.Eel_arch.Instr.writes
                   then (
                     Edit.delete ed b idx;
                     deleted := true))
                 b.C.instrs)
             (C.blocks g));
        E.produce_edited_routine t r)
  in
  Alcotest.(check bool) "deleted something" true !deleted;
  Alcotest.(check string) "still prints 7" "7\n" res.Emu.out

let test_jump_table_rewrite () =
  (* the case program, edited: dispatch must land on edited code *)
  let counter = ref 0 in
  let _, _, st, _ =
    edit_and_run case_program ~edit:(fun t r ->
        (if r.E.r_name = "main" then (
           let g = E.control_flow_graph t r in
           let ed = E.editor t r in
           counter := E.reserve_data t 4;
           (* count case-block entries: insert before every table target *)
           List.iter
             (fun (b : C.block) ->
               match b.C.baddr with
               | Some _ when b.C.kind = C.Normal && b.C.reachable ->
                   let is_target =
                     List.exists
                       (fun (e : C.edge) ->
                         match e.C.ekind with C.Ek_computed _ -> true | _ -> false)
                       b.C.preds
                   in
                   if is_target then
                     Edit.add_before ed b 0 (counter_snippet !counter)
               | _ -> ())
             (C.blocks g)));
        E.produce_edited_routine t r)
  in
  Alcotest.(check int) "case block entered once (instrumented)" 1
    (Eel_util.Bytebuf.get32_be st.Emu.mem !counter)

let test_runtime_translation () =
  (* the sunpro-style register-parameter jump forces the run-time
     translation table; the edited program still works *)
  let src =
    {|
        .text
        .global main
main:   set cont, %o0
        call f
        nop
|} ^ exit0 ^ {|
f:      jmp %o0
        nop
cont:   mov 5, %o0
        ta 2
        mov 0, %o0
        ta 1
|}
  in
  let _, res, _, _ =
    edit_and_run src ~edit:(fun t r -> E.produce_edited_routine t r)
  in
  Alcotest.(check string) "prints 5 through translated jump" "5\n" res.Emu.out

let test_indirect_call_translation () =
  (* function pointers hold original addresses; indirect calls are
     translated at run time *)
  let src =
    {|
        .text
        .global main
main:   mov 21, %o0
        set fptr, %l0
        ld [%l0], %l1
        jmpl %l1, %o7
        nop
        ta 2
|} ^ exit0 ^ {|
double: retl
        add %o0, %o0, %o0
        .data
        .align 4
fptr:   .word double
|}
  in
  let _, res, _, _ =
    edit_and_run src ~edit:(fun t r -> E.produce_edited_routine t r)
  in
  Alcotest.(check string) "prints 42" "42\n" res.Emu.out

let test_callback () =
  (* snippet call-backs receive final words and address (paper §3.5) *)
  let seen_addr = ref 0 in
  let snippet_with_cb =
    Snippet.of_asm mach
      ~callback:(fun ctx ->
        seen_addr := ctx.Snippet.cb_addr;
        Alcotest.(check bool) "words nonempty" true
          (Array.length ctx.Snippet.cb_words > 0))
      "add %v0, 0, %v0\n"
  in
  let _, _, _, t =
    edit_and_run branchy_program ~edit:(fun t r ->
        (if r.E.r_name = "main" then
           let g = E.control_flow_graph t r in
           let ed = E.editor t r in
           let b =
             List.find
               (fun (b : C.block) -> b.C.kind = C.Normal && b.C.reachable)
               (C.blocks g)
           in
           Edit.add_before ed b 0 snippet_with_cb);
        E.produce_edited_routine t r)
  in
  ignore t;
  Alcotest.(check bool) "callback saw an address" true (!seen_addr > 0)

let test_edited_addr () =
  let t = open_exe branchy_program in
  List.iter (fun r -> E.produce_edited_routine t r) (E.routines t);
  let x = E.edited_addr t (E.start_address t) in
  Alcotest.(check bool) "entry has an edited address" true (x <> None);
  Alcotest.(check bool) "edited address differs from original" true
    (x <> Some (E.start_address t))

let test_spill_in_situ () =
  (* force a spill: snippet needing registers at a point where everything
     allocatable is live is hard to fabricate; instead use forbid to shrink
     the pool to nothing so the allocator must spill *)
  let all_but_two =
    Regset.diff mach.Eel_arch.Machine.allocatable (Regset.of_list [ 16; 17 ])
  in
  let spilling_snippet counter =
    Snippet.of_asm mach ~forbid:all_but_two
      ~params:[ ("counter", counter) ]
      {|
        sethi %hi($counter), %v0
        ld [%v0 + %lo($counter)], %v1
        add %v1, 1, %v1
        st %v1, [%v0 + %lo($counter)]
|}
  in
  let counter = ref 0 in
  let _, _, st, _ =
    edit_and_run branchy_program ~edit:(fun t r ->
        (if r.E.r_name = "main" then
           let g = E.control_flow_graph t r in
           let ed = E.editor t r in
           counter := E.reserve_data t 4;
           let loop_block =
             List.find
               (fun (b : C.block) ->
                 match b.C.term with C.T_branch _ -> true | _ -> false)
               (C.blocks g)
           in
           Edit.add_before ed loop_block 0 (spilling_snippet !counter));
        E.produce_edited_routine t r)
  in
  Alcotest.(check int) "spilled snippet still counts 5" 5
    (Eel_util.Bytebuf.get32_be st.Emu.mem !counter)

let test_add_routine_and_call () =
  (* tools can add routines and call them from snippets (Active Memory) *)
  let src = "main: mov 3, %l0\n      mov %l0, %o0\n      ta 2\n" ^ exit0 in
  let counter = ref 0 in
  let _, res, st, _ =
    edit_and_run src ~edit:(fun t r ->
        (if r.E.r_name = "main" then (
           counter := E.reserve_data t 4;
           let handler =
             E.add_routine t ~name:"bump"
               ~params:[ ("counter", !counter) ]
               {|
        sethi %hi($counter), %g1
        ld [%g1 + %lo($counter)], %g2
        add %g2, 1, %g2
        retl
        st %g2, [%g1 + %lo($counter)]
|}
           in
           let g = E.control_flow_graph t r in
           let ed = E.editor t r in
           let call_snip =
             Snippet.of_asm mach
               ~params:[ ("handler", handler) ]
               (* o7 must be preserved around the helper call *)
               {|
        mov %o7, %v0
        call $handler
        nop
        mov %v0, %o7
|}
           in
           let b =
             List.find
               (fun (b : C.block) -> b.C.kind = C.Normal && b.C.reachable)
               (C.blocks g)
           in
           Edit.add_before ed b 0 call_snip));
        E.produce_edited_routine t r)
  in
  Alcotest.(check string) "program output intact" "3\n" res.Emu.out;
  Alcotest.(check int) "handler ran once" 1
    (Eel_util.Bytebuf.get32_be st.Emu.mem !counter)

let test_jump_table_in_text () =
  (* compilers also put dispatch tables in the TEXT segment; EEL must
     (a) classify the table words as data, not code (§3.1), (b) find the
     table by slicing, and (c) rewrite it in place so the edited program
     still dispatches correctly *)
  let src =
    {|
        .text
        .global main
main:   set sel, %l3
        ld [%l3], %o0
        and %o0, 3, %o0
        set Ltab, %l0
        sll %o0, 2, %l1
        ld [%l0 + %l1], %l2
        jmp %l2
        nop
Lc0:    mov 10, %o0
        ba Lend
        nop
Lc1:    mov 20, %o0
        ba Lend
        nop
Lc2:    mov 30, %o0
        ba Lend
        nop
Lc3:    mov 40, %o0
Lend:   ta 2
        mov 0, %o0
        ta 1
        .align 4
Ltab:   .word Lc0, Lc1, Lc2, Lc3
        .data
        .align 4
sel:    .word 2
|}
  in
  let t, _, g = cfg_of_main src in
  Alcotest.(check bool) "complete CFG" true g.C.complete;
  (* the in-text table words are data blocks *)
  Alcotest.(check bool) "table classified as data" true
    (List.exists (fun (b : C.block) -> b.C.is_data) (C.blocks g));
  (match C.indirect_jumps g with
  | [ (b, _) ] -> (
      match b.C.term with
      | C.T_jump { table = Some tbl; _ } ->
          Alcotest.(check int) "four targets" 4 (Array.length tbl.C.t_targets);
          (* the table's address is inside the text segment *)
          Alcotest.(check bool) "table in text" true
            (tbl.C.t_addr >= t.E.text_lo && tbl.C.t_addr < t.E.text_hi)
      | _ -> Alcotest.fail "jump not resolved")
  | _ -> Alcotest.fail "expected one indirect jump");
  (* end-to-end: edited executable dispatches through the rewritten table *)
  let _, res, _, _ = edit_and_run src in
  Alcotest.(check string) "dispatch still correct" "30\n" res.Emu.out

(* ------------------------------------------------------------------ *)
(* Property tests over random workloads                                *)
(* ------------------------------------------------------------------ *)

(* identity editing preserves observable behaviour on arbitrary seeded
   workloads, both compiler styles, with and without symbol tables *)
let prop_identity_random =
  QCheck.Test.make ~name:"identity editing preserves behaviour" ~count:12
    QCheck.(triple (int_bound 1000) bool bool)
    (fun (seed, sunpro, strip) ->
      let style = if sunpro then Eel_workload.Gen.Sunpro else Eel_workload.Gen.Gcc in
      let src =
        Eel_workload.Gen.program
          { Eel_workload.Gen.default with seed; style; routines = 12 }
      in
      let exe = assemble src in
      let exe = if strip then Sef.strip exe else exe in
      let orig, _ = Emu.run_exe exe in
      let t = E.read_contents mach exe in
      let edited = E.to_edited_sef t () in
      let res, _ = Emu.run_exe edited in
      orig.Emu.out = res.Emu.out && orig.Emu.exit_code = res.Emu.exit_code)

(* CFG structural invariants on random workloads *)
let prop_cfg_invariants =
  QCheck.Test.make ~name:"CFG structural invariants" ~count:10
    QCheck.(int_bound 1000)
    (fun seed ->
      let src =
        Eel_workload.Gen.program
          { Eel_workload.Gen.default with seed; routines = 8 }
      in
      let t = E.read_contents mach (assemble src) in
      List.for_all
        (fun r ->
          let g = E.control_flow_graph t r in
          List.for_all
            (fun (b : C.block) ->
              (* succ/pred symmetry *)
              List.for_all
                (fun (e : C.edge) ->
                  e.C.esrc == b && List.memq e e.C.edst.C.preds)
                b.C.succs
              (* delay blocks hold exactly one instruction *)
              && (b.C.kind <> C.Delay || Array.length b.C.instrs = 1)
              (* surrogate and entry/exit blocks are empty *)
              && ((b.C.kind <> C.Call_surrogate && b.C.kind <> C.Entry
                   && b.C.kind <> C.Exit)
                 || Array.length b.C.instrs = 0)
              (* the exit block has no successors *)
              && (b.C.kind <> C.Exit || b.C.succs = [])
              (* data blocks have no successors *)
              && ((not b.C.is_data) || b.C.succs = []))
            (C.blocks g))
        (E.routines t))

(* instrumenting every edge of every block still preserves behaviour *)
let prop_heavy_instrumentation =
  QCheck.Test.make ~name:"dense edge instrumentation preserves behaviour"
    ~count:6
    QCheck.(int_bound 1000)
    (fun seed ->
      let src =
        Eel_workload.Gen.program
          { Eel_workload.Gen.default with seed; routines = 8 }
      in
      let exe = assemble src in
      let orig, _ = Emu.run_exe exe in
      let prof = Eel_tools.Qpt2.instrument mach exe in
      let res, _ = Emu.run_exe prof.Eel_tools.Qpt2.edited in
      orig.Emu.out = res.Emu.out)

let () =
  Alcotest.run "core"
    [
      ( "cfg",
        [
          Alcotest.test_case "shapes" `Quick test_cfg_shapes;
          Alcotest.test_case "annulled normalization" `Quick test_cfg_annulled;
          Alcotest.test_case "call surrogate" `Quick test_cfg_call_surrogate;
          Alcotest.test_case "data in text" `Quick test_cfg_data_in_text;
          Alcotest.test_case "jump table in text" `Quick test_jump_table_in_text;
        ] );
      ( "symtab",
        [
          Alcotest.test_case "hidden routine" `Quick test_hidden_routine;
          Alcotest.test_case "stage1 filtering" `Quick test_stage1_label_filtering;
          Alcotest.test_case "multiple entries" `Quick test_stage3_multiple_entries;
          Alcotest.test_case "stripped" `Quick test_stripped;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "liveness" `Quick test_liveness;
          Alcotest.test_case "dominators+loops" `Quick test_dominators_and_loops;
        ] );
      ( "slice",
        [
          Alcotest.test_case "dispatch table" `Quick test_slice_dispatch_table;
          Alcotest.test_case "literal jump" `Quick test_slice_literal_jump;
          Alcotest.test_case "unanalyzable" `Quick test_slice_unanalyzable;
        ] );
      ( "snippet",
        [
          Alcotest.test_case "scavenging" `Quick test_snippet_scavenging;
          Alcotest.test_case "forbid" `Quick test_snippet_forbid;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_identity_random; prop_cfg_invariants; prop_heavy_instrumentation ] );
      ( "editing",
        [
          Alcotest.test_case "identity re-emit" `Quick test_identity_reemit;
          Alcotest.test_case "identity delay slots" `Quick test_identity_delay_slots;
          Alcotest.test_case "insert before" `Quick test_insert_before;
          Alcotest.test_case "edge counting" `Quick test_edge_counting;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "jump table rewrite" `Quick test_jump_table_rewrite;
          Alcotest.test_case "runtime translation" `Quick test_runtime_translation;
          Alcotest.test_case "indirect call translation" `Quick
            test_indirect_call_translation;
          Alcotest.test_case "callback" `Quick test_callback;
          Alcotest.test_case "edited_addr" `Quick test_edited_addr;
          Alcotest.test_case "spilling" `Quick test_spill_in_situ;
          Alcotest.test_case "add routine" `Quick test_add_routine_and_call;
        ] );
    ]
