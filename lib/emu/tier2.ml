(** Tier-2 execution: hot basic blocks compiled to OCaml closures.

    The tier-1 interpreter ({!Emu.run}) dispatches one predecoded [Insn.t]
    at a time and re-materializes the full pc/npc machine after every
    instruction. This module adds a second tier in the style of a
    baseline JIT: straight-line basic blocks that the program enters often
    enough (a hotness threshold over non-sequential arrivals, the same
    notion of "block entry" as the ground-truth profile) are compiled once
    into a chain of OCaml closures, and compiled blocks link directly to
    their compiled successors, so steady-state execution never consults
    the decoder, the dispatch [match], or the pc/npc registers at all —
    those are materialized only at block boundaries.

    {2 Exactness and OSR deopt}

    The emulator is the repository's ground truth, so tier-2 must be
    {e indistinguishable} from tier-1: same registers, same memory, same
    observable events in the same order, same fault messages at the same
    instruction counts. Anything the straight-line code cannot reproduce
    exactly triggers an on-stack-replacement transfer back to the
    interpreter ("On-Stack Replacement à la Carte" is the playbook): the
    closure materializes pc/npc/ninsns at the current instruction
    boundary, raises {!Deopt}, and the interpreter replays from there.
    Deopt triggers:

    - {b faults} — a compiled memory access or division pre-checks its
      operands and deopts {e before} any side effect, so the interpreter
      replays the instruction and produces the exact fault message,
      [Ob_store]-before-[Ob_fault] event order, and counter values;
    - {b traps} — [Ticc] (syscalls, OS layer) is never compiled; the
      scanner cuts the block before it;
    - {b fuel} — a block is only entered when the remaining budget covers
      its worst-case length, so {!Emu.Out_of_fuel} always fires from the
      interpreter at the exact instruction, mid-block cutoffs included;
    - {b self-modifying code} — a store into a predecoded text segment
      flows through {!Emu.invalidate_code} (keeping the tier-1 array
      coherent) and the {!Emu.t}'s [on_invalidate] hook kills every
      compiled block covering the word and unlinks it from its chain
      predecessors. A block that invalidates {e itself} completes the
      store — its effects are exactly tier-1's — and deopts at the next
      instruction boundary;
    - {b armed instrumentation} — per-instruction hooks, ground-truth
      profiles and poke plans need the interpreter; {!Emu.run} never
      dispatches to tier-2 while one is armed. Observable-event sinks
      ({!Emu.set_obs}) {e are} supported in compiled code: stores emit
      [Ob_store] from the closure with their static pc, after the fault
      pre-check, so the differential oracle can diff a tier-2 run against
      a tier-1 run event-for-event (and does, corpus-wide, in the tests).

    {2 Code cache}

    Compiled blocks are indexed by entry pc; a word-address cover map
    supports invalidation. Chaining installs direct [cblock] references in
    the taken/fall-through slots and records the back-edge, so a kill can
    sever every inbound chain in O(preds). Blocks never survive a store
    into their range — re-arrival recompiles from the fresh bytes. *)

open Eel_sparc
module W = Eel_util.Word

(** Raised (and caught inside {!run}) by compiled code after an OSR state
    transfer: pc/npc/ninsns are materialized and the interpreter takes
    over at that boundary. Never escapes this module. *)
exception Deopt

(** A compiled basic block: up to {!max_body} straight-line instructions
    plus an optional control-transfer terminator with its delay slot
    folded in at compile time. *)
type cblock = {
  cb_pc : int;  (** entry address *)
  cb_len : int;  (** worst-case dynamic instructions per execution *)
  cb_words : int;  (** text words covered (body + terminator + delay) *)
  cb_entry : unit -> int;
      (** run the block; returns the successor pc with pc/npc/ninsns
          already materialized (or raises {!Deopt} / never returns) *)
  mutable cb_taken : cblock option;  (** chained taken successor *)
  mutable cb_fall : cblock option;  (** chained fall-through successor *)
  mutable cb_preds : cblock list;  (** blocks chaining {e to} this one *)
  mutable cb_dead : bool;
}

(** Per-entry-pc compilation state. [Cold] counts non-sequential arrivals
    toward the hotness threshold; [Uncompilable] pins addresses whose
    leading instruction can never head a compiled block (e.g. a trap). *)
type cstate = Cold of int ref | Compiled of cblock | Uncompilable

type t = {
  t2_emu : Emu.t;
  t2_threshold : int;
  t2_entries : (int, cstate) Hashtbl.t;
  t2_cover : (int, cblock list ref) Hashtbl.t;
      (** word address -> compiled blocks whose range covers it *)
  t2_code_lo : int;
  t2_code_hi : int;
      (** hull of the predecoded segments, hoisted from the machine: a
          compiled store inside it calls {!Emu.invalidate_code} *)
  mutable t2_next : int;
      (** successor pc resolved by a block terminator, read by a delay
          slot's OSR materializer (its npc is dynamic) *)
  mutable t2_exit : int;  (** 0 fall / 1 taken / 2 dynamic / 3 cut *)
  mutable t2_cur_pc : int;
      (** entry pc of the block currently executing, or [-1]; live blocks
          have unique entry pcs, so this identifies the block *)
  mutable t2_pending : bool;
      (** the current block invalidated itself; deopt at next boundary *)
  (* stats *)
  mutable t2_compiled : int;
  mutable t2_invalidated : int;
  mutable t2_links : int;
  mutable t2_unlinked : int;
  mutable t2_deopts : int;
  mutable t2_block_runs : int;
  mutable t2_interp_steps : int;
}

(** Longest compiled block body (straight-line instructions before the
    terminator). Generous: corpus blocks are far shorter. *)
let max_body = 64

(** Default hotness threshold: non-sequential arrivals at an entry pc
    before it is compiled. 2 skips one-shot straight-line code (startup)
    while catching every loop on its second iteration. *)
let default_threshold = 2

(* ------------------------------------------------------------------ *)
(* Block discovery                                                     *)
(* ------------------------------------------------------------------ *)

(* Instructions compilable in a block body (and in a delay slot): pure
   register/memory traffic. Control transfers are terminators; Ticc
   (traps/syscalls), Invalid and Unimp always run in the interpreter. *)
let body_ok = function
  | Insn.Sethi _ | Insn.Rdy _ | Insn.Wry _ | Insn.Alu _ -> true
  | Insn.Mem { op = Insn.Ldd | Insn.Std; rd; _ } -> rd land 1 = 0
  | Insn.Mem _ -> true
  | _ -> false

(* A block terminator with everything the compiler needs precomputed.
   [T_cut pc] ends the block before an uncompilable instruction (trap,
   invalid word, segment end, length cap): the block falls back into
   the interpreter at [pc] with no control transfer of its own. *)
type term =
  | T_cut of int
  | T_bicc of { cond : Insn.cond; annul : bool; target : int; bpc : int; delay : Insn.t }
  | T_call of { target : int; bpc : int; delay : Insn.t }
  | T_jmpl of { rs1 : int; op2 : Insn.operand; rd : int; bpc : int; delay : Insn.t }

(* Scan a straight-line block starting at [pc] (word-aligned) in the
   predecoded segment holding it; a block never runs past its segment's
   end. Returns the body instructions and the terminator, or [None] when
   [pc] is in no segment or the very first instruction is uncompilable. *)
let scan (m : Emu.t) pc =
  let si = Emu.seg_index m pc in
  if si < 0 then None
  else
  let { Emu.sg_lo = code_lo; sg_code = code } = m.Emu.segs.(si) in
  let len = Array.length code in
  let idx0 = (pc - code_lo) asr 2 in
  let body = ref [] in
  let rec go i =
    if i >= len || i - idx0 >= max_body then T_cut (code_lo + (i lsl 2))
    else
      let bpc = code_lo + (i lsl 2) in
      match code.(i) with
      | Insn.Bicc { cond; annul; disp22 } when i + 1 < len && body_ok code.(i + 1)
        ->
          T_bicc { cond; annul; target = W.add bpc (disp22 * 4); bpc; delay = code.(i + 1) }
      | Insn.Call { disp30 } when i + 1 < len && body_ok code.(i + 1) ->
          T_call { target = W.add bpc (disp30 * 4); bpc; delay = code.(i + 1) }
      | Insn.Jmpl { rs1; op2; rd } when i + 1 < len && body_ok code.(i + 1) ->
          T_jmpl { rs1; op2; rd; bpc; delay = code.(i + 1) }
      | insn when body_ok insn ->
          body := insn :: !body;
          go (i + 1)
      | _ -> T_cut bpc
  in
  let term = go idx0 in
  let body = Array.of_list (List.rev !body) in
  match term with
  | T_cut _ when Array.length body = 0 -> None
  | _ -> Some (body, term)

(* ------------------------------------------------------------------ *)
(* OSR state transfer                                                  *)
(* ------------------------------------------------------------------ *)

(* Materialize the interpreter state at an instruction boundary and bail.
   [n] is the count of dynamic instructions the block has fully executed
   (they are the only effects applied so far). *)
let osr st ~pc ~npc ~n : 'a =
  let m = st.t2_emu in
  m.Emu.pc <- pc;
  m.Emu.npc <- npc;
  m.Emu.ninsns <- m.Emu.ninsns + n;
  st.t2_deopts <- st.t2_deopts + 1;
  raise Deopt

(* Terminator epilogue: materialize the block-boundary machine state and
   hand the successor pc to the chain driver. *)
let finish (m : Emu.t) n next =
  m.Emu.pc <- next;
  m.Emu.npc <- next + 4;
  m.Emu.ninsns <- m.Emu.ninsns + n;
  next

(* ------------------------------------------------------------------ *)
(* The instruction compiler                                            *)
(* ------------------------------------------------------------------ *)

(* Compile one straight-line instruction into a closure that applies its
   effects and tail-calls [k]. [pci] is the instruction's address, [n]
   how many dynamic instructions the block has consumed before it;
   [dslot] marks the folded delay slot, whose OSR npc is the resolved
   branch successor ([st.t2_next]) rather than [pci + 4].

   Exactness contract: a closure either applies ALL of the instruction's
   architectural effects and continues, or applies NONE and performs an
   OSR transfer at this instruction's boundary so the interpreter replays
   it — faults, event emission and counters then come out of tier-1 in
   tier-1's order. The one exception is a store that invalidates its own
   block: the store completes (its effects are exactly tier-1's, which
   does not deopt at all here) and the transfer happens at the NEXT
   boundary. *)
let compile_insn st ~pci ~n ~dslot insn k =
  let m = st.t2_emu in
  let regs = m.Emu.regs and mem = m.Emu.mem in
  let mem_len = Bytes.length mem in
  let code_lo = st.t2_code_lo and code_hi = st.t2_code_hi in
  (* register reads skip the %g0 special case: regs.(0) is invariantly 0
     (writes to rd=0 are compiled out below, and [Emu.set_reg] guards the
     interpreter's). Indices are 5-bit fields from the decoder, in range
     for the unsafe accessors. *)
  let deopt_before () =
    if dslot then osr st ~pc:pci ~npc:st.t2_next ~n
    else osr st ~pc:pci ~npc:(pci + 4) ~n
  in
  let deopt_after_store () =
    if dslot then
      let nx = st.t2_next in
      osr st ~pc:nx ~npc:(nx + 4) ~n:(n + 1)
    else osr st ~pc:(pci + 4) ~npc:(pci + 8) ~n:(n + 1)
  in
  (* a store that just landed in text: tier-1's array is already coherent
     ([Emu.invalidate_code] ran); kill covering blocks and, if one of
     them is the block being executed, deopt at the next boundary *)
  let text_store a =
    Emu.invalidate_code m a;
    if st.t2_pending then begin
      st.t2_pending <- false;
      deopt_after_store ()
    end
  in
  match insn with
  | Insn.Sethi { rd = 0; _ } -> k (* the canonical nop *)
  | Insn.Sethi { rd; imm22 } ->
      let v = imm22 lsl 10 in
      fun () ->
        Array.unsafe_set regs rd v;
        k ()
  | Insn.Rdy { rd } ->
      if rd = 0 then k
      else
        fun () ->
          Array.unsafe_set regs rd (Array.unsafe_get regs Regs.y);
          k ()
  | Insn.Wry { rs1; op2 } -> (
      match op2 with
      | Insn.O_imm i ->
          let b = W.mask i in
          fun () ->
            Array.unsafe_set regs Regs.y (Array.unsafe_get regs rs1 lxor b);
            k ()
      | Insn.O_reg r ->
          fun () ->
            Array.unsafe_set regs Regs.y
              (Array.unsafe_get regs rs1 lxor Array.unsafe_get regs r);
            k ())
  | Insn.Alu { op; rs1; op2; rd } -> (
      (* generic builders for the colder ops; the hot ones below get
         fully specialized closures (no indirect call per instruction) *)
      let pure f =
        match op2 with
        | Insn.O_imm i ->
            let b = W.mask i in
            if rd = 0 then k
            else
              fun () ->
                Array.unsafe_set regs rd (f (Array.unsafe_get regs rs1) b);
                k ()
        | Insn.O_reg r ->
            if rd = 0 then k
            else
              fun () ->
                Array.unsafe_set regs rd
                  (f (Array.unsafe_get regs rs1) (Array.unsafe_get regs r));
                k ()
      in
      let ccop f =
        (* f a b computes the result; icc derives from (a, b, result) *)
        let fin =
          match op with
          | Insn.Andcc | Insn.Orcc | Insn.Xorcc ->
              fun a b ->
                let r = f a b in
                if rd <> 0 then Array.unsafe_set regs rd r;
                Array.unsafe_set regs Regs.icc (Emu.icc_logic r)
          | Insn.Addcc ->
              fun a b ->
                let r = f a b in
                if rd <> 0 then Array.unsafe_set regs rd r;
                Array.unsafe_set regs Regs.icc (Emu.icc_add a b r)
          | _ ->
              fun a b ->
                let r = f a b in
                if rd <> 0 then Array.unsafe_set regs rd r;
                Array.unsafe_set regs Regs.icc (Emu.icc_sub a b r)
        in
        match op2 with
        | Insn.O_imm i ->
            let b = W.mask i in
            fun () ->
              fin (Array.unsafe_get regs rs1) b;
              k ()
        | Insn.O_reg r ->
            fun () ->
              fin (Array.unsafe_get regs rs1) (Array.unsafe_get regs r);
              k ()
      in
      match op with
      | Insn.Add | Insn.Save | Insn.Restore -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd
                    ((Array.unsafe_get regs rs1 + b) land 0xFFFF_FFFF);
                  k ()
          | Insn.O_reg r ->
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd
                    ((Array.unsafe_get regs rs1 + Array.unsafe_get regs r)
                    land 0xFFFF_FFFF);
                  k ())
      | Insn.Sub -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd
                    ((Array.unsafe_get regs rs1 - b) land 0xFFFF_FFFF);
                  k ()
          | Insn.O_reg r ->
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd
                    ((Array.unsafe_get regs rs1 - Array.unsafe_get regs r)
                    land 0xFFFF_FFFF);
                  k ())
      | Insn.Or -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd (Array.unsafe_get regs rs1 lor b);
                  k ()
          | Insn.O_reg r ->
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd
                    (Array.unsafe_get regs rs1 lor Array.unsafe_get regs r);
                  k ())
      | Insn.And -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd (Array.unsafe_get regs rs1 land b);
                  k ()
          | Insn.O_reg r ->
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd
                    (Array.unsafe_get regs rs1 land Array.unsafe_get regs r);
                  k ())
      | Insn.Xor -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd (Array.unsafe_get regs rs1 lxor b);
                  k ()
          | Insn.O_reg r ->
              if rd = 0 then k
              else
                fun () ->
                  Array.unsafe_set regs rd
                    (Array.unsafe_get regs rs1 lxor Array.unsafe_get regs r);
                  k ())
      | Insn.Subcc -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              if rd = 0 then
                fun () ->
                  let a = Array.unsafe_get regs rs1 in
                  Array.unsafe_set regs Regs.icc
                    (Emu.icc_sub a b ((a - b) land 0xFFFF_FFFF));
                  k ()
              else
                fun () ->
                  let a = Array.unsafe_get regs rs1 in
                  let r = (a - b) land 0xFFFF_FFFF in
                  Array.unsafe_set regs rd r;
                  Array.unsafe_set regs Regs.icc (Emu.icc_sub a b r);
                  k ()
          | Insn.O_reg rr ->
              if rd = 0 then
                fun () ->
                  let a = Array.unsafe_get regs rs1
                  and b = Array.unsafe_get regs rr in
                  Array.unsafe_set regs Regs.icc
                    (Emu.icc_sub a b ((a - b) land 0xFFFF_FFFF));
                  k ()
              else
                fun () ->
                  let a = Array.unsafe_get regs rs1
                  and b = Array.unsafe_get regs rr in
                  let r = (a - b) land 0xFFFF_FFFF in
                  Array.unsafe_set regs rd r;
                  Array.unsafe_set regs Regs.icc (Emu.icc_sub a b r);
                  k ())
      | Insn.Addcc -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              if rd = 0 then
                fun () ->
                  let a = Array.unsafe_get regs rs1 in
                  Array.unsafe_set regs Regs.icc
                    (Emu.icc_add a b ((a + b) land 0xFFFF_FFFF));
                  k ()
              else
                fun () ->
                  let a = Array.unsafe_get regs rs1 in
                  let r = (a + b) land 0xFFFF_FFFF in
                  Array.unsafe_set regs rd r;
                  Array.unsafe_set regs Regs.icc (Emu.icc_add a b r);
                  k ()
          | Insn.O_reg rr ->
              if rd = 0 then
                fun () ->
                  let a = Array.unsafe_get regs rs1
                  and b = Array.unsafe_get regs rr in
                  Array.unsafe_set regs Regs.icc
                    (Emu.icc_add a b ((a + b) land 0xFFFF_FFFF));
                  k ()
              else
                fun () ->
                  let a = Array.unsafe_get regs rs1
                  and b = Array.unsafe_get regs rr in
                  let r = (a + b) land 0xFFFF_FFFF in
                  Array.unsafe_set regs rd r;
                  Array.unsafe_set regs Regs.icc (Emu.icc_add a b r);
                  k ())
      | Insn.Sll -> pure (fun a b -> W.sll a b)
      | Insn.Srl -> pure (fun a b -> W.srl a b)
      | Insn.Sra -> pure (fun a b -> W.sra a b)
      | Insn.Andn -> pure (fun a b -> a land W.mask (lnot b))
      | Insn.Orn -> pure (fun a b -> a lor W.mask (lnot b))
      | Insn.Xnor -> pure (fun a b -> W.mask (lnot (a lxor b)))
      | Insn.Andcc -> ccop (fun a b -> a land b)
      | Insn.Orcc -> ccop (fun a b -> a lor b)
      | Insn.Xorcc -> ccop (fun a b -> a lxor b)
      | Insn.Umul ->
          (* replicate the interpreter's expressions verbatim (including
             its 63-bit overflow behaviour on huge products) *)
          let fin a b =
            let p = a * b in
            Array.unsafe_set regs Regs.y (W.mask (p lsr 32));
            if rd <> 0 then Array.unsafe_set regs rd (W.mask p)
          in
          (match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              fun () ->
                fin (Array.unsafe_get regs rs1) b;
                k ()
          | Insn.O_reg r ->
              fun () ->
                fin (Array.unsafe_get regs rs1) (Array.unsafe_get regs r);
                k ())
      | Insn.Smul ->
          let fin a b =
            let p = W.signed a * W.signed b in
            Array.unsafe_set regs Regs.y ((p asr 32) land W.mask32);
            if rd <> 0 then Array.unsafe_set regs rd (W.mask p)
          in
          (match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              fun () ->
                fin (Array.unsafe_get regs rs1) b;
                k ()
          | Insn.O_reg r ->
              fun () ->
                fin (Array.unsafe_get regs rs1) (Array.unsafe_get regs r);
                k ())
      | Insn.Udiv ->
          let fin a b =
            if b = 0 then deopt_before ();
            let dividend = (Array.unsafe_get regs Regs.y lsl 32) lor a in
            if rd <> 0 then Array.unsafe_set regs rd (W.mask (dividend / b))
          in
          (match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              fun () ->
                fin (Array.unsafe_get regs rs1) b;
                k ()
          | Insn.O_reg r ->
              fun () ->
                fin (Array.unsafe_get regs rs1) (Array.unsafe_get regs r);
                k ())
      | Insn.Sdiv ->
          let fin a b =
            if b = 0 then deopt_before ();
            let hi = W.signed (Array.unsafe_get regs Regs.y) in
            let dividend = (hi * 4294967296) + a in
            if rd <> 0 then
              Array.unsafe_set regs rd (W.of_signed (dividend / W.signed b))
          in
          (match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              fun () ->
                fin (Array.unsafe_get regs rs1) b;
                k ()
          | Insn.O_reg r ->
              fun () ->
                fin (Array.unsafe_get regs rs1) (Array.unsafe_get regs r);
                k ()))
  | Insn.Mem { op; rs1; op2; rd } -> (
      (* one Ob_store per store, before the memory write, value read with
         the %g0 convention — matching [Emu.exec_insn] exactly. Loads
         emit nothing (and hooks are never armed while tier-2 runs). *)
      let emit_store a width =
        match m.Emu.obs with
        | None -> ()
        | Some _ ->
            Emu.obs_emit m
              (Emu.Ob_store
                 { pc = pci; addr = a; width; value = Array.unsafe_get regs rd })
      in
      let addr_of =
        match op2 with
        | Insn.O_imm i ->
            let b = W.mask i in
            fun () -> (Array.unsafe_get regs rs1 + b) land 0xFFFF_FFFF
        | Insn.O_reg r ->
            fun () ->
              (Array.unsafe_get regs rs1 + Array.unsafe_get regs r)
              land 0xFFFF_FFFF
      in
      match op with
      | Insn.Ld -> (
          (* the hot one: specialize on the operand kind so the address
             computation is a single closure body with no inner call *)
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              fun () ->
                let a = (Array.unsafe_get regs rs1 + b) land 0xFFFF_FFFF in
                if a + 4 > mem_len || a land 3 <> 0 then deopt_before ();
                m.Emu.nloads <- m.Emu.nloads + 1;
                if rd <> 0 then
                  Array.unsafe_set regs rd (Eel_util.Bytebuf.get32_be mem a);
                k ()
          | Insn.O_reg r ->
              fun () ->
                let a =
                  (Array.unsafe_get regs rs1 + Array.unsafe_get regs r)
                  land 0xFFFF_FFFF
                in
                if a + 4 > mem_len || a land 3 <> 0 then deopt_before ();
                m.Emu.nloads <- m.Emu.nloads + 1;
                if rd <> 0 then
                  Array.unsafe_set regs rd (Eel_util.Bytebuf.get32_be mem a);
                k ())
      | Insn.Ldub ->
          fun () ->
            let a = addr_of () in
            if a >= mem_len then deopt_before ();
            m.Emu.nloads <- m.Emu.nloads + 1;
            if rd <> 0 then
              Array.unsafe_set regs rd (Char.code (Bytes.unsafe_get mem a));
            k ()
      | Insn.Ldsb ->
          fun () ->
            let a = addr_of () in
            if a >= mem_len then deopt_before ();
            m.Emu.nloads <- m.Emu.nloads + 1;
            if rd <> 0 then
              Array.unsafe_set regs rd
                (W.mask (W.sext 8 (Char.code (Bytes.unsafe_get mem a))));
            k ()
      | Insn.Lduh ->
          fun () ->
            let a = addr_of () in
            if a + 2 > mem_len || a land 1 <> 0 then deopt_before ();
            m.Emu.nloads <- m.Emu.nloads + 1;
            if rd <> 0 then
              Array.unsafe_set regs rd
                ((Char.code (Bytes.unsafe_get mem a) lsl 8)
                lor Char.code (Bytes.unsafe_get mem (a + 1)));
            k ()
      | Insn.Ldsh ->
          fun () ->
            let a = addr_of () in
            if a + 2 > mem_len || a land 1 <> 0 then deopt_before ();
            m.Emu.nloads <- m.Emu.nloads + 1;
            if rd <> 0 then
              Array.unsafe_set regs rd
                (W.mask
                   (W.sext 16
                      ((Char.code (Bytes.unsafe_get mem a) lsl 8)
                      lor Char.code (Bytes.unsafe_get mem (a + 1)))));
            k ()
      | Insn.Ldd ->
          (* both word accesses pre-checked: tier-1 faults on the second
             word only after writing rd, so a partial pair must replay *)
          fun () ->
            let a = addr_of () in
            if a + 8 > mem_len || a land 3 <> 0 then deopt_before ();
            m.Emu.nloads <- m.Emu.nloads + 1;
            if rd <> 0 then
              Array.unsafe_set regs rd (Eel_util.Bytebuf.get32_be mem a);
            Array.unsafe_set regs (rd + 1)
              (Eel_util.Bytebuf.get32_be mem (a + 4));
            k ()
      | Insn.St -> (
          match op2 with
          | Insn.O_imm i ->
              let b = W.mask i in
              fun () ->
                let a = (Array.unsafe_get regs rs1 + b) land 0xFFFF_FFFF in
                if a + 4 > mem_len || a land 3 <> 0 then deopt_before ();
                m.Emu.nstores <- m.Emu.nstores + 1;
                emit_store a 4;
                Eel_util.Bytebuf.set32_be mem a (Array.unsafe_get regs rd);
                if a >= code_lo && a < code_hi then text_store a;
                k ()
          | Insn.O_reg r ->
              fun () ->
                let a =
                  (Array.unsafe_get regs rs1 + Array.unsafe_get regs r)
                  land 0xFFFF_FFFF
                in
                if a + 4 > mem_len || a land 3 <> 0 then deopt_before ();
                m.Emu.nstores <- m.Emu.nstores + 1;
                emit_store a 4;
                Eel_util.Bytebuf.set32_be mem a (Array.unsafe_get regs rd);
                if a >= code_lo && a < code_hi then text_store a;
                k ())
      | Insn.Stb ->
          fun () ->
            let a = addr_of () in
            if a >= mem_len then deopt_before ();
            m.Emu.nstores <- m.Emu.nstores + 1;
            emit_store a 1;
            Bytes.unsafe_set mem a
              (Char.unsafe_chr (Array.unsafe_get regs rd land 0xFF));
            if a >= code_lo && a < code_hi then text_store a;
            k ()
      | Insn.Sth ->
          fun () ->
            let a = addr_of () in
            if a + 2 > mem_len || a land 1 <> 0 then deopt_before ();
            m.Emu.nstores <- m.Emu.nstores + 1;
            emit_store a 2;
            let v = Array.unsafe_get regs rd in
            Bytes.unsafe_set mem a (Char.unsafe_chr ((v lsr 8) land 0xFF));
            Bytes.unsafe_set mem (a + 1) (Char.unsafe_chr (v land 0xFF));
            if a >= code_lo && a < code_hi then text_store a;
            k ()
      | Insn.Std ->
          (* one event (width 8, value = the even register), both word
             writes, then a single pending-deopt check: the second write
             must land even when the first word invalidated this block *)
          fun () ->
            let a = addr_of () in
            if a + 8 > mem_len || a land 3 <> 0 then deopt_before ();
            m.Emu.nstores <- m.Emu.nstores + 1;
            emit_store a 8;
            Eel_util.Bytebuf.set32_be mem a (Array.unsafe_get regs rd);
            Eel_util.Bytebuf.set32_be mem (a + 4) (Array.unsafe_get regs (rd + 1));
            if a + 8 > code_lo && a < code_hi then begin
              if a >= code_lo && a < code_hi then Emu.invalidate_code m a;
              (let a4 = a + 4 in
               if a4 >= code_lo && a4 < code_hi then Emu.invalidate_code m a4);
              if st.t2_pending then begin
                st.t2_pending <- false;
                deopt_after_store ()
              end
            end;
            k ())
  | _ ->
      (* the scanner admits nothing else into a body or delay slot *)
      assert false

(* ------------------------------------------------------------------ *)
(* The block compiler                                                  *)
(* ------------------------------------------------------------------ *)

(* Compile the terminator (+ folded delay slot) into the block's tail
   closure. The terminator resolves the successor FIRST (so a deopting
   delay slot knows its npc via [st.t2_next]), then runs the delay
   closure, then materializes the boundary state via [finish]. *)
let compile_term st ~nb term =
  let m = st.t2_emu in
  let regs = m.Emu.regs in
  let delay_of d bpc = compile_insn st ~pci:(bpc + 4) ~n:(nb + 1) ~dslot:true d (fun () -> ()) in
  match term with
  | T_cut cut_pc ->
      fun () ->
        st.t2_exit <- 3;
        finish m nb cut_pc
  | T_bicc { cond; annul; target; bpc; delay } -> (
      let delay_k = delay_of delay bpc in
      let fall = bpc + 8 in
      match cond with
      | Insn.CA ->
          if annul then
            fun () ->
              st.t2_exit <- 1;
              finish m (nb + 1) target
          else
            fun () ->
              st.t2_exit <- 1;
              st.t2_next <- target;
              delay_k ();
              finish m (nb + 2) target
      | Insn.CN ->
          if annul then
            fun () ->
              st.t2_exit <- 0;
              finish m (nb + 1) fall
          else
            fun () ->
              st.t2_exit <- 0;
              st.t2_next <- fall;
              delay_k ();
              finish m (nb + 2) fall
      | _ ->
          if annul then
            fun () ->
              if Insn.cond_eval cond (Array.unsafe_get regs Regs.icc) then begin
                st.t2_exit <- 1;
                st.t2_next <- target;
                delay_k ();
                finish m (nb + 2) target
              end
              else begin
                st.t2_exit <- 0;
                finish m (nb + 1) fall
              end
          else
            fun () ->
              if Insn.cond_eval cond (Array.unsafe_get regs Regs.icc) then begin
                st.t2_exit <- 1;
                st.t2_next <- target;
                delay_k ();
                finish m (nb + 2) target
              end
              else begin
                st.t2_exit <- 0;
                st.t2_next <- fall;
                delay_k ();
                finish m (nb + 2) fall
              end)
  | T_call { target; bpc; delay } ->
      let delay_k = delay_of delay bpc in
      fun () ->
        Array.unsafe_set regs Regs.o7 bpc;
        st.t2_exit <- 1;
        st.t2_next <- target;
        delay_k ();
        finish m (nb + 2) target
  | T_jmpl { rs1; op2; rd; bpc; delay } -> (
      let delay_k = delay_of delay bpc in
      (* target latched from register values BEFORE the rd write and the
         delay slot, as in tier-1 (where next_npc is latched) *)
      match op2 with
      | Insn.O_imm i ->
          let b = W.mask i in
          if rd = 0 then
            fun () ->
              let target = (Array.unsafe_get regs rs1 + b) land 0xFFFF_FFFF in
              st.t2_exit <- 2;
              st.t2_next <- target;
              delay_k ();
              finish m (nb + 2) target
          else
            fun () ->
              let target = (Array.unsafe_get regs rs1 + b) land 0xFFFF_FFFF in
              Array.unsafe_set regs rd bpc;
              st.t2_exit <- 2;
              st.t2_next <- target;
              delay_k ();
              finish m (nb + 2) target
      | Insn.O_reg r ->
          if rd = 0 then
            fun () ->
              let target =
                (Array.unsafe_get regs rs1 + Array.unsafe_get regs r)
                land 0xFFFF_FFFF
              in
              st.t2_exit <- 2;
              st.t2_next <- target;
              delay_k ();
              finish m (nb + 2) target
          else
            fun () ->
              let target =
                (Array.unsafe_get regs rs1 + Array.unsafe_get regs r)
                land 0xFFFF_FFFF
              in
              Array.unsafe_set regs rd bpc;
              st.t2_exit <- 2;
              st.t2_next <- target;
              delay_k ();
              finish m (nb + 2) target)

let cover_add st wa cb =
  match Hashtbl.find_opt st.t2_cover wa with
  | Some l -> l := cb :: !l
  | None -> Hashtbl.add st.t2_cover wa (ref [ cb ])

(* Compile the block at [pc] and register it in the cache. [None] when
   the leading instruction cannot head a block. *)
let compile st pc =
  match scan st.t2_emu pc with
  | None -> None
  | Some (body, term) ->
      let nb = Array.length body in
      let words, len =
        match term with
        | T_cut _ -> (nb, nb)
        | _ -> (nb + 2, nb + 2)
      in
      let tail = compile_term st ~nb term in
      let entry = ref tail in
      for i = nb - 1 downto 0 do
        entry := compile_insn st ~pci:(pc + (i lsl 2)) ~n:i ~dslot:false body.(i) !entry
      done;
      let cb =
        {
          cb_pc = pc;
          cb_len = len;
          cb_words = words;
          cb_entry = !entry;
          cb_taken = None;
          cb_fall = None;
          cb_preds = [];
          cb_dead = false;
        }
      in
      for w = 0 to words - 1 do
        cover_add st (pc + (w lsl 2)) cb
      done;
      st.t2_compiled <- st.t2_compiled + 1;
      Hashtbl.replace st.t2_entries pc (Compiled cb);
      Some cb

(* ------------------------------------------------------------------ *)
(* Invalidation                                                        *)
(* ------------------------------------------------------------------ *)

let kill st cb =
  if not cb.cb_dead then begin
    cb.cb_dead <- true;
    st.t2_invalidated <- st.t2_invalidated + 1;
    (match Hashtbl.find_opt st.t2_entries cb.cb_pc with
    | Some (Compiled cb') when cb' == cb -> Hashtbl.remove st.t2_entries cb.cb_pc
    | _ -> ());
    for w = 0 to cb.cb_words - 1 do
      match Hashtbl.find_opt st.t2_cover (cb.cb_pc + (w lsl 2)) with
      | Some l -> l := List.filter (fun b -> b != cb) !l
      | None -> ()
    done;
    (* sever every inbound chain: a predecessor must re-resolve (and
       recompile) instead of jumping into stale code *)
    List.iter
      (fun p ->
        (match p.cb_taken with
        | Some b when b == cb ->
            p.cb_taken <- None;
            st.t2_unlinked <- st.t2_unlinked + 1
        | _ -> ());
        match p.cb_fall with
        | Some b when b == cb ->
            p.cb_fall <- None;
            st.t2_unlinked <- st.t2_unlinked + 1
        | _ -> ())
      cb.cb_preds;
    cb.cb_preds <- [];
    cb.cb_taken <- None;
    cb.cb_fall <- None;
    if cb.cb_pc = st.t2_cur_pc then st.t2_pending <- true
  end

(* [on_invalidate] hook: a store or poke re-decoded the word at [wa];
   every compiled block covering it is now stale. *)
let invalidate st wa =
  match Hashtbl.find_opt st.t2_cover wa with
  | None -> ()
  | Some l -> ( match !l with [] -> () | bs -> List.iter (kill st) bs)

(* ------------------------------------------------------------------ *)
(* Arrival resolution and the chain driver                             *)
(* ------------------------------------------------------------------ *)

type res = R_run of cblock | R_cold | R_uncomp | R_skip

(* A block entry is an arrival at a word-aligned, sequential-state pc
   inside a predecoded segment. Bumps the hotness counter; compiles at
   the threshold. Only in-segment pcs ever enter [t2_entries], so the
   segment search runs once per new pc, not on every arrival. *)
let resolve st pc =
  let m = st.t2_emu in
  if pc land 3 <> 0 || m.Emu.npc <> pc + 4 || pc < st.t2_code_lo
     || pc >= st.t2_code_hi
  then R_skip
  else
    match Hashtbl.find_opt st.t2_entries pc with
    | Some (Compiled cb) -> R_run cb
    | Some Uncompilable -> R_uncomp
    | Some (Cold r) ->
        incr r;
        if !r >= st.t2_threshold then
          match compile st pc with
          | Some cb -> R_run cb
          | None ->
              Hashtbl.replace st.t2_entries pc Uncompilable;
              R_uncomp
        else R_cold
    | None when Emu.seg_index m pc < 0 -> R_skip
    | None ->
        if st.t2_threshold <= 1 then
          match compile st pc with
          | Some cb -> R_run cb
          | None ->
              Hashtbl.add st.t2_entries pc Uncompilable;
              R_uncomp
        else begin
          Hashtbl.add st.t2_entries pc (Cold (ref 1));
          R_cold
        end

(* Run [cb] and keep chaining while successors are compiled and the fuel
   budget covers their worst case. Chain slots are installed on the
   static taken/fall-through edges only; a dynamic (jmpl) successor is
   re-resolved every time. All recursive calls are tail calls. *)
let rec chain st fuel cb =
  let m = st.t2_emu in
  st.t2_block_runs <- st.t2_block_runs + 1;
  st.t2_cur_pc <- cb.cb_pc;
  match cb.cb_entry () with
  | exception Deopt -> st.t2_cur_pc <- -1
  | next -> (
      st.t2_cur_pc <- -1;
      match st.t2_exit with
      | 0 | 1 -> (
          let taken = st.t2_exit = 1 in
          match if taken then cb.cb_taken else cb.cb_fall with
          | Some nxt ->
              if fuel - m.Emu.ninsns >= nxt.cb_len then chain st fuel nxt
          | None -> (
              match resolve st next with
              | R_run nxt ->
                  if taken then cb.cb_taken <- Some nxt
                  else cb.cb_fall <- Some nxt;
                  nxt.cb_preds <- cb :: nxt.cb_preds;
                  st.t2_links <- st.t2_links + 1;
                  if fuel - m.Emu.ninsns >= nxt.cb_len then chain st fuel nxt
              | _ -> ()))
      | 2 -> (
          match resolve st next with
          | R_run nxt when fuel - m.Emu.ninsns >= nxt.cb_len ->
              chain st fuel nxt
          | _ -> ())
      | _ -> ())

(* The engine's outer loop ({!Emu.t}'s [alt_run]): interpret one
   instruction at a time, watching for block-entry arrivals; once an
   arrival is hot its compiled block (and everything chained behind it)
   runs without touching pc/npc. Fuel is enforced here and by the
   chain driver's worst-case entry gate, so {!Emu.Out_of_fuel} always
   fires from the interpreter loop at the exact cutoff. *)
let run st fuel =
  let m = st.t2_emu in
  (* the entry point is an arrival; thereafter any non-sequential pc is *)
  let arrival = ref true in
  while m.Emu.exited = None do
    if m.Emu.ninsns >= fuel then raise Emu.Out_of_fuel;
    let pc0 = m.Emu.pc in
    if !arrival then begin
      match resolve st pc0 with
      | R_run cb when fuel - m.Emu.ninsns >= cb.cb_len ->
          let d0 = st.t2_deopts in
          chain st fuel cb;
          (* chain exits at a block boundary: still an arrival. After an
             OSR transfer, though, the resumed pc must take at least one
             tier-1 step: a deopt-before cause (div-by-zero, a faulting
             access) would recur identically if the pc were re-resolved
             into a block whose leader is the deopting instruction. *)
          if st.t2_deopts > d0 && m.Emu.exited = None && m.Emu.ninsns < fuel
          then begin
            let p = m.Emu.pc in
            Emu.step_plain m;
            st.t2_interp_steps <- st.t2_interp_steps + 1;
            arrival := m.Emu.pc <> p + 4
          end
      | r ->
          Emu.step_plain m;
          st.t2_interp_steps <- st.t2_interp_steps + 1;
          (* after an uncompilable leader (a trap, say), the sequential
             successor is a fresh leader too — without this, the tail
             after every syscall would never tier up *)
          arrival :=
            m.Emu.pc <> pc0 + 4 || (match r with R_uncomp -> true | _ -> false)
    end
    else begin
      Emu.step_plain m;
      st.t2_interp_steps <- st.t2_interp_steps + 1;
      arrival := m.Emu.pc <> pc0 + 4
    end
  done

(* ------------------------------------------------------------------ *)
(* Attachment and inquiry                                              *)
(* ------------------------------------------------------------------ *)

(** [attach ?threshold m] installs the tier-2 engine on a loaded machine:
    {!Emu.run} will dispatch whole-run execution to it whenever no
    per-instruction instrumentation is armed, and every text invalidation
    is forwarded to the code cache. Returns [None] when the machine has
    no predecoded text (tier-2 rides on the predecoded segments). *)
let attach ?(threshold = default_threshold) (m : Emu.t) =
  if Array.length m.Emu.segs = 0 then None
  else begin
    let st =
      {
        t2_emu = m;
        t2_threshold = max 1 threshold;
        t2_entries = Hashtbl.create 256;
        t2_cover = Hashtbl.create 1024;
        t2_code_lo = m.Emu.text_lo;
        t2_code_hi = m.Emu.text_hi;
        t2_next = 0;
        t2_exit = 0;
        t2_cur_pc = -1;
        t2_pending = false;
        t2_compiled = 0;
        t2_invalidated = 0;
        t2_links = 0;
        t2_unlinked = 0;
        t2_deopts = 0;
        t2_block_runs = 0;
        t2_interp_steps = 0;
      }
    in
    m.Emu.on_invalidate <- Some (invalidate st);
    m.Emu.alt_run <- Some (run st);
    Some st
  end

(** [detach m] removes any attached engine (the machine reverts to pure
    tier-1 interpretation). *)
let detach (m : Emu.t) =
  m.Emu.alt_run <- None;
  m.Emu.on_invalidate <- None

type stats = {
  st_compiled : int;  (** blocks compiled (lifetime) *)
  st_live : int;  (** compiled blocks currently in the cache *)
  st_invalidated : int;  (** blocks killed by stores/pokes into text *)
  st_links : int;  (** direct block-to-block chains installed *)
  st_unlinked : int;  (** chain slots severed by invalidation *)
  st_deopts : int;  (** OSR transfers back to the interpreter *)
  st_block_runs : int;  (** compiled block executions *)
  st_interp_steps : int;  (** instructions run in the tier-1 loop *)
}

let stats st =
  let live =
    Hashtbl.fold
      (fun _ s acc -> match s with Compiled _ -> acc + 1 | _ -> acc)
      st.t2_entries 0
  in
  {
    st_compiled = st.t2_compiled;
    st_live = live;
    st_invalidated = st.t2_invalidated;
    st_links = st.t2_links;
    st_unlinked = st.t2_unlinked;
    st_deopts = st.t2_deopts;
    st_block_runs = st.t2_block_runs;
    st_interp_steps = st.t2_interp_steps;
  }

let summary st =
  let s = stats st in
  Printf.sprintf
    "blocks=%d live=%d execs=%d links=%d deopts=%d invalidated=%d unlinked=%d interp-insns=%d"
    s.st_compiled s.st_live s.st_block_runs s.st_links s.st_deopts
    s.st_invalidated s.st_unlinked s.st_interp_steps

(* ------------------------------------------------------------------ *)
(* Tier selection (shared by the CLIs, the oracle and the bench)       *)
(* ------------------------------------------------------------------ *)

(** The three execution tiers. [Interp] decodes every step, [Predecode]
    dispatches each text section's [Insn.t] array one instruction at a time,
    [Block] adds this module's compiled blocks on top of predecode. *)
type tier = Interp | Predecode | Block

let tier_name = function
  | Interp -> "interp"
  | Predecode -> "predecode"
  | Block -> "block"

let tier_of_string = function
  | "interp" -> Some Interp
  | "predecode" -> Some Predecode
  | "block" -> Some Block
  | _ -> None

let all_tiers = [ Interp; Predecode; Block ]
