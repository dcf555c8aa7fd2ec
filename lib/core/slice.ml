open Eel_arch
module C = Cfg

type jump_resolution =
  | Literal of int
  | Dispatch of C.table
  | Unanalyzable

let max_depth = 64

let max_table_entries = 4096

(* [const_before g b idx r] — the constant value of register [r] immediately
   before position [idx] of block [b] (positions index Cfg.all_instrs), or
   None. Joins over predecessors must agree. *)
let rec const_before (g : C.t) visited depth (b : C.block) idx r =
  if r = -1 then None
  else if Regset.mem r g.C.mach.Machine.zero_regs then Some 0
  else if depth > max_depth then None
  else
    let instrs = C.all_instrs_array b in
    let rec scan k =
      if k < 0 then at_block_entry g visited depth b r
      else
        let _, (i : Instr.t) = instrs.(k) in
        if Regset.mem r (Machine.real_writes g.C.mach i) then
          (* found the defining instruction: fold it *)
          let read reg = const_before g visited (depth + 1) b k reg in
          match g.C.mach.Machine.eval_compute i ~read with
          | Some (rd, v) when rd = r -> Some v
          | _ -> None
        else scan (k - 1)
    in
    scan (min (idx - 1) (Array.length instrs - 1))

and at_block_entry g visited depth (b : C.block) r =
  if Hashtbl.mem visited (b.C.bid, r) then None
  else (
    Hashtbl.add visited (b.C.bid, r) ();
    match b.C.preds with
    | [] -> None
    | preds ->
        (* a call surrogate clobbers volatile registers with unknown values *)
        let vals =
          List.map
            (fun (e : C.edge) ->
              let p = e.C.esrc in
              if p.C.kind = C.Call_surrogate && Regset.mem r Dataflow.volatile_regs
              then None
              else
                const_before g visited (depth + 1) p
                  (Array.length (C.all_instrs_array p))
                  r)
            preds
        in
        match vals with
        | Some v :: rest when List.for_all (( = ) (Some v)) rest -> Some v
        | _ -> None)

(* Find the instruction (block, position) that defines [r] before position
   [idx] of [b], following straight-line predecessors. Returns the defining
   instruction when it is unique along all paths. *)
let rec def_before (g : C.t) depth (b : C.block) idx r :
    (C.block * int * Instr.t) option =
  if depth > max_depth then None
  else
    let instrs = C.all_instrs_array b in
    let rec scan k =
      if k < 0 then
        match b.C.preds with
        | [ e ] ->
            let p = e.C.esrc in
            def_before g (depth + 1) p (Array.length (C.all_instrs_array p)) r
        | _ -> None
      else
        let _, (i : Instr.t) = instrs.(k) in
        if Regset.mem r (Machine.real_writes g.C.mach i) then Some (b, k, i)
        else scan (k - 1)
    in
    scan (min (idx - 1) (Array.length instrs - 1))

(** [value_of_operand g b idx (rs1, op2)] — constant effective address
    [rs1 + op2], if it folds. *)
let const_operand g b idx rs1 op2 =
  let visited = Hashtbl.create 16 in
  let v1 = const_before g visited 0 b idx rs1 in
  let v2 =
    match op2 with
    | Instr.O_imm i -> Some i
    | Instr.O_reg r ->
        let visited = Hashtbl.create 16 in
        const_before g visited 0 b idx r
  in
  match (v1, v2) with
  | Some a, Some b -> Some (Eel_util.Word.add a b)
  | _ -> None

(** Read a dispatch table's targets: consecutive words at [base] that are
    plausible code addresses within the routine, capped at [bound] entries
    when the index computation bounds the table's extent. *)
let read_table ~fetch ~(g : C.t) ?bound base =
  let cap = match bound with Some b -> min b max_table_entries | None -> max_table_entries in
  let targets = ref [] in
  let continue_ = ref true in
  let k = ref 0 in
  while !continue_ && !k < cap do
    match fetch (base + (4 * !k)) with
    | Some w when w land 3 = 0 && w >= g.C.lo && w < g.C.hi ->
        targets := w :: !targets;
        incr k
    | _ -> continue_ := false
  done;
  match !targets with
  | [] -> None
  | l -> Some { C.t_addr = base; t_targets = Array.of_list (List.rev l) }

(* Bound the number of table entries from the index register's defining
   computation: the [index << log2(word) ] of [index & mask] shape bounds
   the table to mask+1 entries. This is the extra precision that keeps the
   table scan from running into adjacent data. *)
let infer_bound (g : C.t) db dk idx_reg =
  match def_before g 0 db dk idx_reg with
  | Some (b2, k2, d1) -> (
      match g.C.mach.Machine.shift_left d1 with
      | Some (src, sh) when 1 lsl sh = 4 -> (
          match def_before g 0 b2 k2 src with
          | Some (_, _, d2) -> (
              match g.C.mach.Machine.mask_bound d2 with
              | Some (_, m) when m >= 0 && m < max_table_entries -> Some (m + 1)
              | _ -> None)
          | None -> None)
      | _ -> (
          (* unscaled: a direct mask on the index register *)
          match g.C.mach.Machine.mask_bound d1 with
          | Some (_, m) when m >= 0 && m < max_table_entries -> Some ((m / 4) + 1)
          | _ -> None))
  | None -> None

let resolve_jump ~fetch (g : C.t) (b : C.block) =
  match b.C.term with
  | C.T_jump { i; _ } | C.T_icall { i; _ } -> (
      let rs1, op2 =
        match i.Instr.ctl with
        | Instr.C_jump_ind { rs1; op2; _ } -> (rs1, op2)
        | _ -> assert false
      in
      let term_idx = Array.length (C.all_instrs_array b) - 1 in
      (* Case 1: the whole target folds to a literal. *)
      match const_operand g b term_idx rs1 op2 with
      | Some target -> Literal target
      | None -> (
          (* Case 2: target register defined by a load from
             [table_base + index]. *)
          let jump_reg =
            match op2 with
            | Instr.O_imm 0 -> Some rs1
            | Instr.O_imm _ -> None (* reg + imm with unknown reg *)
            | Instr.O_reg r ->
                (* one of the two registers must be zero for the idiom *)
                if r = 0 then Some rs1 else if rs1 = 0 then Some r else None
          in
          match jump_reg with
          | None -> Unanalyzable
          | Some jr -> (
              match def_before g 0 b (term_idx + 1) jr with
              | Some (db, dk, di) when di.Instr.cat = Instr.Load -> (
                  match di.Instr.ea with
                  | None -> Unanalyzable
                  | Some (ars1, aop2) -> (
                      (* the table base is whichever address component is
                         constant; the other is the scaled case index *)
                      let visited () = Hashtbl.create 16 in
                      let c1 = const_before g (visited ()) 0 db dk ars1 in
                      let c2 =
                        match aop2 with
                        | Instr.O_imm v -> Some v
                        | Instr.O_reg r2 -> const_before g (visited ()) 0 db dk r2
                      in
                      let base, idx_reg =
                        match (c1, c2) with
                        | Some a, Some b -> (Some (Eel_util.Word.add a b), None)
                        | Some a, None ->
                            ( Some a,
                              match aop2 with
                              | Instr.O_reg r -> Some r
                              | _ -> None )
                        | None, Some b -> (Some b, Some ars1)
                        | None, None -> (None, None)
                      in
                      match base with
                      | None -> Unanalyzable
                      | Some base -> (
                          let bound =
                            match idx_reg with
                            | Some r -> infer_bound g db dk r
                            | None -> Some 1
                          in
                          match read_table ~fetch ~g ?bound base with
                          | Some tbl -> Dispatch tbl
                          | None -> Unanalyzable)))
              | _ -> Unanalyzable)))
  | _ ->
      invalid_arg
        "Slice.resolve_jump: block does not end in an indirect transfer"

let loaded_cell ~fetch (g : C.t) (b : C.block) =
  match b.C.term with
  | C.T_jump { i; _ } | C.T_icall { i; _ } -> (
      match i.Instr.ctl with
      | Instr.C_jump_ind { rs1; op2; _ } -> (
          let term_idx = Array.length (C.all_instrs_array b) - 1 in
          let jump_reg =
            match op2 with
            | Instr.O_imm 0 -> Some rs1
            | Instr.O_reg r when r = 0 -> Some rs1
            | Instr.O_reg r when rs1 = 0 -> Some r
            | _ -> None
          in
          match jump_reg with
          | None -> None
          | Some jr -> (
              match def_before g 0 b (term_idx + 1) jr with
              | Some (db, dk, di) when di.Instr.cat = Instr.Load -> (
                  match di.Instr.ea with
                  | Some (ars1, aop2) -> (
                      match const_operand g db dk ars1 aop2 with
                      | Some addr -> fetch addr
                      | None -> None)
                  | None -> None)
              | _ -> None))
      | _ -> None)
  | _ -> None

let resolve_all ~fetch (g : C.t) =
  Eel_obs.Trace.with_span "cfg.slice" @@ fun () ->
  let tables = ref [] in
  let unanalyzable = ref 0 in
  List.iter
    (fun ((b : C.block), addr) ->
      match b.C.term with
      | C.T_jump { table = Some _; _ } -> () (* already resolved *)
      | _ -> (
          match resolve_jump ~fetch g b with
          | Literal t ->
              tables := (addr, { C.t_addr = -1; t_targets = [| t |] }) :: !tables
          | Dispatch tbl -> tables := (addr, tbl) :: !tables
          | Unanalyzable -> incr unanalyzable))
    (C.indirect_jumps g);
  (!tables, !unanalyzable)
