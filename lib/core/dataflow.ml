open Eel_arch
module C = Cfg

(** {1 Block orderings} *)

(** Reverse postorder over reachable blocks, entries first. *)
let rpo (g : C.t) =
  let order = ref [] in
  let seen = Hashtbl.create 64 in
  let rec dfs (b : C.block) =
    if not (Hashtbl.mem seen b.C.bid) then (
      Hashtbl.add seen b.C.bid ();
      List.iter (fun (e : C.edge) -> dfs e.C.edst) b.C.succs;
      order := b :: !order)
  in
  List.iter dfs (C.entry_blocks g);
  Array.of_list !order

(** {1 Dominators (Cooper–Harvey–Kennedy iterative algorithm)} *)

type doms = {
  d_idom : int array;  (** indexed by bid; -1 = undefined/unreachable *)
  d_root : int;  (** virtual root above all entry blocks *)
}

let dominators (g : C.t) =
  let order = rpo g in
  let nb = C.num_blocks g in
  (* a virtual root (id [nb]) above every entry block makes the CHK
     algorithm correct for routines with multiple entry points (Fortran
     ENTRY / interprocedural jumps, paper §3.1) *)
  let root = nb in
  let index = Array.make (nb + 1) max_int in
  Array.iteri (fun i b -> index.(b.C.bid) <- i) order;
  index.(root) <- -1;
  let idom = Array.make (nb + 1) (-1) in
  idom.(root) <- root;
  List.iter (fun (b : C.block) -> idom.(b.C.bid) <- root) (C.entry_blocks g);
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while index.(!a) > index.(!b) do
        a := idom.(!a)
      done;
      while index.(!b) > index.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (b : C.block) ->
        if b.C.kind <> C.Entry then (
          let new_idom = ref (-1) in
          List.iter
            (fun (e : C.edge) ->
              let p = e.C.esrc.C.bid in
              if idom.(p) <> -1 then
                if !new_idom = -1 then new_idom := p
                else new_idom := intersect p !new_idom)
            b.C.preds;
          if !new_idom <> -1 && idom.(b.C.bid) <> !new_idom then (
            idom.(b.C.bid) <- !new_idom;
            changed := true)))
      order
  done;
  { d_idom = idom; d_root = root }

(** [dominates d a b] — does block [a] dominate block [b]? *)
let dominates d (a : C.block) (b : C.block) =
  let rec up x =
    if x = a.C.bid then true
    else if x = d.d_root then false
    else
      let i = d.d_idom.(x) in
      if i = -1 || i = x then x = a.C.bid
      else up i
  in
  a.C.bid = b.C.bid || up b.C.bid

type loop = { header : C.block; body : C.block list (* includes header *) }

let natural_loops (g : C.t) =
  let d = dominators g in
  let loops = ref [] in
  List.iter
    (fun (e : C.edge) ->
      if
        e.C.edst.C.reachable && e.C.esrc.C.reachable
        && dominates d e.C.edst e.C.esrc
      then (
        (* back edge: collect the loop body by backward reachability from the
           latch, stopping at the header *)
        let header = e.C.edst in
        let body = Hashtbl.create 8 in
        Hashtbl.add body header.C.bid header;
        let rec pull (b : C.block) =
          if not (Hashtbl.mem body b.C.bid) then (
            Hashtbl.add body b.C.bid b;
            List.iter (fun (p : C.edge) -> pull p.C.esrc) b.C.preds)
        in
        pull e.C.esrc;
        loops :=
          { header; body = Hashtbl.fold (fun _ b acc -> b :: acc) body [] }
          :: !loops))
    (C.edges g);
  !loops

let volatile_regs =
  Regset.union (Regset.range 1 6) (Regset.add 15 (Regset.range 8 13))

(** Registers live at a normal routine exit: return value, stack and frame
    pointers, the return-address registers, and every callee-saved
    register (%l0–%l7, %i0–%i7). *)
let abi_exit_live =
  Regset.union
    (Regset.of_list [ 8 (* o0 *); 14 (* sp *); 15 (* o7 *) ])
    (Regset.range 16 31)

(** Argument registers a callee may read. *)
let arg_regs = Regset.add 14 (Regset.range 8 13)

type live = {
  l_in : Regset.t array;
  l_out : Regset.t array;
}

let block_use_def (g : C.t) (b : C.block) =
  match b.C.kind with
  | C.Call_surrogate ->
      (* the callee reads the argument registers and clobbers the
         caller-volatile set *)
      (arg_regs, volatile_regs)
  | _ ->
      List.fold_left
        (fun (use, def) (_, (i : Instr.t)) ->
          let reads = Machine.real_reads g.C.mach i in
          let writes = Machine.real_writes g.C.mach i in
          (Regset.union use (Regset.diff reads def), Regset.union def writes))
        (Regset.empty, Regset.empty)
        (C.all_instrs b)

let liveness (g : C.t) =
  let nb = C.num_blocks g in
  let l_in = Array.make nb Regset.empty in
  let l_out = Array.make nb Regset.empty in
  let all_regs = Regset.range 0 (g.C.mach.Machine.num_regs - 1) in
  let has_xfer =
    List.exists
      (fun (e : C.edge) -> match e.C.ekind with C.Ek_xfer _ -> true | _ -> false)
      g.C.exit_block.C.preds
  in
  let exit_live = if has_xfer then all_regs else abi_exit_live in
  l_in.(g.C.exit_block.C.bid) <- exit_live;
  l_out.(g.C.exit_block.C.bid) <- exit_live;
  let use_def = Array.make nb (Regset.empty, Regset.empty) in
  Eel_util.Dyn.iter
    (fun (b : C.block) -> use_def.(b.C.bid) <- block_use_def g b)
    g.C.blocks;
  let order = rpo g in
  let changed = ref true in
  while !changed do
    changed := false;
    (* backward problem: iterate in postorder (reverse of rpo) *)
    for i = Array.length order - 1 downto 0 do
      let b = order.(i) in
      if b.C.kind <> C.Exit then (
        let out =
          List.fold_left
            (fun acc (e : C.edge) -> Regset.union acc l_in.(e.C.edst.C.bid))
            Regset.empty b.C.succs
        in
        let use, def = use_def.(b.C.bid) in
        let inn = Regset.union use (Regset.diff out def) in
        if not (Regset.equal out l_out.(b.C.bid) && Regset.equal inn l_in.(b.C.bid))
        then (
          l_out.(b.C.bid) <- out;
          l_in.(b.C.bid) <- inn;
          changed := true))
    done
  done;
  { l_in; l_out }

let live_before lv (g : C.t) (b : C.block) idx =
  let arr = C.all_instrs_array b in
  let n = Array.length arr in
  let live = ref lv.l_out.(b.C.bid) in
  for k = n - 1 downto idx do
    let _, i = arr.(k) in
    live :=
      Regset.union
        (Machine.real_reads g.C.mach i)
        (Regset.diff !live (Machine.real_writes g.C.mach i))
  done;
  !live

let live_on_edge lv (e : C.edge) = lv.l_in.(e.C.edst.C.bid)
