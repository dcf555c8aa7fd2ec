(** Control-flow graphs of routines (paper §3.3).

    The CFG is EEL's primary program representation. Its defining feature is
    that {e instructions' internal control flow is made explicit}: delayed
    branches, annulled branches and calls are normalized so that every
    instruction in the graph appears to be a simple, non-delayed instruction
    (paper Fig. 3). Concretely:

    - the delay-slot instruction of a {e non-annulled conditional branch} is
      duplicated into two single-instruction [Delay] blocks, one on the taken
      edge and one on the fall-through edge;
    - for an {e annulled} conditional branch the delay instruction appears
      only on the taken edge;
    - for [ba,a] (and [bn,a]) the delay instruction appears on no edge;
    - a {e call}'s delay block is followed by a distinguished zero-length
      [Call_surrogate] block standing for the callee's execution;
    - synthetic [Entry] and [Exit] blocks bracket the routine.

    Some blocks and edges are {e uneditable} (paper: "most uneditable blocks
    and edges transfer control out of the current routine, e.g. the delay
    slot after a call"); experiment E3 measures their fraction.

    Construction is conservative in the presence of data: invalid words form
    [is_data] blocks, and unreachable valid code at the end of the region is
    reported as a {e hidden routine} candidate for the executable-level
    analysis (paper §3.1 stage 4). *)

open Eel_arch
module Diag := Eel_robust.Diag
module I := Eel_arch.Instr

type block_kind = Normal | Delay | Call_surrogate | Entry | Exit

type edge_kind =
  | Ek_fall  (** sequential flow *)
  | Ek_taken  (** branch taken *)
  | Ek_call  (** delay block to call surrogate *)
  | Ek_cont  (** call surrogate to the return continuation *)
  | Ek_computed of int option
      (** indirect jump; [Some a] = resolved original target, [None] =
          unanalyzable *)
  | Ek_exit  (** to the synthetic exit block (returns) *)
  | Ek_xfer of int
      (** direct transfer that leaves the routine (interprocedural branch or
          fall-through off the end); payload = original destination *)

(** A jump's dispatch table, discovered by backward slicing (§3.3). *)
type table = {
  t_addr : int;  (** address of the first table entry *)
  t_targets : int array;  (** original code addresses stored in the table *)
}

type term =
  | T_none  (** block falls through *)
  | T_branch of { i : I.t; addr : int }
      (** conditional (or never-taken) pc-relative branch *)
  | T_goto of { i : I.t; addr : int }  (** unconditional branch (ba) *)
  | T_call of { i : I.t; addr : int; target : int }
  | T_icall of { i : I.t; addr : int }  (** indirect call through a register *)
  | T_jump of { i : I.t; addr : int; mutable table : table option }
  | T_return of { i : I.t; addr : int }

type block = {
  bid : int;
  kind : block_kind;
  baddr : int option;  (** original address of the first instruction *)
  mutable instrs : (int * I.t) array;
      (** (original address, instruction); duplicated delay-slot copies
          share their original address *)
  mutable term : term;
  mutable succs : edge list;
  mutable preds : edge list;
  mutable editable : bool;
  mutable reachable : bool;
  mutable is_data : bool;
  mutable edited : bool;  (** set once any edit touches this block *)
}

and edge = {
  eid : int;
  esrc : block;
  edst : block;
  ekind : edge_kind;
  mutable e_editable : bool;
  mutable e_edited : bool;
}

type t = {
  mach : Machine.t;
  lo : int;
  hi : int;
  blocks : block Eel_util.Dyn.t;  (** all blocks, entry/exit included *)
  entries : (int * block) list;  (** entry address -> Entry block *)
  exit_block : block;
  mutable complete : bool;
      (** false when an indirect jump could not be analyzed; the editor then
          falls back on run-time address translation (§3.3) *)
  mutable hidden_candidate : int option;
      (** start of unreachable trailing code: a hidden routine (§3.1) *)
  block_at : (int, block) Hashtbl.t;  (** original address -> Normal block *)
}

(** {1 Inquiries} *)

val blocks : t -> block list

val num_blocks : t -> int

val edges : t -> edge list

val entry_blocks : t -> block list

val block_at : t -> int -> block option

(** Terminator instruction and its address, if any. *)
val term_instr : block -> (int * I.t) option

(** All instructions of a block including the terminator (for analyses). *)
val all_instrs : block -> (int * I.t) list

(** Array form of {!all_instrs} — the hot path for slicing and liveness.
    Blocks without a terminator share their body array (tools never mutate
    block bodies: edits accumulate outside the CFG, §3.3.1). *)
val all_instrs_array : block -> (int * I.t) array

val indirect_jumps : t -> (block * int) list

(** Number of original instruction words covered by a block (delay copies
    count once at their original address — used for statistics only). *)
val pp_block : Format.formatter -> block -> unit

(** [build ~mach ~cache ~fetch ~lo ~hi ~entries ~tables ()] constructs the
    normalized CFG of the routine occupying [lo, hi) with the given entry
    addresses. [fetch a] returns the machine word at [a]. [tables] maps
    indirect-jump addresses to previously-discovered dispatch tables (the
    slicing fixpoint: {!Routine} re-builds after {!Slice} finds tables).

    [diag] collects degradation diagnostics: reachable-but-undecodable
    regions, malformed delay slots and DCTI couples are downgraded to
    data-marked blocks with a warning instead of aborting construction.
    [budget] bounds the decode work (anti-non-termination guard). *)
val build :
  ?diag:Diag.sink -> ?budget:Diag.budget -> mach:Machine.t ->
  cache:Instr_cache.t -> fetch:(int -> int option) -> lo:int -> hi:int ->
  entries:int list -> tables:(int * table) list -> unit -> t

(** {1 Statistics (experiments E3 and E4)} *)

type stats = {
  s_blocks : int;
  s_normal : int;
  s_delay : int;
  s_surrogate : int;
  s_entry_exit : int;
  s_edges : int;
  s_uneditable_blocks : int;
  s_uneditable_edges : int;
}

val stats_of : t -> stats
