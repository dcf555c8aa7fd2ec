(** Editing CFGs and producing edited routines (paper §3.3.1).

    "A tool edits a routine's CFG by deleting instructions, adding new code
    before or after any instruction, or adding code along a control-flow
    graph edge. [...] EEL accumulates edits without changing the CFG. [...]
    Producing an edited routine involves laying out its blocks and snippets
    to minimize unnecessary jumps and adjusting displacements and addresses
    in control-transfer instructions — or occasionally replacing these
    instructions by snippets containing instructions with a longer span."

    The layout engine re-emits each routine:

    - unedited delayed branches are {e refolded}: the original branch word
      and its delay instruction are emitted verbatim (only the displacement
      is adjusted), undoing the CFG's delay-slot duplication;
    - edited branches are rewritten in expanded form (annul bit cleared,
      [nop] in the slot) with out-of-line stubs carrying taken-edge code;
    - indirect jumps through rewritten dispatch tables keep their original
      form; {e unanalyzable} indirect jumps and indirect calls are replaced
      by a run-time address-translation sequence through the executable's
      translation table (§3.3: "run-time code ensures that control passes to
      the correct edited instruction");
    - conditional branches whose displacement no longer fits (or exceeds an
      artificial [max_span], for the ablation experiment) are re-targeted at
      a long-jump thunk appended to the routine (§3.3.1's "instructions with
      a longer span").

    The result ({!edited}) is position independent: words carry symbolic
    patches ([P_orig] for cross-routine targets, [P_reloc] for absolute
    targets such as added handler routines, [P_hi_label]/[P_lo_label] for
    thunk address materialization) that {!Executable} resolves once every
    routine's final address is known. *)

module C := Cfg

type editor

val create :
  ?fold_delay:bool -> ?max_span:int -> xlat_delta:int -> C.t -> editor

(** Insert [s] before instruction [idx] of [b]. *)
val add_before : editor -> C.block -> int -> Snippet.t -> unit

(** Add code along a CFG edge (paper Fig. 1: [e->add_code_along]). *)
val add_along : editor -> C.edge -> Snippet.t -> unit

(** Delete instruction [idx] of block [b]. Terminators cannot be deleted. *)
val delete : editor -> C.block -> int -> unit

type patch =
  | P_none
  | P_label of int  (** pc-relative to a local label (resolved here) *)
  | P_orig of int
      (** pc-relative to the edited location of original address *)
  | P_reloc of int  (** pc-relative to an absolute address *)
  | P_hi_label of int  (** absolute-high of a local label's final address *)
  | P_lo_label of int

type eword = { mutable w : int; mutable patch : patch }

type edited = {
  ed_words : eword array;
  ed_labels : (int, int) Hashtbl.t;  (** label id -> word index *)
  ed_entries : (int * int) list;  (** original entry address -> word index *)
  ed_origin : (int, int) Hashtbl.t;  (** original instr address -> word index *)
  ed_callbacks : (int * Snippet.instance) list;  (** word index, instance *)
  ed_tables : C.table list;  (** dispatch tables to rewrite in place *)
  ed_uses_xlat : bool;
}

val size_bytes : edited -> int

(** [produce ed] lays out the edited routine (paper §3.3.1). *)
val produce : editor -> edited

(** [verify_exn ?name ed] — {!verify}, with violations surfaced as the
    structured {!Diag.Invariant_error} every oracle and driver already
    matches on, instead of an ad-hoc exception. This is the form the
    differential-execution oracle invokes automatically on every routine it
    lays out, so invariant violations degrade into [Result.Error] values
    (via {!Diag.guard}) rather than crashing a verification run. *)
val verify_exn : ?name:string -> edited -> unit
