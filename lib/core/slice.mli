(** Backward slicing and indirect-jump analysis (paper §3.3, Fig. 4).

    "Most indirect jumps occur in case statements, in which they jump through
    a dispatch table of addresses. EEL finds this type of table — in an
    architecture and compiler-independent manner — by computing a backward
    slice from the jump instruction's registers. [...] After finding the
    table's address, EEL builds a precise CFG for the indirect jump and
    subsequently modifies the table to point to edited locations. The same
    slice also can find the address used in the common idiom of an indirect
    jump to a literal value. If a slice fails [...] EEL marks the CFG as
    incomplete and inserts code to translate the jump's target address at
    run time."

    The slice walks backward over the (possibly still incomplete) CFG,
    constant-folding computations through the machine description's
    {!Eel_arch.Machine.t.eval_compute} hook. Loads are resolved only when
    their {e address} slices to a constant (the dispatch-table case);
    floating-point and other untraceable definitions make the jump
    unanalyzable, exactly as in the paper's Fig. 4. *)

module C := Cfg

(** Result of analyzing one indirect jump. *)
type jump_resolution =
  | Literal of int  (** jump to a statically-known address *)
  | Dispatch of C.table  (** jump through a dispatch table *)
  | Unanalyzable

(** Analyze one indirect jump terminator (paper §3.3). [b] must have a
    [T_jump] terminator. *)
val resolve_jump :
  fetch:(int -> int option) -> C.t -> C.block -> jump_resolution

(** Advisory resolution for call-graph construction: when an indirect
    transfer's target register was loaded from a {e statically-known}
    location, return that cell's initial contents. This is unsound for
    editing (the cell may be overwritten at run time — which is why
    {!resolve_jump} does not do it) but is the conventional approximation
    for an advisory interprocedural call graph. *)
val loaded_cell : fetch:(int -> 'a option) -> C.t -> C.block -> 'a option

(** Analyze every indirect jump of a CFG; returns discovered tables (for the
    CFG rebuild fixpoint) and the number of unanalyzable jumps. A [Literal]
    resolution is represented as a single-entry pseudo-table with
    [t_addr = -1] (nothing to rewrite in the image). *)
val resolve_all : fetch:(int -> int option) -> C.t -> (int * C.table) list * int
