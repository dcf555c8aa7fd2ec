(** Interprocedural call graphs.

    Paper footnote 1: "EEL also supports interprocedural analysis and call
    graphs". The graph's nodes are the refined routine set (including
    hidden routines); edges come from three sources:

    - direct calls ([T_call] terminators),
    - interprocedural direct transfers (tail calls and multi-entry jumps:
      [Ek_xfer] edges whose destination falls in another routine),
    - indirect call {e sites} ([T_icall]), whose callee set is resolved
      through slicing when the function-pointer load folds to a constant
      (the same machinery as dispatch tables), and recorded as unresolved
      sites otherwise.

    "Unlike most compilers, which operate on a single file, editing can
    manipulate an entire program, which permits it to perform
    interprocedural analysis rather than stopping at procedure
    boundaries" (§1). *)

module E := Executable

type edge_kind = Direct_call | Tail_transfer | Indirect_call

type cedge = {
  caller : string;
  callee : string;
  kind : edge_kind;
  site : int;  (** address of the transfer instruction *)
}

type t = {
  nodes : string list;  (** routine names *)
  cedges : cedge list;
  unresolved : (string * int) list;  (** indirect sites slicing couldn't bind *)
}

val build : E.t -> t

(** Direct+resolved callees of a routine. *)
val callees : t -> string -> string list

val callers : t -> string -> string list

(** Reverse-topological order over the acyclic part (recursive SCCs are
    emitted in discovery order) — the order interprocedural analyses
    process routines. *)
val bottom_up : t -> string list
