(** Standard CFG analyses (paper §3.3): dominators, natural loops and live
    registers.

    "EEL can perform several standard CFG analyses: dominators, natural
    loops, live registers, and slicing. EEL uses them to improve the
    precision of control analysis and to reduce the need for run-time
    mechanisms."

    Liveness drives snippet register scavenging (§3.5): EEL assigns dead
    registers to snippet virtual registers, falling back on spills when too
    few are dead. The analysis is ABI-aware (see DESIGN.md): at routine exit
    the callee-saved registers, the stack pointer, frame pointer and return
    value are live; a call surrogate block defines the caller-volatile
    registers and uses the argument registers. *)

open Eel_arch
module C := Cfg

(** {1 Natural loops} *)

type loop = { header : C.block; body : C.block list (* includes header *) }

val natural_loops : C.t -> loop list

(** {1 Liveness} *)

(** Caller-volatile registers under this repository's flat-register ABI:
    %g1–%g6, %o0–%o5 and %o7. A call may clobber them all. *)
val volatile_regs : int

type live = {
  l_in : Regset.t array;  (** indexed by bid *)
  l_out : Regset.t array;
}

val liveness : C.t -> live

(** [live_before lv g b idx] — registers live immediately before position
    [idx] in block [b]'s instruction sequence (indices over {!Cfg.all_instrs},
    i.e. the terminator is the last position; [idx] equal to the number of
    body instructions means "before the terminator"). *)
val live_before : live -> C.t -> C.block -> int -> Regset.t

(** Registers live on an edge: those live into the destination block. *)
val live_on_edge : live -> C.edge -> Regset.t
