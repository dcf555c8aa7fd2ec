(** Instruction sharing (paper §3.4).

    "To improve efficiency, EEL allocates only one instruction to represent
    all instances of a particular machine instruction. Typically, this
    optimization reduces the number of allocated EEL instructions by a
    factor of four."

    EEL instructions ({!Eel_arch.Instr.t}) are position independent — control
    transfer targets are displacements — so all occurrences of one encoding
    word can share a single value. The cache can be disabled to measure the
    effect (experiment E5). *)

type t

val create : ?enabled:bool -> Eel_arch.Machine.t -> t

(** [lift c word] returns the (possibly shared) EEL instruction for a machine
    word, updating the {!Stats} counters. The hit path uses [Hashtbl.find]
    with an exception handler rather than [find_opt], so a shared lookup
    allocates nothing. *)
val lift : t -> int -> Eel_arch.Instr.t
