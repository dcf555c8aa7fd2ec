(** Machine-independent instructions — EEL's central abstraction (paper §3.4).

    An {!t} is "a machine-independent description of a machine instruction":
    it records the instruction's functional category, the registers it reads
    and writes, its memory behaviour, and its control behaviour, while keeping
    the original encoding word so the instruction can be re-emitted.

    Values of this type are {e position independent}: control-transfer targets
    are stored as displacements and resolved against a program counter on
    demand ({!abs_target}). This is what lets EEL "allocate only one
    instruction to represent all instances of a particular machine
    instruction" (§3.4) — identical words share one [Instr.t], which the
    instruction-sharing experiment (E5) measures. *)

(** Functional categories, per §3.4: "memory references (loads and stores),
    control transfers (calls, returns, system calls, jumps, and branches),
    computations, and invalid (data)". *)
type category =
  | Load
  | Store
  | Load_store  (** e.g. swap/autoincrement-style combined accesses *)
  | Call  (** direct subroutine call *)
  | Call_indirect  (** call through a register (function pointer) *)
  | Jump  (** direct unconditional jump *)
  | Jump_indirect  (** computed jump (case dispatch, tail call) *)
  | Return
  | Branch  (** conditional, direct, pc-relative *)
  | Syscall
  | Compute
  | Invalid  (** does not decode: data in the text segment *)

let category_name = function
  | Load -> "load"
  | Store -> "store"
  | Load_store -> "load_store"
  | Call -> "call"
  | Call_indirect -> "call_indirect"
  | Jump -> "jump"
  | Jump_indirect -> "jump_indirect"
  | Return -> "return"
  | Branch -> "branch"
  | Syscall -> "syscall"
  | Compute -> "compute"
  | Invalid -> "invalid"

(** The second operand of a register-indirect address or ALU operation. *)
type operand = O_reg of int | O_imm of int

(** Control behaviour of an instruction, with pc-relative targets kept as
    displacements so instruction values can be shared across addresses. *)
type ctl =
  | C_none  (** falls through *)
  | C_branch of { always : bool; never : bool; annul : bool; disp : int }
      (** conditional or unconditional pc-relative branch with a delay slot.
          [disp] is a byte displacement. [annul] is the SPARC-style annul
          bit: for a conditional branch the delay instruction executes only
          if the branch is taken; for [always]/[never] branches the delay
          instruction never executes. *)
  | C_call of { disp : int }  (** direct call, writes the link register *)
  | C_jump_ind of { rs1 : int; op2 : operand; link : int }
      (** register-indirect transfer ([jmpl]-style); [link] receives the pc
          (the machine's zero register if the value is discarded). *)
  | C_syscall of { num : int option }
      (** trap into the OS; [num] is the literal trap/syscall number when it
          is statically evident. *)

type t = {
  word : int;  (** original 32-bit encoding *)
  cat : category;
  reads : Regset.t;
  writes : Regset.t;
  ctl : ctl;
  delayed : bool;  (** has an architectural delay slot *)
  width : int;  (** memory access width in bytes; 0 for non-memory ops *)
  ea : (int * operand) option;
      (** effective address [rs1 + op2] for memory references *)
  mnem : string;  (** mnemonic, for diagnostics and disassembly *)
}

(** {1 Inquiries (paper Fig. 4 style)} *)

let reads t = t.reads
let writes t = t.writes
let category t = t.cat

let is_annulled t =
  match t.ctl with C_branch b -> b.annul | _ -> false

let is_memory t = t.width > 0

let is_cti t = match t.ctl with C_none -> false | _ -> true

(** [abs_target ~pc t] resolves a direct control-transfer target. *)
let abs_target ~pc t =
  match t.ctl with
  | C_branch { disp; _ } -> Some (Eel_util.Word.add pc disp)
  | C_call { disp } -> Some (Eel_util.Word.add pc disp)
  | _ -> None

(** [falls_through t] holds when control may continue at the next sequential
    instruction {e after} the instruction (and its delay slot, if any) —
    i.e. the instruction does not unconditionally transfer control away. *)
let falls_through t =
  match t.ctl with
  | C_none -> true
  | C_branch { always; _ } -> not always
  | C_call _ -> true (* control returns after the call *)
  | C_jump_ind _ -> false
  | C_syscall _ -> true

let pp fmt t = Format.fprintf fmt "%s" t.mnem
