(** The machine-description interface between machine-independent EEL and a
    particular architecture (paper §4, "System-Dependent EEL").

    Everything the core editing library knows about an architecture flows
    through one {!t} value. Two implementations exist in this repository:

    - {!Eel_sparc.Mach.mach} — the handwritten SPARC V8 subset (the analog of
      the paper's 2,268 handwritten architecture-specific lines), and
    - an implementation elaborated by {!Eel_spawn} from the concise machine
      description in [descriptions/sparc.spawn] (the analog of
      spawn-generated code).

    A property-based test asserts that the two agree instruction-for-
    instruction on decoding, classification and register usage. *)

type t = {
  name : string;
  word_bytes : int;  (** instruction width in bytes (4 for our RISC) *)
  num_regs : int;  (** register numbers are [0 .. num_regs-1] *)
  reg_name : int -> string;
  zero_regs : Regset.t;
      (** registers hardwired to zero: writes are discarded, reads are not
          real dependences (e.g. SPARC %g0) *)
  sp : int;  (** stack pointer register *)
  link : int;  (** link register written by direct calls (SPARC %o7) *)
  ret_regs : Regset.t;
      (** registers through which returns jump (SPARC %o7/%i7) *)
  allocatable : Regset.t;
      (** registers the snippet allocator may scavenge when dead *)
  reserved_scratch : int;
      (** a register EEL reserves for itself for long-jump synthesis; never
          allocatable and never used by conforming programs (SPARC %g7, which
          the ABI reserves for the system) *)
  reserved_scratch2 : int;
      (** second reserved register (SPARC %g6), needed by the run-time
          address-translation sequence which must hold the old target across
          the relocated delay-slot instruction *)
  lift : int -> Instr.t;
      (** decode one machine word into an EEL instruction. Total: invalid
          encodings yield an {!Instr.Invalid} instruction rather than an
          error, which is how EEL distinguishes data from code. *)
  noreturn : Instr.t -> bool;
      (** ABI knowledge: does this instruction never fall through (e.g. the
          exit system call)? Used by CFG construction to avoid spurious
          fall-through edges off the end of exit-terminated routines. *)
  branch_span : int;
      (** maximum byte magnitude of a conditional-branch displacement *)
  retarget : Instr.t -> disp:int -> int option;
      (** re-encode a pc-relative control transfer with a new byte
          displacement; [None] if the displacement does not fit the field, in
          which case the editor substitutes a longer sequence (§3.3.1) *)
  nop : int;
  set_annul : int -> bool -> int;
      (** set/clear the annul bit of a delayed branch encoding *)
  mk_ba : disp:int -> int;
      (** unconditional pc-relative branch (delay slot NOT annulled; the
          caller supplies the slot contents, usually [nop]) *)
  mk_call : disp:int -> int;
  mk_set_const : reg:int -> int -> int list;
      (** materialize a 32-bit constant into [reg] (SPARC: sethi/or) *)
  mk_jmp_reg : rs1:int -> op2:Instr.operand -> link:int -> int;
  mk_ld_word : addr_rs1:int -> addr_op2:Instr.operand -> dst:int -> int;
  mk_add : rs1:int -> op2:Instr.operand -> dst:int -> int;
  mk_spill : reg:int -> sp_off:int -> int;
      (** store [reg] to [sp + sp_off] (offsets may be negative: EEL owns a
          red zone below the stack pointer) *)
  mk_unspill : reg:int -> sp_off:int -> int;
  set_const_hi : int -> value:int -> int;
      (** patch the high-part immediate field of a constant-building
          instruction (the paper's [SET_SETHI_HI]) *)
  set_const_lo : int -> value:int -> int;
      (** patch the low-part immediate field (the paper's [SET_SETHI_LOW]) *)
  eval_compute : Instr.t -> read:(int -> int option) -> (int * int) option;
      (** replicate a computation instruction's effect over statically-known
          register values: given [read] returning known constants, return
          [(dest, value)] when the instruction computes a compile-time
          constant. Powers backward slicing for dispatch tables (§3.3). *)
  shift_left : Instr.t -> (int * int) option;
      (** [(src, k)] when the instruction is [dst := src << k] — the
          scaled-index shape of dispatch-table address arithmetic *)
  mask_bound : Instr.t -> (int * int) option;
      (** [(src, m)] when the instruction bounds its result to [0..m]
          (e.g. [and src, m]); used to bound dispatch-table extents *)
  asm : params:(string * int) list -> string -> (Template.t, string) result;
      (** assemble a snippet body written in this machine's assembly syntax
          into a {!Template.t}. [$name] parameters are substituted from
          [params]; virtual registers [%v0..%v7] become template
          {!Template.vreg_use}s for later scavenged allocation; pc-relative
          transfers to absolute targets become {!Template.reloc}s. *)
  disas : pc:int -> int -> string;  (** disassemble one word, for tooling *)
}

(** [lift_at mach ~pc word] decodes and pairs the result with its address's
    absolute target, for convenience in diagnostics. *)
let lift_at mach word = mach.lift word

(** Registers that count as definitions for liveness: writes to hardwired
    zero registers define nothing. *)
let real_writes mach (i : Instr.t) = Regset.diff i.writes mach.zero_regs

let real_reads mach (i : Instr.t) = Regset.diff i.reads mach.zero_regs
