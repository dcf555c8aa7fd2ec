(** Code snippets (paper §3.5, Figs. 2 and 5).

    "A code snippet encapsulates foreign code that is added to an executable.
    [...] EEL finds the live registers at the point at which the snippet is
    inserted and assigns dead (unused) registers to the snippet. If EEL
    cannot find enough dead registers, it wraps the snippet with code to
    spill registers to the stack."

    A snippet's body is written in the target machine's assembly syntax with
    {e virtual registers} ([%v0]–[%v7]) standing for the registers EEL will
    scavenge, and [$name] parameters for tool-supplied constants (counter
    addresses, handler entry points). Tools may also patch constant fields
    after creation ({!patch_hi}/{!patch_lo} — the paper's [SET_SETHI_HI]
    idiom) and may register a {e call-back} that runs after register
    allocation and placement, receiving the final instruction words and
    address (used for displacement fix-ups and address recording). *)

open Eel_arch

(** Context passed to a snippet call-back after register allocation and
    placement (paper §3.5). The call-back may modify [cb_words] in place
    but must not change the snippet's length. *)
type cb_ctx = {
  cb_words : int array;  (** final, register-allocated instruction words *)
  cb_addr : int;  (** address of the snippet's first instruction *)
  cb_assigned : int array;  (** virtual register -> physical register *)
}

type t

(** [of_asm mach ?params ?forbid ?callback body] assembles a snippet body. *)
val of_asm :
  Machine.t -> ?params:(string * int) list -> ?forbid:Regset.t ->
  ?callback:(cb_ctx -> unit) -> string -> t

(** Result of instantiating a snippet at a program point. *)
type instance = {
  in_words : int array;  (** body with registers assigned, spills wrapped *)
  in_relocs : Template.reloc list;  (** indices adjusted for the prologue *)
  in_callback : (cb_ctx -> unit) option;
  in_assigned : int array;
  in_body_off : int;  (** index of the first body word (after spill code) *)
  in_spilled : int;  (** number of spilled registers (for statistics) *)
}

(** EEL's red zone: snippet spill slots live below the stack pointer. The
    ABI in this repository reserves 64 bytes of red zone for the editor. *)
val red_zone : int

(** [instantiate mach s ~live] performs context-dependent register
    allocation (scavenging): virtual registers receive registers that are
    dead at the insertion point; when too few are dead, victims are spilled
    around the body. *)
val instantiate : Machine.t -> t -> live:int -> instance
