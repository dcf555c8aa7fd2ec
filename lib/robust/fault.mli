(** Systematic fault injection against the verification stack itself
    (ROADMAP: "contract-guided mutation").

    PRs 3–4 built the oracle — lockstep differential execution plus edit
    contracts — and the clean corpus verifies under it. But a green oracle
    over clean inputs proves nothing about the oracle's {e blind spots}: a
    clobbering snippet, a counter placed on live data, or a contract that
    quietly under-declares would all sail through if [verify_edit] had a
    hole shaped like them. This module manufactures exactly those known-bad
    inputs, deterministically, and demands the oracle flag every one.

    Three attack surfaces:

    - {e instrumentation mutation} (the edit lies): the edited image is
      re-patched at sites the original run provably executes — a stray
      store into live low memory, a clobbered register, an off-by-one spill
      just past the red zone, a wild trap — or the tool's own counter words
      are skewed mid-run through the emulator's fault hooks
      ({!Eel_emu.Emu.poke}).
    - {e contract mutation} (the declaration lies): a declared region is
      forgotten, a phantom region masks the program's own stores, a program
      trap number is claimed as instrumentation traffic, a store-address
      transform is claimed that the edit never applies (see
      {!Eel_equiv.Contract}'s surgery helpers).
    - {e environment faults}: fuel exhaustion at exact boundaries, image
      bit-flips, tiny observation logs, tiny work budgets, trap storms,
      wild poke plans — under the never-crash guarantee: typed
      {!Diag} errors or classified verdicts, never exceptions.

    Every fault is addressed by a {e site index} into a per-class site
    list, so a reproducer is four values — (tool, program, class, sites) —
    and rebuilding it is deterministic. {!triage} dedups flagged trials by
    (tool, divergence class, anchor pc) and {!minimize} shrinks each to a
    single site; {!repro_to_json}/{!spec_of_json} round-trip reproducers
    through the JSON artifacts CI uploads. *)

module Json := Eel_obs.Json
module Sef := Eel_sef.Sef

(** {1 Fault classes} *)

type fclass =
  | Stray_store  (** edited insn becomes a store into live low memory *)
  | Clobber_reg  (** edited insn becomes an [%o0]-clobbering add *)
  | Redzone_spill  (** edited insn becomes a spill one slot past the zone *)
  | Wild_trap  (** edited insn becomes a trap the program never issues *)
  | Count_skew  (** an instrumentation word is corrupted mid-run *)
  | Drop_syscall  (** an executed OS-trap insn becomes a nop: dropped call *)
  | Undeclared_deny
      (** edited side runs under a denying interposition policy with no
          declared suppression — the "undeclared deny" lie on a live
          world *)
  | Forget_region  (** contract forgets a declared region *)
  | Mask_store  (** contract claims a region over live program data *)
  | Mask_trap  (** contract claims a program trap as instrumentation *)
  | Mask_sys  (** contract claims a program {e syscall} as its own *)
  | Phantom_norm  (** contract claims an addr transform the edit lacks *)

val all_classes : fclass list

val class_name : fclass -> string

(** Which of the tentpole's attack surfaces a class belongs to. *)
val surface : fclass -> string

(** {1 Site discovery}

    Faults are only worth injecting where the program provably goes: a
    clobber in dead code is undetectable {e by design}, not an oracle blind
    spot. One profiled run of the {e original} image yields the executed
    trap sites (mapped to their edited addresses — that is where the bad
    word lands), the program's own store addresses (targets for the
    masking lie), and its trap numbers. *)

type inst

(** [instrument ~fuel ?os tool (prog, exe)] applies [tool] and discovers
    the injectable sites from one profiled run of the original; [os] runs
    it against an OS world, adding the syscall-surface sites. *)
val instrument :
  fuel:int -> ?os:Eel_os.Spec.t -> string -> string * Sef.t ->
  (inst, string) result

(** {1 Arming a fault}

    A {e site} is an index into the class's site list for this
    instrumented program; {!arm} turns a set of sites into concrete verify
    inputs: a (possibly re-patched copy of the) edited image, a (possibly
    lying) contract, and a poke plan. *)

(** The class's site menu: one human-readable description per site.
    An empty list means the class does not apply to this instrumented
    program (SFI declares no regions and exposes no counters). *)
val sites : inst -> fclass -> string list

type armed

(** [arm t cls idxs] builds the faulted trial for site set [idxs] (indices
    into [sites t cls]; out-of-range indices are ignored). *)
val arm : inst -> fclass -> int list -> armed

(** {1 Running one trial} *)

type attempt = {
  at_flagged : bool;  (** the oracle flagged the fault (any divergence) *)
  at_verdict : string;  (** verdict, [error:<kind>], or [crash:<what>] *)
  at_dclass : string;  (** divergence class name; [""] when none *)
  at_anchor : int;  (** divergence anchor pc; 0 when none *)
  at_signature : string;  (** coverage key for the guided hunt *)
  at_crash : bool;
}

(** [attempt ~fuel t a] runs the faulted trial under the contract oracle.
    Crashes are data — the never-crash guarantee is asserted by counting
    them, not by dying. *)
val attempt : fuel:int -> inst -> armed -> attempt

(** {1 Reproducers and triage} *)

type repro = {
  rx_tool : string;
  rx_prog : string;
  rx_class : fclass;
  rx_sites : int list;  (** minimized site set (a singleton after triage) *)
  rx_desc : string;
  rx_verdict : string;
  rx_dclass : string;
  rx_anchor : int;
}

(** [minimize ~fuel t cls idxs] greedily shrinks a flagged site set to a
    single site: the first site that reproduces a divergence on its own
    wins. Falls back to the full set if no single site reproduces (a
    genuinely conjunctive fault — none of the current classes are, but the
    triage stage must not lose a reproducer to that assumption). *)
val minimize :
  fuel:int -> inst -> fclass -> int list -> int list * attempt option

(** [triage rs] — dedup by (tool, divergence class, anchor pc), keeping
    the first reproducer of each equivalence class. *)
val triage : repro list -> repro list

val repro_to_json : repro -> string

(** What {!replay} needs back out of a reproducer artifact. *)
type spec = {
  sp_tool : string;
  sp_prog : string;
  sp_class : fclass;
  sp_sites : int list;
}

val spec_of_json : Json.t -> (spec, string) result

(** [replay ~fuel s] deterministically rebuilds a reproducer and re-runs
    the oracle; returns the fresh attempt (flagged = reproduced) plus the
    trial description. *)
val replay : fuel:int -> spec -> (attempt * string, string) result

(** {1 The campaign} *)

(** One (tool × fault-class) cell of the canonical detection matrix. *)
type cell = {
  cl_tool : string;
  cl_prog : string;
  cl_class : fclass;
  cl_sites : int;  (** sites armed in the full-set trial *)
  cl_flagged : bool;
  cl_verdict : string;
  cl_repro : repro option;  (** minimized, present iff flagged *)
}

(** {1 The whole campaign} *)

type outcome = {
  o_cells : cell list;
  o_repros : repro list;  (** deduped, minimized, matrix + hunt *)
  o_injected : int;  (** matrix cells armed *)
  o_caught : int;  (** matrix cells flagged *)
  o_crashes : int;  (** crashes anywhere in the campaign *)
  o_hunt_attempts : int;
  o_hunt_distinct : int;
  o_clean_total : int;
  o_clean_bad : int;  (** clean-corpus false violations (must be 0) *)
  o_env_trials : int;
}

(** Did the campaign meet the acceptance bar? 100% detection, zero
    crashes, zero false violations. *)
val passed : outcome -> bool

(** [campaign ?seed ?fuel ?budget ()] — matrix, guided hunt, clean sweep
    and environment sweep, in that order; reproducers triaged across the
    matrix and the hunt. *)
val campaign : ?seed:int -> ?fuel:int -> ?budget:int -> unit -> outcome
