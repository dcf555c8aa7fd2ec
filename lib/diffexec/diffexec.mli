(** Differential execution oracle: does editing preserve behaviour?

    EEL's core claim (paper §3.3, §5) is that a fully-linked executable can
    be edited without changing what it {e does}: "run-time code ensures that
    control passes to the correct edited instruction", dispatch tables are
    rewritten consistently, and the edited SPEC binaries "produce the same
    output". The paper validates this indirectly, by running edited
    benchmarks; Datalog Disassembly's methodology is stronger — round-trip
    real binaries through the rewriter and {e check} functional equivalence.
    This module is that methodology made executable:

    - {!execute} runs one image under {!Eel_emu.Emu} with the
      observable-event sink installed, capturing traps (with arguments),
      stores (with address and value), and the terminal event — exit, fault
      or fuel exhaustion — as one bounded log;
    - {!compare_runs} is the lockstep comparator: it walks the two logs
      index-by-index and classifies the first divergence as an
      {e event-kind mismatch}, a {e value mismatch}, or a
      {e fault asymmetry} — or the whole pair as {e equivalent},
      {e fuel-truncated-equal} (neither side can be refuted under the
      shared budget) or {e both-fault};
    - {!identity_roundtrip} is the round-trip oracle: load → CFG (hidden
      routines drained) → {e no-op edit} → finalize (which runs
      {!Eel.Edit.verify} on every routine, surfacing violations as
      structured {!Eel_robust.Diag} errors) → emit → run both images and
      require event-equivalence.

    Two normalizations make the comparison exact rather than heuristic:

    + {e memory geometry}: both images are loaded with headroom chosen so
      their address spaces have identical size, hence identical initial
      stack pointers — stack traffic compares address-for-address;
    + {e code pointers}: an edited run observes edited code addresses
      (e.g. a spilled return address after [call]); the oracle inverts the
      executable's original→edited address map ({!Eel.Executable.edited_address_map})
      and maps such values back before comparing. Two values whose raw
      words are equal always agree: the stored bytes are identical even
      when the word happens to lie in the edited image's new code.

    Results are exported through [eel.diff.*] metrics and trace spans, so
    divergence rates appear in the same observability namespace as every
    other pipeline measurement. *)

module Contract := Eel_equiv.Contract
module Diag := Eel_robust.Diag
module Emu := Eel_emu.Emu
module Sef := Eel_sef.Sef
module Tier2 := Eel_emu.Tier2

(** Default shared fuel budget for a differential run: small enough that a
    hostile mutant cannot stall a fuzzing campaign, large enough that every
    corpus program runs to completion. *)
val default_fuel : int

(** {1 Running one side} *)

(** How a run ended. Mirrors the terminal observable event — {!Emu.Ob_exit},
    {!Emu.Ob_fault} or {!Emu.Ob_fuel} — as a summary value. *)
type stop = S_exit of int | S_fault of string | S_fuel

val pp_stop : Format.formatter -> stop -> unit

(** One side of a differential comparison: the bounded observable-event
    log plus end-of-run machine state. *)
type run = {
  r_stop : stop;
  r_events : Emu.obs_event array;  (** retained events, execution order *)
  r_total : int;  (** all events, including any dropped past the bound *)
  r_truncated : bool;
  r_filtered : int;  (** events a contract filter masked at record time *)
  r_filtered_stores : int;  (** masked events that were stores *)
  r_filtered_traps : int;  (** masked events that were traps *)
  r_filtered_syscalls : int;  (** masked events that were OS syscalls *)
  r_out : string;
  r_insns : int;
  r_regs : int array;  (** final register file *)
  r_mem : Bytes.t;  (** final memory image (contract checks read it) *)
  r_profile : Emu.profile option;  (** ground-truth profile, when requested *)
}

(** [execute ?fuel ?limit ?headroom exe] loads and runs [exe] with the
    observable-event sink installed. Machine faults and fuel exhaustion are
    {e data} here, not errors — they end the log like any other terminal
    event. [Error _] is reserved for images the emulator cannot even load
    (hostile geometry), reported as a structured {!Diag.error} so drivers
    degrade like the rest of the front end.

    [profile] additionally collects the ground-truth execution profile;
    [filter] installs a record-time event filter with access to the live
    machine (the contract oracle masks an edit's declared side effects
    there, where the stack pointer is still known); [pokes] installs a
    deterministic environment-fault plan ({!Emu.poke}) — the injection
    campaign corrupts chosen words mid-run through it; [os] installs the
    OS layer (lib/os) with fresh per-run state built from the spec, so
    the run's syscalls surface as {!Emu.Ob_syscall} events.

    [tier] selects the execution engine ({!Tier2.tier}); the default is
    {!Tier2.Block} — the block-compiled tier is event-identical to the
    interpreter (the test suite pins this corpus-wide) and the engine
    itself falls back to tier-1 whenever per-instruction instrumentation
    (a profile or a poke plan) is armed, so callers need not care. *)
val execute :
  ?fuel:int -> ?limit:int -> ?headroom:int -> ?profile:bool ->
  ?filter:(Emu.t -> Emu.obs_event -> bool) -> ?tier:Tier2.tier ->
  ?pokes:Emu.poke list -> ?os:Eel_os.Spec.t -> Sef.t ->
  (run, Diag.error) result

(** {1 The lockstep comparator} *)

(** First-divergence classification (the comparator's contract). *)
type dclass =
  | D_kind  (** the two sides produced different {e kinds} of event *)
  | D_value  (** same event kind, different payload (address/value/code) *)
  | D_fault_asym  (** one side faulted where the other did something else *)
  | D_contract
      (** the mismatch is the edited side's own instrumentation stepping
          outside its contract (e.g. a counter store to an undeclared
          address), not a program-behaviour change *)

val dclass_name : dclass -> string

type verdict =
  | Equivalent  (** both exited; logs and output identical *)
  | Fuel_truncated_equal
      (** identical up to where fuel (or the log bound) ran out on at
          least one side: equivalence is neither proven nor refuted *)
  | Both_fault  (** both faulted after identical observable prefixes *)
  | Diverged of dclass
  | Contract_violation
      (** the edit broke its own contract: either an undeclared side
          effect surfaced in the event stream, or a post-run check on the
          instrumentation's output failed *)

val verdict_name : verdict -> string

val is_divergence : verdict -> bool

(** Where (and how) the two runs first disagreed. [dv_pc] is the
    {e original-side} program counter — the address a tool-writer can find
    in the unedited binary; [dv_block] anchors it in CFG terms when the
    oracle has the analysis at hand. For a {!Contract_violation} classified
    from the event stream, [dv_pc] is instead the {e edited-side} pc of the
    offending instrumentation event — the undeclared side effect has no
    original-side home by definition. *)
type divergence = {
  dv_class : dclass;
  dv_index : int;  (** event index of the first mismatch *)
  dv_pc : int;
  dv_block : (string * int) option;  (** routine name, block id *)
  dv_what : string;
  dv_orig : Emu.obs_event option;
  dv_edit : Emu.obs_event option;
  dv_reg_delta : (int * int * int) list;
      (** registers differing at end of run: (reg, original, edited);
          normalized values compared, raw values reported *)
}

type report = {
  rp_verdict : verdict;
  rp_divergence : divergence option;
  rp_events : int * int;  (** total observable events per side *)
  rp_insns : int * int;  (** dynamic instructions per side *)
  rp_stops : stop * stop;  (** how each side ended *)
}

(** [compare_runs ?norm_a ?norm_b ?block_of ?suspect a b] — the lockstep
    comparator. [a] is conventionally the original image's run, [b] the
    edited one; [norm_a]/[norm_b] normalize observed values (the oracle
    passes the inverse address map as [norm_b]); [block_of] maps an
    original pc to a (routine, block id) anchor for the report.

    [suspect] is the contract oracle's classifier: at the first mismatch,
    an edited-side event it recognizes as instrumentation traffic (a store
    to an address the original run never stores to) turns the verdict into
    {!Contract_violation} — the edit leaked an undeclared side effect —
    instead of a plain program-behaviour divergence. *)
val compare_runs :
  ?norm_a:(int -> int) -> ?norm_b:(int -> int) ->
  ?block_of:(int -> (string * int) option) ->
  ?suspect:(Emu.obs_event -> bool) -> run -> run -> report

(** {1 Metrics} *)

(** [coverage_signature rp] — the report compressed to a stable coverage
    key for the mutation scheduler: the verdict, refined by the diverging
    event's kind ([diverged:value-mismatch:store]) or, for both-fault, the
    fault category ([both-fault:illegal]). Finer than {!verdict_name} so
    rich mutation classes keep discovering new behaviour worth budget. *)
val coverage_signature : report -> string

(** {1 Image-level comparison and the round-trip oracle} *)

val equalized_headroom : Sef.t -> Sef.t -> int * int

(** [compare_images ?fuel ?limit ?norm_b ?block_of a b] runs two arbitrary
    images under the shared fuel budget and compares their observable
    behaviour. Used directly by the fuzz driver (mutant vs. its own no-op
    edited form) and by tests seeding known semantics-changing mutants. *)
val compare_images :
  ?fuel:int -> ?limit:int -> ?norm_b:(int -> int) ->
  ?block_of:(int -> (string * int) option) -> Sef.t -> Sef.t ->
  (report, Diag.error) result

(** [identity_roundtrip ?fuel ?limit ?diag ?budget ~mach exe] — the paper's
    correctness claim, made executable. The executable is pushed through
    the whole pipeline with {e no} edits accumulated: open (symbol-table
    refinement), every routine's CFG built and the hidden-routine queue
    drained, layout, post-edit invariant verification ({!Eel.Edit.verify},
    automatic — violations surface as [Error (Invariant_error _)], never as
    exceptions), image emission. Then original and edited images run under
    the same fuel budget and must be event-equivalent.

    [Ok report] describes the comparison; [Error e] means some front-end
    stage refused the input with a structured diagnostic — the oracle
    degrades exactly like the rest of the never-crash front end. *)
val identity_roundtrip :
  ?fuel:int -> ?limit:int -> ?diag:Diag.sink -> ?budget:Diag.budget ->
  mach:Eel_arch.Machine.t -> Sef.t -> (report, Diag.error) result

(** {1 The contract oracle: verifying real edits}

    {!identity_roundtrip} certifies the no-op edit; {!verify_edit} certifies
    a {e real} one. The tool supplies its {!Contract} alongside the edited
    image; the oracle then:

    + runs the original with ground-truth profiling on;
    + runs the edited image with the contract installed as the emulator's
      record-time event filter, so declared instrumentation traffic
      (counter stores, trace-buffer appends, red-zone spills) never enters
      the log — what remains must match the original event-for-event;
    + normalizes the original's store addresses under the contract's
      [addr_norm] (SFI's clamp) and the edited side's values under the
      inverse address map, exactly like the identity oracle;
    + classifies any mismatching edited-side store to an address the
      original run never touched as a {!Contract_violation} — the edit
      leaked an undeclared side effect — rather than a program divergence;
    + on equivalence, runs the contract's post-run checks (qpt2's counter
      words vs the profile's ground truth), demoting a broken promise to
      {!Contract_violation} as well.

    Results are published under [eel.equiv.*]. *)

(** A {!report} plus how much edited-run traffic the contract masked —
    "equivalent" always comes with "and this much was masked to get there". *)
type edit_report = {
  er_report : report;
  er_masked : int;  (** edited-run events filtered under the contract *)
  er_masked_stores : int;  (** masked events that were stores *)
  er_masked_traps : int;  (** masked events that were traps *)
  er_masked_sys : int;
      (** masked syscall events: the edited run's filtered denials plus
          the original-side calls dropped under a declared suppression *)
  er_profile_orig : Emu.profile option;
      (** the original run's ground-truth profile (always collected) *)
  er_profile_edit : Emu.profile option;
      (** the edited run's profile, when [~profiles:true]; the overhead
          ledger diffs the two *)
}

(** [os] runs both sides under the OS layer with that world spec; [os_b]
    overrides the {e edited} side's spec (SFI interposition verifies the
    edited image under a deny policy while the original runs unrestricted,
    with the suppression contract-declared). *)
val verify_edit :
  ?fuel:int -> ?limit:int -> ?norm_b:(int -> int) ->
  ?block_of:(int -> (string * int) option) -> ?pokes_b:Emu.poke list ->
  ?profiles:bool -> ?os:Eel_os.Spec.t -> ?os_b:Eel_os.Spec.t ->
  contract:Contract.t -> Sef.t -> Sef.t -> (edit_report, Diag.error) result

(** {1 Rendering} *)

val pp_report : Format.formatter -> report -> unit

(** [report_to_json ?masked rp] — one report as a JSON object (verdict,
    per-side event/instruction totals, stops, masked-event count, and the
    first divergence when there is one). *)
val report_to_json : ?masked:int -> report -> string
