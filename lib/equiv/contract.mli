(** Edit contracts — a tool's declaration of its observable side effects.

    EEL's headline claim is that a tool's edits preserve program behaviour
    {e modulo the tool's own declared effects}: qpt2 stores to its counter
    words, the tracer appends to its trace buffer, SFI clamps store
    addresses into the sandbox segment (paper §§5–7). The differential
    oracle (lib/diffexec) can therefore only certify a {e real} edit if it
    knows which observable events are the instrumentation talking and which
    are the program's own. A {!t} is that knowledge, stated by the tool
    that made the edit:

    - {e regions}: added-data address ranges the instrumentation stores to
      (counter words, trace buffers, state tables). A store into a declared
      region is the tool's, and is filtered from the edited run's event log
      at record time.
    - {e red zone}: snippets that could not scavenge enough registers spill
      below the stack pointer (see {!Eel.Snippet}); a store within
      [red_zone] bytes {e below the live sp} is instrumentation bookkeeping.
      Only the emulator knows sp at store time, so this part of the mask is
      applied by the record-time filter, never post-hoc.
    - {e traps}: extra system-call numbers the instrumentation issues (a
      tracing edit that emits [ta] trace traps declares them here).
    - {e addr_norm}: a transfer function the edit applies to {e every}
      program store address (SFI's clamp). The oracle applies it to the
      {e original} run's store addresses so both sides land in the image
      the edited program actually produces.
    - {e checks}: promises about the instrumentation's own output, verified
      after an equivalent run against emulator ground truth (qpt2's counter
      words must equal the profile's execution counts).

    The contract deliberately has no opinion about {e values} stored by the
    program, exit codes, or program output: those are the oracle's job.
    Everything the contract masks is accounted for (the emulator counts
    filtered events), so "equivalent" always comes with "and this much
    traffic was masked under the contract". *)

module Emu := Eel_emu.Emu

(** A half-open address range [\[rg_lo, rg_hi)] the instrumentation owns. *)
type region = { rg_name : string; rg_lo : int; rg_hi : int }

(** A post-run promise about the instrumentation's own output: given the
    {e original} run's ground-truth profile and the {e edited} run's final
    memory, decide whether the instrumentation told the truth. *)
type check = {
  ck_name : string;
  ck_run : profile:Emu.profile -> mem:Bytes.t -> (unit, string) result;
}

type t = {
  ct_tool : string;
  ct_regions : region list;
  ct_red_zone : int;
      (** bytes below the live stack pointer masked in the edited run
          (snippet spill slots); 0 = the edit never spills *)
  ct_traps : int list;  (** extra trap numbers the instrumentation issues *)
  ct_addr_norm : (int -> int) option;
      (** applied to original-side store addresses before comparison *)
  ct_sys_extra : int list;
      (** extra OS {e syscall} numbers the instrumentation issues (masked
          from the edited run's log at record time, like [ct_traps]) *)
  ct_sys_suppress : (int -> int -> bool) option;
      (** declared syscall suppression, as a [(num, a0)] predicate: the
          edit interposes on matching calls and denies them (SFI's policy
          table). The oracle drops the matching {e error} returns from the
          edited run at record time and the matching {e successful} calls
          from the original run post-hoc, so both streams describe the
          world the sandboxed program actually reaches. An undeclared
          denial is a contract violation, not an allowed effect. *)
  ct_fd_norm : (int -> int -> int) option;
      (** fd-space transform [(num, a0) -> a0'] applied to original-side
          syscall fd arguments before comparison (an edit that renumbers
          descriptors, the fd analog of [ct_addr_norm]) *)
  ct_checks : check list;
}

val make :
  ?regions:region list -> ?red_zone:int -> ?traps:int list ->
  ?addr_norm:(int -> int) -> ?sys_extra:int list ->
  ?sys_suppress:(int -> int -> bool) -> ?fd_norm:(int -> int -> int) ->
  ?checks:check list -> string -> t

val region : name:string -> lo:int -> size:int -> region

(** [span ~name addrs] — the smallest region covering every 4-byte word in
    [addrs]; [None] when the list is empty (an edit that placed nothing). *)
val span : name:string -> int list -> region option

val in_region : region -> int -> bool

(** Does the contract declare a store to address [a]? (Regions only — the
    red zone needs a live sp, see {!declared}.) *)
val declares_store : t -> int -> bool

(** [declared t ~sp ev] — is [ev] the instrumentation's own traffic under
    this contract, given the live stack pointer [sp]? This is the
    record-time mask the oracle installs as the edited run's event filter. *)
val declared : t -> sp:int -> Emu.obs_event -> bool

(** [suppressed_orig t ev] — is [ev] an original-side event the declared
    syscall suppression removes from the comparison? Any call the
    interposition denies is dropped, whatever its original outcome: the
    sandboxed world has no record of whether the call would have
    succeeded or failed, only that it was refused. Applied post-hoc by
    the oracle. *)
val suppressed_orig : t -> Emu.obs_event -> bool

(** [normalize_orig t ev] — the original-side event as the edited program
    would observe it: store addresses pushed through [addr_norm] (SFI's
    clamp) and syscall fd arguments through [fd_norm]; everything else
    unchanged. *)
val normalize_orig : t -> Emu.obs_event -> Emu.obs_event

(** [mask_events t evs] — post-hoc filtering of an event array under the
    contract's {e static} mask (regions and traps; the red zone cannot be
    recovered after the fact). For tests and offline log analysis; the
    oracle itself filters at record time. *)
val mask_events : t -> Emu.obs_event array -> Emu.obs_event array

(** {1 Adversarial contract surgery}

    The fault-injection campaign (lib/robust's [Fault]) needs to state
    {e lies}: contracts that under-declare, over-declare or mis-declare a
    tool's side effects, so the oracle can be shown to catch each kind of
    lie. These transformers produce such contracts from an honest one; they
    are pure (the original contract is untouched). *)

(** Forget one declared region (by index into [ct_regions]) — the
    "missing declaration" lie: the tool's stores there become undeclared
    side effects the oracle must flag. Out-of-range indices are identity. *)
val forget_region : t -> int -> t

(** Claim one extra region — the "over-declaration" lie: when the region
    covers memory the {e program} writes, the oracle's masked edited run
    goes silent where the original does not, and lockstep breaks. *)
val claim_region : t -> region -> t

(** Claim an extra instrumentation trap number — masking a trap the
    program itself issues. *)
val claim_trap : t -> int -> t

(** Replace the declared store-address transform — the "phantom transform"
    lie: the contract claims every program store address is rewritten by
    [f], but the edit applies no such thing (or a different one), so the
    normalized original stores and the edited run's raw stores no longer
    meet. *)
val claim_addr_norm : t -> (int -> int) -> t

(** Claim an extra instrumentation {e syscall} number — masking an OS call
    the program itself makes (the syscall-surface analog of
    {!claim_trap}). *)
val claim_sys : t -> int -> t

(** [run_checks t ~profile ~mem] runs every post-run check; the result is
    the first failure, tagged with its check's name. *)
val run_checks :
  t -> profile:Emu.profile -> mem:Bytes.t -> (unit, string) result
