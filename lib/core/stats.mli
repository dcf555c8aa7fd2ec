(** Global allocation counters for EEL objects.

    The paper compares the number of objects allocated by the EEL-based qpt2
    against the ad-hoc qpt (317,494 vs 84,655, §5) and reports that the
    instruction-sharing optimization reduces allocated EEL instructions by a
    factor of four (§3.4). These counters make both measurements
    reproducible (experiments E5 and E8).

    The mutable record behind {!stats} is the hot-path representation (a
    plain int store per event); consumers should read through the pure
    {!snapshot} instead of aliasing the record. Every field is also visible
    in the {!Eel_obs.Metrics} registry under [eel.stats.*] as a callback
    gauge, so tools and the benchmark harness see one metrics namespace.

    The record is {e domain-local}: each domain increments its own copy,
    so analysis jobs fanned out through {!Eel_util.Pool} never race on the
    counters. At pool join the workers' deltas are summed into the
    caller's record (the join hook below), so the totals a driver reads
    after a parallel sweep equal the serial run's. *)

type t = {
  mutable instrs_lifted : int;  (** total machine words lifted *)
  mutable instrs_alloc : int;  (** EEL instruction objects actually allocated *)
  mutable blocks_alloc : int;
  mutable edges_alloc : int;
  mutable snippets_alloc : int;
  mutable cfgs_built : int;
}

(** The calling domain's counter record. Increment its fields directly on
    hot paths; never cache it across a {!Eel_util.Pool} boundary. *)
val stats : unit -> t

val reset : unit -> unit

(** A pure copy of the counters at the moment of the call. Tools should use
    this rather than reading the shared mutable record, whose fields can
    move under them as analysis proceeds. *)
type snapshot = {
  s_instrs_lifted : int;
  s_instrs_alloc : int;
  s_blocks_alloc : int;
  s_edges_alloc : int;
  s_snippets_alloc : int;
  s_cfgs_built : int;
}

val snapshot : unit -> snapshot

(** Total EEL objects allocated since the last {!reset}.

    Deliberately excludes [instrs_lifted]: that field counts machine words
    {e examined} by the lifter (work performed), not objects allocated —
    with instruction sharing on (§3.4), many lifted words resolve to the
    same shared [instrs_alloc] object. Only the four object counters
    ([instrs_alloc], [blocks_alloc], [edges_alloc], [snippets_alloc])
    contribute; [cfgs_built] is likewise a work counter, not an object
    population. *)
val total_objects : unit -> int

val pp : Format.formatter -> unit -> unit
