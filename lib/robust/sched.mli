(** Coverage-guided mutation scheduling (ROADMAP: "coverage-guided
    mutation").

    {!Mutate.corpus} cycles through the mutation classes blindly: every
    class receives [count / 16] attempts no matter what those attempts
    discover. This module replaces the blind cycle with a
    coverage-feedback loop: after each mutant runs, the driver reports the
    {e signature} of what that mutant exercised — which structured
    diagnostic it was rejected with, which degradation path it took,
    which divergence class the differential oracle assigned — and the
    scheduler biases subsequent picks toward the classes still producing
    {e new} signatures.

    The pick rule is a deterministic richness estimate (a Laplace-smoothed
    discovery rate): class [k]'s score is

    {[ (distinct_signatures(k) + 1) / (attempts(k) + 2) ]}

    — the expected probability that one more attempt at [k] reveals
    behaviour nobody has seen. Classes that keep yielding fresh signatures
    (historically [bit-flip-text], whose mutants scatter across the whole
    diagnostic and divergence space) retain a high score; classes that
    saturate after one signature (e.g. [bad-magic], which is always
    [rejected:sef]) decay as [1/attempts] and stop consuming budget.
    A never-attempted class beats any score, and ties break toward the
    least-attempted class, then the lowest class index — so the first 16
    picks visit every class once: guided coverage is a superset of one
    blind cycle before any bias kicks in.

    Coverage is also published through the {!Eel_obs.Metrics} registry —
    [<prefix>.<class>] gauges hold per-class distinct-signature counts and
    [<prefix>.distinct] the global count — so the fuzz outcome table and
    any external consumer read scheduling state from the same namespace as
    every other metric. *)

type 'a t

(** [make ?prefix ~label classes] — a scheduler over an arbitrary arm
    space. The fault-injection campaign schedules over
    [(tool × fault-class)] arms with exactly the same discovery-rate rule
    the SEF mutation loop uses; [label] renders an arm for metrics and
    reports. [classes] must be non-empty and its elements distinct under
    structural equality. *)
val make : ?prefix:string -> label:('a -> string) -> 'a array -> 'a t

(** The SEF-mutation scheduler: one arm per {!Mutate.kind}. *)
val create : ?prefix:string -> unit -> Mutate.kind t

val num_classes : 'a t -> int

val attempts_of : 'a t -> 'a -> int

val distinct_of : 'a t -> 'a -> int

(** Distinct signatures observed across every class. *)
val distinct : 'a t -> int

val signatures : 'a t -> string list

(** [next t] — the class the next mutant should come from. Deterministic:
    the pick depends only on the sequence of {!observe} calls so far.
    A never-attempted class always wins (lowest index first), so the first
    16 picks visit every class once — the exploration floor without which
    a single always-fresh class would monopolize the whole budget. *)
val next : 'a t -> 'a

(** [observe t kind ~signature] feeds back what the mutant of class [kind]
    exercised. Returns [true] when the signature is new for that class. *)
val observe : 'a t -> 'a -> signature:string -> bool

(** {1 Schedules}

    A schedule is the sequence of classes a [count]-mutant budget is spent
    on. [blind] reproduces {!Mutate.corpus}'s cycle; [guided] closes the
    loop through a caller-supplied runner that maps each mutant to its
    coverage signature. Both are deterministic in [(seed, count)]. *)

val blind : count:int -> Mutate.kind list

(** [guided t ~seed ~count base ~run] drives [count] mutants: each round
    picks a class with {!next}, derives the mutant deterministically from
    [seed] and the round index (the same PRNG stream {!Mutate.corpus}
    uses), runs it, and feeds the resulting signature back with
    {!observe}. Returns the per-round [(index, kind, signature)] trace. *)
val guided :
  Mutate.kind t -> seed:int -> count:int -> Eel_sef.Sef.t ->
  run:(int -> Mutate.kind -> string -> string) ->
  (int * Mutate.kind * string) list
