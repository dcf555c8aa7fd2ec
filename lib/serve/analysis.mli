(** Per-routine analysis artifacts: the bridge between {!Cache} and
    {!Eel.Executable}'s ambient analysis hooks.

    The artifact for one routine is its converged dispatch-table set — the
    output of the jump-table slicing fixpoint, which is the expensive,
    iterative part of CFG construction (the CFG itself rebuilds in one
    deterministic pass once the tables are known). Artifacts are stored
    under namespace ["rf"] keyed by {!Eel.Executable.routine_digest}, and
    carry a magic + version so a stale or foreign blob decodes to a miss,
    never a wrong answer. *)

module C := Eel.Cfg

val encode : (int * C.table) list -> string

val decode : string -> (int * C.table) list option

val install : Cache.t -> unit

val uninstall : unit -> unit
