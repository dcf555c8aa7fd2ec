(** Executables and routines (paper §3.1, §3.2) — EEL's top-level
    abstraction.

    "A tool opens an executable, examines and modifies its contents, and
    writes an edited version."

    The heart of this module is {e symbol-table refinement}: executable
    symbol tables are "typically incomplete or misleading", so EEL analyzes
    the program to find data tables, hidden routines, and multiple entry
    points (§3.1):

    + discard duplicate, temporary and debugging labels, labels not on an
      instruction boundary, and labels that are branch targets from the
      preceding routine (internal labels);
    + for stripped executables, seed routines with the program entry point,
      the first text address, and the targets of direct calls;
    + make the destinations of calls and out-of-routine jumps additional
      entry points of the routines containing them;
    + during CFG construction, classify reachable-but-invalid instructions
      as data, and unreachable trailing code as {e hidden routines}, which
      are queued on {!hidden_routines} for the tool to process (and whose
      analysis may add entry points to existing routines).

    Editing output model: the original sections are kept at their original
    addresses (so every address constant into data — including data tables
    in the text segment — stays valid), and edited code is placed in new
    high-address sections. Dispatch tables are rewritten in place to point
    at edited code; indirect calls and unanalyzable indirect jumps go
    through a run-time translation table mapping original instruction
    addresses to edited ones. [edited_addr] exposes the mapping, as in
    paper Fig. 1. *)

open Eel_arch
module C := Cfg
module Diag := Eel_robust.Diag
module Sef := Eel_sef.Sef

type routine = {
  r_name : string;
  r_lo : int;
  mutable r_hi : int;
  mutable r_entries : int list;  (** entry addresses; [r_lo] is always one *)
  mutable r_cfg : C.t option;
  mutable r_editor : Edit.editor option;
  mutable r_edited : Edit.edited option;
  r_hidden : bool;  (** discovered by analysis rather than the symbol table *)
}

type t = {
  exe : Sef.t;
  mach : Machine.t;
  cache : Instr_cache.t;
  text_lo : int;
  text_hi : int;
  mutable routines : routine list;  (** sorted by [r_lo] *)
  mutable hidden : routine list;  (** discovery queue (paper Fig. 1) *)
  (* new-region allocation *)
  xlat_base : int;
  data_base : int;
  mutable data_cursor : int;
  code_base : int;
  mutable code_cursor : int;
  mutable added_data : (int * bytes) list;
  mutable added_routines : (string * int * int array) list;
  (* editing policy knobs (ablations) *)
  mutable fold_delay : bool;
  mutable max_span : int option;
  mutable slicing : bool;  (** dispatch-table slicing enabled *)
  (* finalized layout *)
  mutable addr_map : (int, int) Hashtbl.t option;
  mutable placed : (routine * Edit.edited * int) list;
  mutable new_text_base : int;
  mutable new_text_size : int;
  (* robustness plumbing *)
  diag : Diag.sink option;  (** degradation diagnostics accumulate here *)
  work : Diag.budget;  (** decode/analysis work bound (anti-non-termination) *)
}

(** {1 Opening} *)

(** [read_contents ?cache_instrs ?diag ?budget mach exe] opens an executable
    and performs symbol-table refinement stages 1–3. Stage 4 happens lazily
    as CFGs are built. [diag] receives degradation warnings from the whole
    pipeline; [budget] bounds total analysis work (default
    {!Diag.default_budget_units}). *)
val read_contents :
  ?cache_instrs:bool -> ?diag:Diag.sink -> ?budget:Diag.budget -> Machine.t ->
  Sef.t -> t

(** [open_exe ?strict ?diag ?cache_instrs ?budget mach exe] — the
    Result-returning front door. Re-validates the in-memory image (callers
    may have constructed [exe] directly rather than via {!Sef.load}), then
    runs symbol-table refinement. [Error _] carries the structured failure;
    diagnostics, if a sink was supplied, describe everything that was
    degraded along the way. In [strict] mode the sink promotes warnings to
    errors and validation failures reject the executable. *)
val open_exe :
  ?strict:bool -> ?diag:Diag.sink -> ?cache_instrs:bool ->
  ?budget:Diag.budget -> Machine.t -> Sef.t -> (t, Diag.error) result

val routines : t -> routine list

val hidden_routines : t -> routine list

(** {1 Routine-granular analysis artifacts (the serve subsystem's cache)}

    Everything CFG construction and the slicing fixpoint derive from a
    routine is a function of the routine's text bytes, its entry set and
    its placement — so it can be cached content-addressed and reused across
    invocations, and a patched executable only re-analyzes the routines
    whose bytes actually changed. {!routine_digest} is the key;
    {!set_analysis_cache} installs an ambient lookup/store pair that
    {!build_cfg} consults (lib/serve provides one backed by its
    content-addressed store; when none is installed the pipeline behaves
    exactly as before). *)

(** Bump when anything that feeds {!routine_digest} or the cached artifact
    encoding changes shape: stale artifacts must miss, not corrupt. *)
val analysis_version : string

(** [routine_digest t r] — content digest (hex) of everything the routine's
    analysis depends on: the artifact-format version, the machine, the
    slicing policy, the routine's placement [r_lo] (dispatch-table targets
    are absolute addresses), extent, sorted relative entry offsets, and the
    routine's text bytes. Table {e contents} live in data sections outside
    the digest; cached tables are therefore re-validated against memory
    before use (see {!build_cfg}). *)
val routine_digest : t -> routine -> string

type analysis_hooks = {
  ac_lookup : string -> (int * C.table) list option;
      (** digest -> previously-converged dispatch tables, if cached *)
  ac_store : string -> (int * C.table) list -> unit;
      (** record a converged table set under the routine's digest *)
}

val analysis_cache : analysis_hooks option Atomic.t

(** [set_analysis_cache h] installs (or, with [None], removes) the ambient
    per-routine analysis cache. Call before spawning pool workers. *)
val set_analysis_cache : analysis_hooks option -> unit

val start_address : t -> int

val find_routine : t -> int -> routine option

val routine_named : t -> string -> routine option

val fetch : t -> int -> int option

(** {1 CFG construction with the slicing fixpoint (stage 4)} *)

(** [control_flow_graph t r] — the routine's CFG, built on first use. *)
val control_flow_graph : t -> routine -> C.t

(** [take_hidden t] pops one discovered hidden routine and registers it as a
    normal routine (the paper Fig. 1 main loop). *)
val take_hidden : t -> routine option

(** A "routine" that analysis revealed to be pure data (e.g. a table in the
    text segment carrying a function-looking symbol). *)
val is_data_table : t -> routine -> bool

(** {1 Editing} *)

val editor : t -> routine -> Edit.editor

(** [produce_edited_routine t r] lays out the routine's accumulated edits
    (paper §3.3.1). Safe to call with no edits: the routine is re-emitted
    verbatim with adjusted displacements. *)
val produce_edited_routine : t -> routine -> unit

(** [delete_control_flow_graph r] — drop analysis state (paper Fig. 1 frees
    CFGs after each routine to bound memory). The edited form is kept. *)
val delete_control_flow_graph : routine -> unit

(** {1 Adding data and routines} *)

(** [reserve_data t ?init size] allocates [size] bytes in the added-data
    region (zero-initialized unless [init] is given) and returns the
    address — known immediately, so tools can bake it into snippets
    (paper Fig. 2's [COUNTER_START]). *)
val reserve_data : t -> ?init:bytes -> int -> int

(** [add_routine t ~name body] assembles [body] (snippet syntax: labels,
    [$params], no directives) and places it at a fresh address, returned
    immediately so snippets can call it. This is how Active Memory "adds
    many routines (another program) to an executable" (§5). *)
val add_routine :
  t -> name:string -> ?params:(string * int) list -> string -> int

(** {1 Finalization and output} *)

(** [edited_addr t a] — the edited location of original instruction address
    [a] (paper Fig. 1). *)
val edited_addr : t -> int -> int option

(** [edited_address_map t] — the complete original→edited instruction
    address map (finalizing the layout if needed). The differential oracle
    inverts this to normalize code-pointer values (e.g. a spilled return
    address) observed in an edited run back to original addresses before
    comparing against the original run. Treat the table as read-only. *)
val edited_address_map : t -> (int, int) Hashtbl.t

(** [edited_growth t] — per-routine static cost of the accumulated edits:
    [(name, original bytes, edited bytes)] for every routine an edited form
    was placed for, sorted by name. The overhead ledger's "routines
    touched" and static-size columns come from here. *)
val edited_growth : t -> (string * int * int) list

(** [inverse_address_norm t] — a value normalizer for the differential
    oracle: edited instruction addresses map back to their original ones,
    anything else passes through. An edited run that spills a code pointer
    (e.g. a return address after [call]) observes the edited address; this
    maps it back so the value compares equal to the original run's. *)
val inverse_address_norm : t -> int -> int

(** [block_of_addr t a] — the CFG block id and routine name containing the
    original instruction address [a], if analysis placed it in one. Used by
    divergence reports to anchor a PC in CFG terms. *)
val block_of_addr : t -> int -> (string * int) option

(** {1 Building the edited image} *)

(** [to_edited_sef t ?entry ()] builds the edited executable image: original
    sections (with dispatch tables rewritten in place), the edited text
    section, added data/routines, the run-time translation table if needed,
    and a refreshed symbol table mapping routine names to their edited
    locations. *)
val to_edited_sef : t -> ?entry:int -> unit -> Sef.t

(** {1 Program-wide statistics (experiments E2–E5, E8)} *)

type jump_stats = {
  js_routines : int;
  js_instructions : int;  (** text words *)
  js_indirect_jumps : int;
  js_unanalyzable : int;
}

(** Build every routine's CFG and count indirect-jump analyzability — the
    paper's §3.3 SPEC92 measurement. *)
val jump_stats : t -> jump_stats

(** Aggregate CFG statistics over every routine (experiments E3, E4). *)
val cfg_stats : t -> C.stats
