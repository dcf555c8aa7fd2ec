(** A SPARC V8 (integer subset) emulator.

    The paper ran original and edited executables on real SPARC hardware;
    this emulator is the repository's stand-in (see DESIGN.md). It implements
    the pc/npc delayed-control-transfer model exactly — including annulled
    delay slots — so that EEL's delay-slot CFG normalization and delay-slot
    refolding are tested against real architectural behaviour, not a
    simplification.

    Besides executing programs, the emulator serves as {e ground truth} for
    every editing experiment: it counts dynamic instructions (the basis of
    the Active Memory slowdown experiment E6), records memory events and
    per-pc execution counts (validating qpt2's edge profiles), and checks
    that edited executables produce byte-identical observable output.

    System-call convention: [ta n] with arguments in %o0–%o2 and result in
    %o0 (the trap number selects the call, statically visible to EEL):

    - [ta 1] — exit; %o0 is the exit code
    - [ta 2] — putint: print %o0 as signed decimal plus newline
    - [ta 3] — putchar: print the byte in %o0
    - [ta 4] — write: print %o1 bytes starting at address %o0
    - [ta 5] — brk: set the heap break to %o0; returns it in %o0
    - [ta 7] — cycles: return the dynamic instruction count in %o0 *)

open Eel_sparc

exception Fault of string

val fault : ('a, unit, string, 'b) format4 -> 'a

type event =
  | Ev_exec of { pc : int; word : int }
  | Ev_load of { pc : int; addr : int; width : int }
  | Ev_store of { pc : int; addr : int; width : int }

(** {1 Observable events}

    The differential oracle (lib/diffexec) compares two executions by their
    {e observable} behaviour, not their instruction streams: system calls
    with their arguments, stores with address and value, and how the run
    ended. Every way a run can end — [ta 1] exit, a machine {!Fault}, fuel
    exhaustion — flows through the same constructor set, so an event log
    always terminates in exactly one of {!Ob_exit}, {!Ob_fault} or
    {!Ob_fuel} and a comparator never has to reconcile events against
    out-of-band exceptions.

    The [pc] carried by each event is the address the {e emitting} image
    executed at; original and edited images run the same program at
    different addresses, so comparators must treat [pc] as reporting
    metadata, not as part of the observable payload. *)

type obs_event =
  | Ob_trap of { pc : int; num : int; arg : int }
      (** a [ta n] system call; [arg] is %o0 at trap time *)
  | Ob_store of { pc : int; addr : int; width : int; value : int }
      (** for [std], [value] is the even register of the pair *)
  | Ob_syscall of {
      pc : int;
      num : int;  (** OS syscall number (already decoded from the immediate) *)
      a0 : int;  (** %o0 at trap time — fd / path address / exit code *)
      a1 : int;
      a2 : int;
      ret : int;  (** %o0 after the call: result, or errno when [err] *)
      err : bool;  (** the carry flag the call left behind *)
      data : int;
          (** checksum of the bytes actually transferred (reads/writes), 0
              otherwise — catches a same-length-different-bytes divergence
              without logging payloads *)
    }
      (** an OS-layer system call dispatched by an installed trap handler
          (see {!set_trap_handler}); the full call/return pair as one
          event, so the differential oracle compares syscall {e streams} *)
  | Ob_exit of { pc : int; code : int }  (** [ta 1] *)
  | Ob_fault of { pc : int; what : string }  (** machine fault (see {!Fault}) *)
  | Ob_fuel of { pc : int }  (** the fuel budget ran out at [pc] *)

val obs_pc : obs_event -> int

val pp_obs : Format.formatter -> obs_event -> unit

(** A bounded observable-event log. The first [limit] events are retained
    verbatim; later ones are counted but dropped, so a hostile or
    store-heavy program cannot drive the oracle into unbounded allocation.
    [obs_total > List.length (obs_events l)] tells a comparator the log was
    truncated (comparisons on a truncated log are prefix comparisons). *)
type obs_log

val obs_log : ?limit:int -> unit -> obs_log

(** Retained events, in execution order. *)
val obs_events : obs_log -> obs_event list

val obs_events_array : obs_log -> obs_event array

(** Total events observed, including any dropped past the bound. *)
val obs_total : obs_log -> int

val obs_truncated : obs_log -> bool

(** Events an installed filter suppressed (0 when no filter ran). *)
val obs_filtered : obs_log -> int

(** Breakdown of {!obs_filtered} by event kind — the overhead ledger's
    "extra stores" / "extra traps" columns read these directly. *)
val obs_filtered_stores : obs_log -> int

val obs_filtered_traps : obs_log -> int

val obs_filtered_syscalls : obs_log -> int

(** {1 Execution profiling}

    The emulator is the ground truth for every editing experiment; a
    {!profile} captures that ground truth as data a tool's own measurements
    can be validated against (ISSUE 2): per-basic-block execution counts
    (qpt2's edge profiles must be consistent with them), the dynamic
    instruction-class mix, fuel consumed, and memory-operation counts.

    A {e block entry} is an instruction reached non-sequentially — the
    target of a taken control transfer, or the first instruction executed.
    Those addresses are exactly the leaders of the dynamic basic blocks. *)

(** One node of the calling-context tree: a routine entry address reached
    by a call, with the dynamic instructions (and class mix) attributed to
    that context and the contexts called from it. *)
type cct

type cframe

type profile = {
  mutable p_insns : int;  (** fuel consumed (dynamic instructions) *)
  mutable p_block_entries : int;  (** non-sequential arrivals *)
  p_block_counts : (int, int) Hashtbl.t;  (** block-leader pc -> entries *)
  p_pc_counts : (int, int) Hashtbl.t;  (** pc -> execution count *)
  p_class_counts : int array;  (** indexed like {!iclass_names} *)
  mutable p_last_pc : int;
  p_root : cct;  (** calling-context tree root (the entry routine) *)
  mutable p_cur : cct;  (** context currently executing *)
  mutable p_stack : cframe list;  (** shadow call stack (callers of cur) *)
  mutable p_depth : int;
  mutable p_pending_call : int;
      (** return address of a just-executed call, [min_int] when none; the
          next block entry within the DCTI window is its callee *)
  mutable p_pending_ret : bool;
  mutable p_pending_at : int;  (** [p_insns] when the pending flag was set *)
}

val create_profile : unit -> profile

(** Times the block led by [pc] was entered via a control transfer (or
    program start); 0 for addresses only ever reached by fall-through. *)
val block_count : profile -> int -> int

(** Times the instruction at [pc] was executed. *)
val pc_count : profile -> int -> int

(** Dynamic memory-instruction count (loads + stores). *)
val mem_ops : profile -> int

(** Dynamic store-instruction count. Each store instruction emits exactly
    one observable event, so under an equivalent verdict the edited run's
    store surplus must equal the contract's masked-store count — the
    ledger's zero-unexplained cross-check. *)
val store_ops : profile -> int

(** Dynamic instruction mix as [(class, count)] in {!iclass_names} order. *)
val class_mix : profile -> (string * int) list

(** [profile_hotspot ?name_of ?root ?prefix p] converts the calling-context
    tree into a named {!Eel_obs.Hotspot.t}: [name_of] renders a context's
    entry pc (default hex), [root] names the entry routine, and [prefix]
    frames (e.g. the program name) wrap the whole tree so many programs can
    merge into one flamegraph. *)
val profile_hotspot :
  ?name_of:(int -> string) -> ?root:string -> ?prefix:string list -> profile ->
  Eel_obs.Hotspot.t

(** [publish_profile p] surfaces the profile in the {!Eel_obs.Metrics}
    registry under [<prefix>.*] so traces, tools and the benchmark harness
    read emulator ground truth from the same namespace as every other
    metric. *)
val publish_profile : ?prefix:string -> profile -> unit

type t = {
  mem : Bytes.t;
  regs : int array;  (** 34 entries: 32 GPRs + icc + y *)
  mutable pc : int;
  mutable npc : int;
  mutable exited : int option;
  mutable ninsns : int;
  mutable nloads : int;
  mutable nstores : int;
  mutable brk : int;
  output : Buffer.t;
  mutable hook : (event -> unit) option;
  mutable obs : obs_log option;  (** observable-event sink; [None] = free *)
  mutable obs_filter : (obs_event -> bool) option;
      (** when installed, an event is recorded only if the filter returns
          [true]; rejected events are tallied in the log's filtered count.
          The equivalence oracle uses this to drop an edit contract's
          declared side effects at record time (spill traffic below the
          stack pointer can only be recognized while [sp] is live). *)
  mutable profile : profile option;
  segs : seg array;
      (** the predecoded text, one segment per run of text sections (see
          {!load}), sorted by address and disjoint; [[||]] when
          predecoding is off or no section has clean geometry *)
  text_lo : int;
  text_hi : int;
      (** the address hull of [segs] ([0, 0) when empty): a one-compare
          pre-filter that keeps stores outside it off the segment search *)
  mutable code : Insn.t array;
      (** the {e current} segment's instructions, indexed by
          [(pc - code_lo) / 4]: {!fetch_insn}'s hot path is one range
          check against it, and a fetch outside it switches to the segment
          holding the pc (or decodes per step in no segment). [[||]] when
          [segs] is empty. Kept coherent with [mem] by {!store_mem}: any
          store landing in a segment re-decodes its word, so
          self-modifying code behaves exactly as the decode-per-step
          path. *)
  mutable code_lo : int;  (** base address of [code] *)
  mutable pokes : poke list;
      (** pending environment faults, sorted by [pk_at]; see {!set_pokes} *)
  mutable alt_run : (int -> unit) option;
      (** alternate execution engine (the tier-2 block compiler installs
          itself here; see lib/emu/tier2.ml). {!run} dispatches to it with
          the fuel budget {e only} when no per-instruction hook, no
          profile and no poke plan is armed — those demand the
          interpreter's per-step visibility, so an armed one silently
          forces tier-1. The engine must leave [pc]/[npc]/[ninsns]
          materialized whenever it raises or returns, and must raise
          {!Fault} / {!Out_of_fuel} exactly as the interpreter would. *)
  mutable on_invalidate : (int -> unit) option;
      (** notified with the word-aligned address every time a store or
          poke lands in a predecoded segment ({!invalidate_code});
          the tier-2 code cache drops compiled blocks covering it. *)
  mutable trap_handler : (t -> int -> bool) option;
      (** optional OS layer (lib/os): consulted before the builtin [ta n]
          dispatch with the {e raw} trap number; returning [true] means the
          trap was handled (registers/memory/exit already updated and any
          {!Ob_syscall} event emitted), [false] falls through to the
          builtin convention. See {!set_trap_handler}. *)
}

(** A deterministic environment fault: when the machine has executed
    [pk_at] instructions, the 32-bit word at [pk_addr] is overwritten with
    [pk_value] — before the next instruction runs. Pokes model corruption
    arriving from {e outside} the program (the fault-injection campaign's
    image bit-flips and counter-skew attacks), so they are applied directly
    to memory: no observable event is recorded, no store count ticks. The
    predecoded code array {e is} kept coherent (a poke into text must
    change what executes, exactly like a program store would). A poke whose
    address is out of range or misaligned is dropped silently — a fault
    plan can never crash the machine. *)
and poke = { pk_at : int; pk_addr : int; pk_value : int }

(** A predecoded segment: [sg_code.(i)] decodes the word at
    [sg_lo + 4 * i]. *)
and seg = { sg_lo : int; sg_code : Insn.t array }

(** Default extra space above the loaded image: heap + stack. *)
val default_headroom : int

val stack_size : int

val seg_index : t -> int -> int

(** [load ?headroom ?predecode exe] builds a machine state with [exe]'s
    sections copied into a flat memory image, the stack pointer at the top
    of memory, and pc at the entry point. Raises {!Fault} when the image
    cannot be built: sections with negative geometry, contents shorter than
    the declared size, or an address space larger than {!max_image_bytes}.

    With [predecode] (the default) each text section is decoded once into
    an instruction array (a {e segment}) so {!step} never calls
    [Insn.decode] on the hot path; [~predecode:false] keeps the
    decode-per-step behaviour (the benchmark harness measures one against
    the other). *)
val load : ?headroom:int -> ?predecode:bool -> Eel_sef.Sef.t -> t

(** Words predecoded by {!load}, summed over all segments (0 when
    predecoding is off). *)
val predecoded_words : t -> int

(** [publish_machine t] surfaces the loaded machine's size in the
    {!Eel_obs.Metrics} registry: [emu.predecode.words] ({!predecoded_words})
    and [emu.mem.bytes] (the flat address space). *)
val publish_machine : t -> unit

(** [set_obs t log] installs (or, with [None], removes) the observable-event
    sink. With no sink installed the interpreter loop performs a single
    [match] per potential event and allocates nothing. *)
val set_obs : t -> obs_log option -> unit

(** [set_obs_filter t f] installs (or removes) the record-time event filter;
    it only matters while an observable-event sink is installed. *)
val set_obs_filter : t -> (obs_event -> bool) option -> unit

(** [set_profile t p] installs (or removes) a ground-truth profile sink,
    like {!run_exe}'s [?profile] but usable on an already-loaded machine. *)
val set_profile : t -> profile option -> unit

val obs_of : t -> obs_log option

val obs_emit : t -> obs_event -> unit

val reg : t -> int -> int

val set_reg : t -> int -> int -> unit

val load_mem : t -> int -> int -> signed:bool -> int

val invalidate_code : t -> int -> unit

val store_mem : t -> int -> int -> int -> unit

(** [set_pokes t ps] installs a fault plan (see {!poke}); the plan is
    consumed as {!run} reaches each poke's instruction count. Replaces any
    pending plan. *)
val set_pokes : t -> poke list -> unit

(** {1 Condition codes} *)

val icc_logic : int -> int

val icc_add : int -> int -> int -> int

val icc_sub : int -> int -> int -> int

(** {1 System calls} *)

val syscall : t -> int -> unit

(** [set_trap_handler t h] installs (or, with [None], removes) an OS-layer
    trap handler (see {!type:t}'s [trap_handler]). *)
val set_trap_handler : t -> (t -> int -> bool) option -> unit

(** {1 Execution} *)

val step_plain : t -> unit

exception Out_of_fuel

type result = {
  exit_code : int;
  insns : int;
  loads : int;
  stores : int;
  out : string;
}

(** [run ?fuel t] executes until exit. Raises {!Fault} on machine faults and
    {!Out_of_fuel} after [fuel] instructions (default 200M). When an
    observable-event sink is installed, faults and fuel exhaustion are
    recorded in the log (as {!Ob_fault} / {!Ob_fuel}) before the exception
    propagates, so the log always carries the run's terminal event. *)
val run : ?fuel:int -> t -> result

(** {1 Inquiry accessors (for the differential oracle)} *)

val output : t -> string

val insns_executed : t -> int

(** Current stack pointer — live machine state, for record-time filters
    that must recognize red-zone (below-sp) spill traffic. *)
val sp : t -> int

(** A copy of the register file (32 GPRs followed by icc and y). *)
val registers : t -> int array

(** [run_exe ?fuel ?hook ?profile ?predecode exe] loads and runs an
    executable. [profile] collects ground-truth execution statistics (see
    {!profile}); when absent the per-instruction profiling cost is a single
    match. [~predecode:false] disables the predecoded fast path (see
    {!load}). *)
val run_exe :
  ?fuel:int -> ?hook:(event -> unit) -> ?profile:profile -> ?predecode:bool ->
  Eel_sef.Sef.t -> result * t
