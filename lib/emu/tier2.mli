(** Tier-2 execution: hot basic blocks compiled to OCaml closures.

    The tier-1 interpreter ({!Emu.run}) dispatches one predecoded [Insn.t]
    at a time and re-materializes the full pc/npc machine after every
    instruction. This module adds a second tier in the style of a
    baseline JIT: straight-line basic blocks that the program enters often
    enough (a hotness threshold over non-sequential arrivals, the same
    notion of "block entry" as the ground-truth profile) are compiled once
    into a chain of OCaml closures, and compiled blocks link directly to
    their compiled successors, so steady-state execution never consults
    the decoder, the dispatch [match], or the pc/npc registers at all —
    those are materialized only at block boundaries.

    {2 Exactness and OSR deopt}

    The emulator is the repository's ground truth, so tier-2 must be
    {e indistinguishable} from tier-1: same registers, same memory, same
    observable events in the same order, same fault messages at the same
    instruction counts. Anything the straight-line code cannot reproduce
    exactly triggers an on-stack-replacement transfer back to the
    interpreter ("On-Stack Replacement à la Carte" is the playbook): the
    closure materializes pc/npc/ninsns at the current instruction
    boundary, raises {!Deopt}, and the interpreter replays from there.
    Deopt triggers:

    - {b faults} — a compiled memory access or division pre-checks its
      operands and deopts {e before} any side effect, so the interpreter
      replays the instruction and produces the exact fault message,
      [Ob_store]-before-[Ob_fault] event order, and counter values;
    - {b traps} — [Ticc] (syscalls, OS layer) is never compiled; the
      scanner cuts the block before it;
    - {b fuel} — a block is only entered when the remaining budget covers
      its worst-case length, so {!Emu.Out_of_fuel} always fires from the
      interpreter at the exact instruction, mid-block cutoffs included;
    - {b self-modifying code} — a store into a predecoded text segment
      flows through {!Emu.invalidate_code} (keeping the tier-1 array
      coherent) and the {!Emu.t}'s [on_invalidate] hook kills every
      compiled block covering the word and unlinks it from its chain
      predecessors. A block that invalidates {e itself} completes the
      store — its effects are exactly tier-1's — and deopts at the next
      instruction boundary;
    - {b armed instrumentation} — per-instruction hooks, ground-truth
      profiles and poke plans need the interpreter; {!Emu.run} never
      dispatches to tier-2 while one is armed. Observable-event sinks
      ({!Emu.set_obs}) {e are} supported in compiled code: stores emit
      [Ob_store] from the closure with their static pc, after the fault
      pre-check, so the differential oracle can diff a tier-2 run against
      a tier-1 run event-for-event (and does, corpus-wide, in the tests).

    {2 Code cache}

    Compiled blocks are indexed by entry pc; a word-address cover map
    supports invalidation. Chaining installs direct [cblock] references in
    the taken/fall-through slots and records the back-edge, so a kill can
    sever every inbound chain in O(preds). Blocks never survive a store
    into their range — re-arrival recompiles from the fresh bytes. *)


type t

(** [attach ?threshold m] installs the tier-2 engine on a loaded machine:
    {!Emu.run} will dispatch whole-run execution to it whenever no
    per-instruction instrumentation is armed, and every text invalidation
    is forwarded to the code cache. Returns [None] when the machine has
    no predecoded text (tier-2 rides on the predecoded segments). *)
val attach : ?threshold:int -> Emu.t -> t option

type stats = {
  st_compiled : int;  (** blocks compiled (lifetime) *)
  st_live : int;  (** compiled blocks currently in the cache *)
  st_invalidated : int;  (** blocks killed by stores/pokes into text *)
  st_links : int;  (** direct block-to-block chains installed *)
  st_unlinked : int;  (** chain slots severed by invalidation *)
  st_deopts : int;  (** OSR transfers back to the interpreter *)
  st_block_runs : int;  (** compiled block executions *)
  st_interp_steps : int;  (** instructions run in the tier-1 loop *)
}

val stats : t -> stats

val summary : t -> string

(** The three execution tiers. [Interp] decodes every step, [Predecode]
    dispatches each text section's [Insn.t] array one instruction at a time,
    [Block] adds this module's compiled blocks on top of predecode. *)
type tier = Interp | Predecode | Block

val tier_name : tier -> string

val all_tiers : tier list
