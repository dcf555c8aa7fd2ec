(** Deterministic, seeded SEF mutation — the fault-injection half of the
    never-crash guarantee.

    Each {!kind} models one pathology the paper's §3.1 analysis claims to
    survive: corrupted containers (truncation, bad magic, bogus kind codes,
    lying size fields), hostile section layouts (overlap, disorder, empty or
    giant text), and the full symbol-table zoo (dangling addresses,
    mid-instruction labels, duplicate/[Debug] pollution, fully stripped).
    [Bit_flip_text] additionally turns instruction words into data, the
    situation EEL's data-vs-code classification exists for.

    Mutants are produced from a {e well-formed} executable plus an integer
    seed; the same [(seed, kind, input)] triple always yields the same
    bytes, so a fuzz corpus is reproducible from one integer. The PRNG is a
    self-contained LCG — deliberately not [Stdlib.Random], whose sequence
    may change between OCaml releases. *)

module Sef := Eel_sef.Sef

(** {1 Deterministic PRNG} *)

type rng

val rng : int -> rng

(** {1 Mutation classes} *)

type kind =
  | Bit_flip_text  (** flip 1–8 bits inside a text section's contents *)
  | Truncate_header  (** cut the file inside the 12-byte header *)
  | Truncate_tail  (** cut the file at a random later offset *)
  | Bad_magic  (** corrupt the magic bytes *)
  | Bogus_section_kind  (** first section's kind byte becomes garbage *)
  | Giant_section_size  (** a section declares far more bytes than it stores *)
  | Empty_text  (** the text section shrinks to zero bytes *)
  | Huge_vaddr  (** a section is moved to the top of the address space *)
  | Overlapping_sections  (** a section is moved on top of another *)
  | Shuffled_sections  (** section records in decreasing-address order *)
  | Bad_entry  (** entry point is misaligned and outside every section *)
  | Dangling_symbol  (** a symbol's value maps to no section *)
  | Misaligned_symbol  (** a text symbol lands mid-instruction *)
  | Duplicate_symbols  (** the whole symbol table appears twice *)
  | Debug_pollution  (** dozens of temporary/debugging labels added *)
  | Stripped  (** no symbol table at all *)

val all : kind list

val name : kind -> string

val copy : Sef.t -> Sef.t

(** [apply r kind t] — the mutated, serialized executable. *)
val apply : rng -> kind -> Sef.t -> string

(** [corpus ~seed ~count t] — [count] reproducible mutants, cycling through
    every class so small corpora still cover all of them. *)
val corpus : seed:int -> count:int -> Sef.t -> (int * kind * string) list
