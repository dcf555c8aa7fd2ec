(** The differential-oracle corpus: every example executable the identity
    round-trip oracle must prove event-equivalent.

    Hand-written programs cover each observable-event source and each
    control idiom the editor must preserve — delayed/annulled branches,
    jump-table dispatch, recursion that spills return addresses (the code
    pointers the oracle's address-map normalization exists for), every
    memory-access width — and the {!Eel_workload.Gen} programs reproduce
    the compiler-shaped workloads the rest of the evaluation runs on.

    Corpus programs never use [ta 7] (cycle counter): the edited image
    legitimately executes extra translation instructions, so cycle counts
    are the one observable that {e should} differ between equivalent
    images. *)

module Gen := Eel_workload.Gen
module Os_spec := Eel_os.Spec

val sources : (string * string) list

(** Every corpus program, assembled. The corpus is part of the test
    contract: a program that stops assembling is a build break, not a
    skipped case. *)
val all : unit -> (string * Eel_sparc.Asm.Sef.t) list

(** {1 The OS-mode corpus}

    I/O-bound programs over the {!Eel_os} syscall ABI: each pairs an
    assembly source with the {!Eel_os.Spec} world it runs against. The
    programs branch on [read] results and error flags, never on [write]
    results — the property that lets the same binaries stay
    event-equivalent under SFI's write-denying interposition policy.

    Like [ta 7] (cycle counter) in the base corpus, [brk] is excluded
    here: its return value is the image's data-segment end, which an
    edited (grown) image legitimately moves — the one syscall result that
    {e should} differ between equivalent images. [brk] is exercised by
    the OS unit tests instead. *)

val spec_of_world : Gen.os_world -> Os_spec.t

(** name -> (source, world). Hand-written programs covering each syscall,
    each errno path and each I/O shape, plus seeded generator variants
    (one per {!Gen.os_program} shape). *)
val os_sources : (string * (string * Os_spec.t)) list

(** The OS corpus, assembled; same contract as {!all}. *)
val all_os : unit -> (string * Eel_sparc.Asm.Sef.t * Os_spec.t) list
