(** Structured diagnostics and the unified front-end error hierarchy.

    EEL's core claim (paper §3.1) is that it survives hostile inputs:
    stripped executables, "incomplete or misleading" symbol tables, data
    tables embedded in the text segment. Surviving means two things for an
    API: recoverable problems become {e diagnostics} attached to the
    operation that observed them, and unrecoverable problems become {e typed
    error values}, never bare [Failure] strings or escaped [Invalid_argument]
    exceptions from innocent-looking [Bytes] primitives.

    This module provides both halves:

    - {!sink}: a per-load diagnostics channel (severity × source location ×
      message) with an optional {e strict} mode that promotes warnings to
      errors, so a tool can choose between "load whatever can be salvaged"
      and "refuse anything suspicious";
    - {!error}: the single sum type under which every front-end failure —
      SEF parsing, executable analysis, instruction decoding, editing,
      invariant verification, resource exhaustion — is reported, and the
      single {!Error} exception used by the exception-shim entry points.

    The {!budget} type bounds the work an analysis may perform, mirroring
    [Emu.Out_of_fuel]: a hostile input must not be able to drive the front
    end into effective non-termination. *)

(** {1 Severities and source locations} *)

type severity = Note | Warn | Err

(** Where in the input a problem was observed. For binary front ends a
    "source location" is a file (when known), a byte offset into the
    container, and/or a virtual address inside the image. *)
type loc = {
  l_file : string option;
  l_offset : int option;  (** byte offset into the serialized container *)
  l_addr : int option;  (** virtual address inside the loaded image *)
}

val no_loc : loc

val at_offset : int -> loc

val at_addr : int -> loc

val in_file : string -> loc

(** {1 The unified error hierarchy}

    One sum covers the whole load→CFG→edit pipeline, so callers match on a
    single type no matter which layer failed. *)

type error =
  | Sef_error of { what : string; loc : loc }
      (** malformed SEF container: bad magic, truncation, inconsistent
          section metadata *)
  | Exe_error of { what : string }
      (** executable-level analysis failure: no text section, malformed
          routine structure *)
  | Decode_error of { addr : int; word : int; what : string }
      (** an instruction word that analysis cannot proceed past *)
  | Edit_error of { what : string }  (** edit accumulation or layout failure *)
  | Invariant_error of { what : string }
      (** the post-edit verifier rejected an edited image *)
  | Budget_error of { stage : string; limit : int }
      (** a work budget was exhausted: the input demanded more decode/CFG
          work than the caller allowed (anti-non-termination guard) *)

val error_message : error -> string

(** The error's layer, as a short stable tag ("sef", "exe", "decode",
    "edit", "invariant", "budget") — the coverage signature the
    coverage-guided mutation scheduler and the fuzz outcome tables key on. *)
val error_kind : error -> string

(** The one exception the exception-shim entry points raise. Code that wants
    values uses the [Result]-returning APIs ([Sef.load],
    [Executable.open_exe]) or {!guard}. *)
exception Error of error

val fail : error -> 'a

val sef_error : ?loc:loc -> ('a, unit, string, 'b) format4 -> 'a

val exe_error : ('a, unit, string, 'b) format4 -> 'a

val edit_error : ('a, unit, string, 'b) format4 -> 'a

val invariant_error : ('a, unit, string, 'b) format4 -> 'a

(** [guard f] turns the exception-shim convention back into a value:
    {!Error} and the legacy truncation exception from {!Eel_util.Bytebuf}
    become [Result.Error]; every other exception propagates (an exception
    other than these escaping the front end is a bug, and the fuzz driver
    treats it as one). *)
val guard : (unit -> 'a) -> ('a, error) Result.t

(** {1 Diagnostics sinks} *)

type sink

val create : ?strict:bool -> unit -> sink

(** Emit one diagnostic. In a strict sink, [Warn] is recorded as [Err] —
    the promotion the paper's cautious tools want ("refuse anything the
    analysis is not sure about"). When an ambient tracer is installed the
    diagnostic is also attached to the active span as an instant event, so
    warnings appear on the timeline next to the phase that produced them. *)
val emit :
  sink -> severity -> source:string -> ?loc:loc ->
  ('a, unit, string, unit) format4 -> 'a

(** [report sink_opt sev ~source ?loc fmt] — emit when a sink is present,
    drop silently otherwise. The degradation paths in analysis code use this
    so they work with or without a collector. *)
val report :
  sink option -> severity -> source:string -> ?loc:loc ->
  ('a, unit, string, unit) format4 -> 'a

val warnings : sink -> int

val errors : sink -> int

val has_errors : sink -> bool

val count : sink -> int

(** {1 Work budgets}

    Decode and CFG-construction loops driven by hostile inputs must
    terminate. A budget is a decrementing counter, shared by all stages of
    one load; exhaustion raises {!Error} with {!Budget_error}, mirroring the
    emulator's [Out_of_fuel]. *)

type budget

(** A budget large enough that no legitimate executable hits it: ~64M work
    units (one unit ≈ one instruction word examined). *)
val default_budget_units : int

val budget : ?stage:string -> int -> budget

(** [spend b n] consumes [n] units, failing with {!Budget_error} when the
    budget runs dry. *)
val spend : budget -> int -> unit
