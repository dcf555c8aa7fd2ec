(** The serve wire protocol: JSONL jobs over a stdin pipe.

    One JSON object per line on stdin, one response object per line on
    stdout, responses in input order. A job names a tool and an executable
    source:

    {v
    {"id": "j1", "tool": "qpt2", "corpus": "fib"}
    {"id": "j2", "tool": "sfi", "gen": {"seed": 9, "routines": 10, "style": "sunpro"}}
    {"id": "j3", "tool": "tracer", "file": "prog.sef", "fuel": 500000}
    {"id": "j4", "tool": "amemory", "sef_hex": "23204546..."}
    v}

    - [tool] (required): one of {!Eel_tools.Toolbox.names}.
    - exactly one source: [corpus] (a {!Eel_diffexec.Corpus} program name,
      including the OS-mode [os-*] programs), [gen] (a deterministic
      {!Eel_workload.Gen} workload; style ["os"] selects the I/O-bound
      OS-mode generator), [file] (a SEF path resolved in the daemon's
      cwd), or [sef_hex] (a hex-encoded SEF image inline — the
      pipe-friendly way to ship an executable that exists nowhere on
      disk). OS-mode sources carry their {!Eel_os.Spec} world implicitly:
      the corpus entry (or generator seed) determines it, and its digest
      participates in the result-cache key.
    - [id] (optional): echoed in the response; defaults to ["job-<n>"].
    - [fuel], [sfi_base], [sfi_size] (optional): forwarded to
      {!Eel_tools.Toolbox.measure}.

    Responses are deliberately deterministic (no wall-clock fields), so the
    response stream is byte-identical at any [EEL_JOBS]; timing lives in
    the stderr summary and the [--stats] JSON. *)

type src =
  | S_corpus of string
  | S_file of string
  | S_gen of { seed : int; routines : int; style : string }
  | S_inline of string  (** raw SEF container bytes, already un-hexed *)

type job = {
  j_id : string;
  j_tool : string;
  j_src : src;
  j_fuel : int option;
  j_sfi_base : int option;
  j_sfi_size : int option;
}

val hex_encode : string -> string

val hex_decode : string -> (string, string) result

val json_str : string -> string

val job_of_line : seq:int -> string -> (job, string) result

(** Render a job back to one protocol line ([eel_batch --emit] uses this to
    write corpora that feed straight into [eel_serve]). *)
val job_to_line : job -> string

(** Human label for the job's executable, used in reports and the ledger. *)
val prog_name : job -> string
