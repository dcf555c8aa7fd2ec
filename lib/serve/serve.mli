(** The rewriting-service engine: resolve a {!Proto.job} to an executable,
    route it through {!Eel_tools.Toolbox.measure} (so every served edit
    passes the contract oracle and lands in the overhead {!Eel_obs.Ledger}),
    and cache at two content-addressed granularities:

    - {b per-routine analysis facts} (namespace ["rf"], via {!Analysis}):
      installed ambiently for the whole batch, so even a cache-missing job
      re-slices only routines whose bytes changed;
    - {b whole-job results} (namespace ["job"]): keyed by a digest of the
      protocol version, tool, fuel/SFI parameters and the full image bytes.
      A hit replays the stored edited image and ledger entry without
      re-running instrument + verify. Only ["equivalent"] verdicts are
      stored — a divergence must re-verify every time, never be served from
      cache.

    Cache-hit responses are byte-identical to cache-miss responses by
    construction (the stored artifact {e is} the miss-path output), and the
    corpus-wide self-differential test pins exactly that. *)

module Ledger := Eel_obs.Ledger
module Os_spec := Eel_os.Spec
module Sef := Eel_sef.Sef

type config = {
  c_cache : Cache.t;
  c_use_result : bool;  (** consult/populate the whole-job result cache *)
  c_use_analysis : bool;  (** install the per-routine analysis cache *)
  c_fuel : int;  (** default fuel for jobs that don't set one *)
}

val default_config : Cache.t -> config

(** What one job produced. [o_edited] is the full serialized edited image
    ([Sef.to_string]); the byte-identity guarantee is stated over it. *)
type outcome = {
  o_verdict : string;
  o_masked : int;
  o_result_hit : bool;  (** served from the result cache *)
  o_edited : string;
  o_entry : Ledger.entry;
}

type result = {
  sr_id : string;
  sr_tool : string;
  sr_prog : string;
  sr_outcome : (outcome, string) Stdlib.result;
}

(** [resolve j] — the job's executable plus, for OS-mode sources, the
    {!Os_spec} world it runs against. OS-ness is derived from the source
    itself (an [os-*] corpus entry, or gen style ["os"]): the job carries
    no separate world field, so a job line alone fully determines the
    run. *)
val resolve : Proto.job -> (Sef.t * Os_spec.t option, string) Stdlib.result

val result_ns : string

(** The result key covers everything that can change the served bytes: the
    artifact version, the tool, every measure parameter, the OS world's
    digest (files, stdin and policy all shift the syscall stream), and the
    entire input image ([Sef.to_string] is canonical, so equal images
    digest equal). *)
val job_key : config -> Proto.job -> ?os:Os_spec.t -> string -> string

val encode_outcome : outcome -> string

val decode_outcome : tool:string -> prog:string -> string -> outcome option

val run_job : config -> Proto.job -> result

(** Run a batch across the pool with the analysis cache installed for the
    duration. Results come back in input order (the pool's merge is
    deterministic), so the response stream doesn't depend on [EEL_JOBS]. *)
val run_batch : ?jobs:int -> config -> Proto.job list -> result list

(** The deterministic mixed job corpus ([eel_batch] and the serve bench
    experiment share it): every corpus program (base and OS-mode) plus a
    spread of generated workloads (both compiler styles and the OS
    generator, varying sizes), crossed with all 6 tools by a stride
    coprime to the source count so neighbouring jobs differ in both tool
    and program. Fully determined by [(count, seed)]. *)
val mixed_jobs : count:int -> seed:int -> Proto.job list

val result_to_line : result -> string

val ok : result -> bool

val cached : result -> bool
