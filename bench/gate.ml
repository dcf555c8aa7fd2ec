(* The perf-regression gate's decision (`make perf-regress`), as pure
   functions of the committed baseline and a fresh measurement: regress.ml
   measures and prints, this module decides. Keeping the decision free of
   timing lets the test suite check it on synthetic records. *)

module Json = Eel_obs.Json

(* --- baseline parsing ------------------------------------------------ *)

type base_point = { bp_jobs : int; bp_speedup : float; bp_contended : bool }

type baseline = {
  b_cores : int;
  b_speedup : float;
  b_speedup_block : float option;
      (** tier-2 vs predecode; None in pre-tier-2 baselines *)
  b_mips_on : float;
  b_points : base_point list;
}

let num ctx = function
  | Some (Json.Num n) -> n
  | _ -> failwith ("baseline: missing number " ^ ctx)

let parse_baseline src =
  match Json.parse src with
  | Error m -> failwith ("baseline: not valid JSON: " ^ m)
  | Ok root ->
      let throughput =
        match Json.member "throughput" root with
        | Some t -> t
        | None -> failwith "baseline: no throughput"
      in
      let on =
        match Json.member "predecode_on" throughput with
        | Some v -> v
        | None -> failwith "baseline: no predecode_on"
      in
      let points =
        match Json.member "scaling" root with
        | Some sc -> (
            match Json.member "points" sc with
            | Some (Json.Arr ps) ->
                List.map
                  (fun p ->
                    {
                      bp_jobs = int_of_float (num "jobs" (Json.member "jobs" p));
                      bp_speedup =
                        num "speedup_vs_1" (Json.member "speedup_vs_1" p);
                      bp_contended =
                        (match Json.member "contended" p with
                        | Some (Json.Bool b) -> b
                        | _ -> false);
                    })
                  ps
            | _ -> [])
        | None -> []
      in
      {
        b_cores = int_of_float (num "cores" (Json.member "cores" root));
        b_speedup = num "speedup" (Json.member "speedup" throughput);
        b_speedup_block =
          (match Json.member "speedup_block" throughput with
          | Some (Json.Num n) -> Some n
          | _ -> None);
        b_mips_on = num "mips" (Json.member "mips" on);
        b_points = points;
      }

(* --- the decision ---------------------------------------------------- *)

type status = Pass | Fail | Skip | Warn

type check = { c_name : string; c_status : status; c_detail : string }

let status_name = function
  | Pass -> "PASS"
  | Fail -> "FAIL"
  | Skip -> "SKIP"
  | Warn -> "WARN"

(** Why the per-domain scaling checks do not run on this machine, or
    [None] when they do. [env_skip] is [EEL_REGRESS_SCALING=skip]. *)
let scaling_skip ~env_skip ~cores base =
  let contended = List.exists (fun p -> p.bp_contended) base.b_points in
  if base.b_points = [] then Some "baseline has no sweep points"
  else if cores <= 1 || base.b_cores <= 1 then
    Some "1-core run: sweep measures GC-handshake contention, not scaling"
  else if contended then Some "baseline sweep points tagged contended"
  else if env_skip then Some "EEL_REGRESS_SCALING=skip"
  else None

(** Domain counts to re-measure when scaling runs: the uncontended
    baseline points that fit on [cores]. *)
let scaling_jobs ~cores base =
  List.filter_map
    (fun p ->
      if (not p.bp_contended) && p.bp_jobs <= cores then Some p.bp_jobs
      else None)
    base.b_points

(** The fresh side of the comparison. [f_scaling] is the reason scaling
    was skipped ({!scaling_skip}) or the re-measured
    [(domains, speedup_vs_1)] points. *)
type fresh = {
  f_speedup : float;  (** predecode over decode-per-step *)
  f_speedup_block : float;  (** tier-2 over predecode *)
  f_mips_on : float;
  f_scaling : (string, (int * float) list) Either.t;
}

(** [decide ~tol base fresh] is every check of the gate, in report order:
    the ≥1.0 floors, each speedup against the baseline's at relative
    tolerance [tol], a warning when absolute MIPS halved (machine-
    dependent, never failing), then scaling within 25% of each baseline
    point. *)
let decide ~tol base fresh =
  let check c_name ok c_detail =
    { c_name; c_status = (if ok then Pass else Fail); c_detail }
  in
  let sp = fresh.f_speedup and sp_block = fresh.f_speedup_block in
  let floors =
    [
      check "predecode not slower than decode" (sp >= 1.0)
        (Printf.sprintf "%.2fx" sp);
      check "throughput speedup vs baseline"
        (sp >= base.b_speedup *. (1.0 -. tol))
        (Printf.sprintf "%.2fx vs %.2fx (floor %.2fx)" sp base.b_speedup
           (base.b_speedup *. (1.0 -. tol)));
      check "tier-2 not slower than predecode" (sp_block >= 1.0)
        (Printf.sprintf "%.2fx" sp_block);
      (match base.b_speedup_block with
      | None ->
          {
            c_name = "tier-2 speedup vs baseline";
            c_status = Skip;
            c_detail = "baseline predates the block tier";
          }
      | Some b ->
          check "tier-2 speedup vs baseline"
            (sp_block >= b *. (1.0 -. tol))
            (Printf.sprintf "%.2fx vs %.2fx (floor %.2fx)" sp_block b
               (b *. (1.0 -. tol))));
    ]
  in
  let mips =
    if fresh.f_mips_on < base.b_mips_on *. 0.5 then
      [
        {
          c_name = "absolute MIPS";
          c_status = Warn;
          c_detail =
            Printf.sprintf
              "%.1f MIPS vs baseline %.1f (machine-dependent, not gated)"
              fresh.f_mips_on base.b_mips_on;
        };
      ]
    else []
  in
  let scaling =
    match fresh.f_scaling with
    | Either.Left why ->
        [
          {
            c_name = "scaling speedup per domain count";
            c_status = Skip;
            c_detail = why;
          };
        ]
    | Either.Right points ->
        List.filter_map
          (fun (j, s) ->
            List.find_opt (fun p -> p.bp_jobs = j) base.b_points
            |> Option.map (fun p ->
                   check
                     (Printf.sprintf "scaling speedup at %d domains" j)
                     (s >= p.bp_speedup *. 0.75)
                     (Printf.sprintf "%.2fx vs %.2fx" s p.bp_speedup)))
          points
  in
  floors @ mips @ scaling

(** Names of the failing checks, in report order; the gate passes when
    this is empty. *)
let failures checks =
  List.filter_map
    (fun c -> if c.c_status = Fail then Some c.c_name else None)
    checks
