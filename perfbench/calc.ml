(** The benchmark's own arithmetic, kept free of clocks and of the jobs it
    measures (it reads only the program's span recorder, {!Eel_obs.Trace})
    so the test suite can check it on synthetic records. *)

module Trace = Eel_obs.Trace

(** {1 Order statistics} *)

let sorted xs = List.sort compare xs

(** Median; the mean of the two middle values for an even count. *)
let median xs =
  match sorted xs with
  | [] -> invalid_arg "Calc.median: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** A tail percentile is reported only when at least this many samples lie
    beyond it: below that, one slow job decides the figure. *)
let min_beyond = 10

(** [percentile p xs] — nearest-rank [p]-th percentile, or [None] when fewer
    than {!min_beyond} samples lie strictly above its rank (so p90 needs at
    least 100 samples). *)
let percentile p xs =
  let n = List.length xs in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  if n = 0 || rank < 1 || n - rank < min_beyond then None
  else Some (List.nth (sorted xs) (rank - 1))

(** Geometric mean of positive ratios. *)
let geomean xs =
  match xs with
  | [] -> invalid_arg "Calc.geomean: no samples"
  | _ ->
      List.iter
        (fun x -> if not (x > 0.0) then invalid_arg "Calc.geomean: ratio <= 0")
        xs;
      let s = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
      exp (s /. float_of_int (List.length xs))

(** {1 Correctness} *)

(** What the benchmark checks about one job: the oracle's verdict and
    whether the edited image matches its reference digest. *)
type check = { verdict : string; digest_ok : bool }

(** Only an [equivalent] verdict with the expected bytes counts: a
    truncated log ([fuel-truncated-equal]), an error or a digest mismatch
    is a failed job. *)
let job_failed c = c.verdict <> "equivalent" || not c.digest_ok

let failed_count checks = List.length (List.filter job_failed checks)

let failed_share checks =
  match checks with
  | [] -> invalid_arg "Calc.failed_share: no jobs"
  | _ ->
      float_of_int (failed_count checks) /. float_of_int (List.length checks)

(** {1 Layer attribution}

    A job's spans form a tree. A child either ran inside its parent's
    interval (a call the job made) or is a probe: a separate call made
    after the job to split an opaque parent, such as [Emu.load] explaining
    part of [Diffexec.execute]. Probe estimates can exceed the time left in
    their parent, so each parent shares out its attributed time: children
    keep their measured cost when it fits and are scaled down together when
    it does not. A node's self cost is what its children leave, so self
    costs are never negative and sum to the root's measured cost. *)

type node = {
  name : string;
  ms : float;  (** measured duration *)
  mb : float;  (** measured allocation *)
  children : node list;
}

(** [share total parts] — how much each of [parts] keeps of a parent that
    has [total] left to give: all of it when the parts fit, a common
    fraction of it when they do not. *)
let share total parts =
  let sum = List.fold_left ( +. ) 0.0 parts in
  let k = if sum > total && sum > 0.0 then Float.max 0.0 total /. sum else 1.0 in
  List.map (fun p -> Float.max 0.0 p *. k) parts

(** [self_costs root] — [(name, self ms, self mb)] for every node, in
    pre-order. The root's entry is the job time no layer call covers. *)
let self_costs root =
  let rec go node ms mb acc =
    let kids_ms = share ms (List.map (fun c -> c.ms) node.children) in
    let kids_mb = share mb (List.map (fun c -> c.mb) node.children) in
    let sum = List.fold_left ( +. ) 0.0 in
    let acc =
      (node.name, Float.max 0.0 (ms -. sum kids_ms), Float.max 0.0 (mb -. sum kids_mb))
      :: acc
    in
    let rec each cs a b acc =
      match (cs, a, b) with
      | c :: cs, x :: a, y :: b -> each cs a b (go c x y acc)
      | _ -> acc
    in
    each node.children kids_ms kids_mb acc
  in
  List.rev (go root (Float.max 0.0 root.ms) (Float.max 0.0 root.mb) [])

(** Job time that no layer call covers: the root's self time. *)
let unattributed root =
  match self_costs root with (_, ms, _) :: _ -> ms | [] -> 0.0

(** {1 Job trees from a trace}

    The traced run records into a private {!Eel_obs.Trace.t}, and every
    span carries its job's id in [args.job]. A job's root is a top-level
    span named ["job"]; the calls the job makes nest under it. A probe is a
    top-level span recorded after its job whose [args.explains] names the
    span it splits: it joins the job's tree under the latest span of that
    name, an earlier probe included. *)

type building = {
  b_name : string;
  b_ms : float;
  b_mb : float;
  mutable b_kids : building list;  (** newest first *)
}

let word_bytes = float_of_int (Sys.word_size / 8)

(** [jobs trace] — the attribution tree of every job in [trace], oldest
    first. *)
let jobs (t : Trace.t) =
  Trace.seal t;
  (* [index] lists the job's spans, latest first *)
  let rec build index (sp : Trace.span) =
    let b =
      {
        b_name = sp.Trace.sp_name;
        b_ms = sp.Trace.sp_dur /. 1000.0;
        b_mb = sp.Trace.sp_alloc *. word_bytes /. 1e6;
        b_kids = [];
      }
    in
    index := b :: !index;
    List.iter
      (function Trace.N_span c -> b.b_kids <- build index c :: b.b_kids | Trace.N_instant _ -> ())
      (Trace.children_in_order sp);
    b
  in
  let rec freeze b =
    { name = b.b_name; ms = b.b_ms; mb = b.b_mb; children = List.rev_map freeze b.b_kids }
  in
  let roots = ref [] in
  List.iter
    (function
      | Trace.N_instant _ -> ()
      | Trace.N_span sp -> (
          let job = List.assoc_opt "job" sp.Trace.sp_args in
          match (List.assoc_opt "explains" sp.Trace.sp_args, !roots) with
          | None, _ when sp.Trace.sp_name = "job" ->
              let index = ref [] in
              let b = build index sp in
              roots := (job, b, index) :: !roots
          | Some target, (j, _, index) :: _ when j = job -> (
              match List.find_opt (fun b -> b.b_name = target) !index with
              | Some parent ->
                  let p = build index sp in
                  parent.b_kids <- p :: parent.b_kids
              | None -> invalid_arg ("Calc.jobs: probe explains no span named " ^ target))
          | _ -> invalid_arg ("Calc.jobs: span " ^ sp.Trace.sp_name ^ " is outside its job")))
    (Trace.children_in_order t.Trace.root);
  List.rev_map (fun (_, b, _) -> freeze b) !roots
