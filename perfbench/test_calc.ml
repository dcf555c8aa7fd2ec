(* The benchmark's arithmetic on synthetic records: no clocks, no program. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then (
    incr failures;
    Printf.printf "FAIL %s\n" name)

let close a b = Float.abs (a -. b) < 1e-9
let floats n f = List.init n (fun i -> f (float_of_int i))

let test_order_statistics () =
  check "median odd" (Calc.median [ 3.0; 1.0; 2.0 ] = 2.0);
  check "median even" (Calc.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  (* p90 needs ten samples beyond it, so 100 at least *)
  check "p90 omitted at 99 samples" (Calc.percentile 90.0 (floats 99 (fun i -> i)) = None);
  check "p90 omitted at 10 samples" (Calc.percentile 90.0 (floats 10 (fun i -> i)) = None);
  check "p90 at 100 samples"
    (Calc.percentile 90.0 (floats 100 (fun i -> 100.0 -. i)) = Some 90.0);
  check "p50 at 20 samples" (Calc.percentile 50.0 (floats 20 (fun i -> i +. 1.0)) = Some 10.0);
  check "no samples" (Calc.percentile 90.0 [] = None)

let test_geomean () =
  check "geomean of 2 and 8" (close (Calc.geomean [ 2.0; 8.0 ]) 4.0);
  check "geomean of one" (close (Calc.geomean [ 1.5 ]) 1.5);
  check "geomean of equal ratios" (close (Calc.geomean [ 3.0; 3.0; 3.0 ]) 3.0);
  check "geomean refuses a zero ratio"
    (match Calc.geomean [ 1.0; 0.0 ] with _ -> false | exception Invalid_argument _ -> true)

let test_failed_share () =
  let c verdict digest_ok = { Calc.verdict; digest_ok } in
  let checks =
    [
      c "equivalent" true;
      c "fuel-truncated-equal" true;
      c "error: emulator load" false;
      c "equivalent" false;
      c "diverged:value-mismatch" true;
      c "equivalent" true;
    ]
  in
  check "equivalent with matching bytes passes" (not (Calc.job_failed (c "equivalent" true)));
  check "truncated verdict fails" (Calc.job_failed (c "fuel-truncated-equal" true));
  check "digest mismatch fails" (Calc.job_failed (c "equivalent" false));
  check "failed count" (Calc.failed_count checks = 4);
  check "failed share" (close (Calc.failed_share checks) (4.0 /. 6.0));
  check "all good" (Calc.failed_share [ c "equivalent" true ] = 0.0)

let node ?(children = []) name ms mb = { Calc.name; ms; mb; children }
let sum_self t = List.fold_left (fun a (_, ms, _) -> a +. ms) 0.0 (Calc.self_costs t)

let test_attribution () =
  (* calls that fit: the root keeps the gap between them *)
  let t = node "job" 10.0 5.0 ~children:[ node "a" 3.0 1.0; node "b" 4.0 2.0 ] in
  check "unattributed is the gap" (close (Calc.unattributed t) 3.0);
  check "self costs sum to the job" (close (sum_self t) 10.0);
  (* probes that overshoot their parent are scaled down together *)
  let t =
    node "job" 10.0 1.0
      ~children:
        [ node "verify" 8.0 1.0 ~children:[ node "exec" 6.0 3.0; node "exec" 6.0 3.0 ] ]
  in
  let costs = Calc.self_costs t in
  check "overshooting probes leave no self time"
    (List.exists (fun (n, ms, _) -> n = "verify" && ms = 0.0) costs);
  check "overshooting probes share the parent" (close (sum_self t) 10.0);
  check "unattributed never negative" (Calc.unattributed t >= 0.0);
  (* measured clock skew: children longer than the whole job *)
  let t = node "job" 1.0 0.0 ~children:[ node "a" 5.0 0.0 ] in
  check "skewed child: unattributed is zero" (Calc.unattributed t = 0.0);
  (* random trees, probes of any size *)
  let rng = Random.State.make [| 7 |] in
  let rec gen depth =
    let kids =
      if depth = 0 then [] else List.init (Random.State.int rng 4) (fun _ -> gen (depth - 1))
    in
    node "n" (Random.State.float rng 20.0) (Random.State.float rng 5.0) ~children:kids
  in
  for _ = 1 to 500 do
    let t = gen 4 in
    let costs = Calc.self_costs t in
    check "random: self costs non-negative"
      (List.for_all (fun (_, ms, mb) -> ms >= 0.0 && mb >= 0.0) costs);
    check "random: self costs sum to the job" (Float.abs (sum_self t -. t.Calc.ms) < 1e-6)
  done

(* Probes recorded after their job join its tree under the span they
   explain; only the tree's shape is checked, not its times. *)
let test_jobs_of_trace () =
  let t = Calc.Trace.create () in
  let span ?explains job name f =
    let args = ("job", job) :: Option.to_list (Option.map (fun e -> ("explains", e)) explains) in
    Calc.Trace.span t ~args name f
  in
  let job id =
    span id "job" (fun () ->
        span id "tools.apply" ignore;
        span id "diffexec.verify" ignore);
    span ~explains:"tools.apply" id "core.open" ignore;
    for _ = 1 to 2 do
      span ~explains:"diffexec.verify" id "diffexec.execute" ignore;
      span ~explains:"diffexec.execute" id "emu.load" ignore
    done
  in
  job "1";
  job "2";
  let rec shape (n : Calc.node) =
    match n.Calc.children with
    | [] -> n.Calc.name
    | cs -> n.Calc.name ^ "(" ^ String.concat " " (List.map shape cs) ^ ")"
  in
  let want =
    "job(tools.apply(core.open) diffexec.verify(diffexec.execute(emu.load) diffexec.execute(emu.load)))"
  in
  let trees = Calc.jobs t in
  check "one tree per job" (List.length trees = 2);
  check "probes join the span they explain" (List.for_all (fun n -> shape n = want) trees);
  let orphan = Calc.Trace.create () in
  Calc.Trace.span orphan ~args:[ ("job", "1"); ("explains", "x") ] "emu.load" ignore;
  check "a probe without its job is refused"
    (match Calc.jobs orphan with _ -> false | exception Invalid_argument _ -> true)

let () =
  test_order_statistics ();
  test_geomean ();
  test_failed_share ();
  test_attribution ();
  test_jobs_of_trace ();
  if !failures > 0 then (
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1)
  else print_endline "perfbench arithmetic: all checks passed"
