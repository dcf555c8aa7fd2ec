type 'a t = {
  classes : 'a array;
  label : 'a -> string;  (** metrics/report name of a class *)
  sigs : (string, unit) Hashtbl.t array;  (** per-class signature sets *)
  attempts : int array;
  global : (string, unit) Hashtbl.t;  (** distinct signatures, all classes *)
  mutable picks : int;
  prefix : string;
}

let make ?(prefix = "eel.diff.cover") ~label (classes : 'a array) =
  if Array.length classes = 0 then invalid_arg "Sched.make: no classes";
  {
    classes;
    label;
    sigs = Array.init (Array.length classes) (fun _ -> Hashtbl.create 8);
    attempts = Array.make (Array.length classes) 0;
    global = Hashtbl.create 64;
    picks = 0;
    prefix;
  }

let create ?prefix () =
  make ?prefix ~label:Mutate.name (Array.of_list Mutate.all)

let num_classes t = Array.length t.classes

let attempts_of t kind =
  let rec find i = if t.classes.(i) = kind then i else find (i + 1) in
  t.attempts.(find 0)

let distinct_of t kind =
  let rec find i = if t.classes.(i) = kind then i else find (i + 1) in
  Hashtbl.length t.sigs.(find 0)

let distinct t = Hashtbl.length t.global

let signatures t =
  List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) t.global [])

(* Laplace-smoothed discovery rate; compared cross-multiplied so the
   schedule is exact integer arithmetic (no float-tie platform drift). *)
let score_num t i = Hashtbl.length t.sigs.(i) + 1

let score_den t i = t.attempts.(i) + 2

let next t =
  let rec unvisited i =
    if i >= Array.length t.classes then None
    else if t.attempts.(i) = 0 then Some i
    else unvisited (i + 1)
  in
  let best =
    match unvisited 0 with
    | Some i -> i
    | None ->
        let best = ref 0 in
        for i = 1 to Array.length t.classes - 1 do
          let b = !best in
          let cmp =
            compare
              (score_num t i * score_den t b)
              (score_num t b * score_den t i)
          in
          let better =
            cmp > 0
            || (cmp = 0 && t.attempts.(i) < t.attempts.(b))
            (* final tie: keep the lower index *)
          in
          if better then best := i
        done;
        !best
  in
  t.picks <- t.picks + 1;
  t.classes.(best)

let observe t kind ~signature =
  let rec find i = if t.classes.(i) = kind then i else find (i + 1) in
  let i = find 0 in
  t.attempts.(i) <- t.attempts.(i) + 1;
  let fresh = not (Hashtbl.mem t.sigs.(i) signature) in
  if fresh then Hashtbl.add t.sigs.(i) signature ();
  if not (Hashtbl.mem t.global signature) then
    Hashtbl.add t.global signature ();
  let g name v =
    Eel_obs.Metrics.set (Eel_obs.Metrics.gauge name) (float_of_int v)
  in
  g (t.prefix ^ "." ^ t.label kind) (Hashtbl.length t.sigs.(i));
  g (t.prefix ^ ".distinct") (Hashtbl.length t.global);
  fresh

let blind ~count =
  let all = Array.of_list Mutate.all in
  List.init count (fun i -> all.(i mod Array.length all))

let guided t ~seed ~count base ~run =
  List.init count (fun i -> i)
  |> List.map (fun i ->
         let kind = next t in
         let r = Mutate.rng (seed + (i * 7919)) in
         let bytes = Mutate.apply r kind base in
         let signature = run i kind bytes in
         ignore (observe t kind ~signature);
         (i, kind, signature))
