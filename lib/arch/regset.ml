(** Register sets as bit masks.

    EEL's analyses (liveness, slicing, snippet register scavenging) operate on
    sets of machine registers. A machine exposes at most 62 register numbers
    (plenty for the integer subset of a RISC: 32 GPRs plus pseudo-registers
    for condition codes and special registers), so a set fits in one OCaml
    [int] and all set operations are single machine instructions. *)

type t = int

let empty : t = 0
let is_empty s = s = 0
let singleton r = 1 lsl r
let add r s = s lor (1 lsl r)
let remove r s = s land lnot (1 lsl r)
let mem r s = s land (1 lsl r) <> 0
let union a b = a lor b
let diff a b = a land lnot b
let equal (a : t) b = a = b
let subset a b = a land lnot b = 0

let of_list rs = List.fold_left (fun s r -> add r s) empty rs

(** [iter f s] applies [f] to each member in increasing register order. *)
let iter f s =
  for r = 0 to 61 do
    if mem r s then f r
  done

let fold f s init =
  let acc = ref init in
  iter (fun r -> acc := f r !acc) s;
  !acc

let elements s = List.rev (fold (fun r acc -> r :: acc) s [])

(** [choose s] returns the lowest-numbered member, if any. *)
let choose s =
  if s = 0 then None
  else (
    let r = ref 0 in
    while not (mem !r s) do
      incr r
    done;
    Some !r)

(** [range lo hi] is the set {lo, lo+1, ..., hi}. *)
let range lo hi =
  let s = ref empty in
  for r = lo to hi do
    s := add r !s
  done;
  !s

let pp ~name fmt s =
  Format.fprintf fmt "{%s}" (String.concat "," (List.map name (elements s)))
