(** SPARC register numbering.

    Registers 0–31 are the integer file (%g0–%g7, %o0–%o7, %l0–%l7,
    %i0–%i7). Two pseudo-registers make implicit state explicit for EEL's
    data-flow analyses: {!icc} (the integer condition codes, set by the
    [*cc] ALU ops and read by conditional branches) and {!y} (the Y register
    used by multiply/divide).

    This reproduction uses a {e flat} register file: [save]/[restore] adjust
    the stack pointer like ordinary adds instead of rotating register
    windows (see DESIGN.md, substitutions table). *)

let g0 = 0
let g1 = 1
let g6 = 6
let g7 = 7
let o0 = 8
let o1 = 9
let o2 = 10
let o7 = 15
let sp = 14 (* %o6 *)
let fp = 30 (* %i6 *)
let i7 = 31

(** Integer condition codes pseudo-register (%icc). Value layout: bit 3 = N,
    bit 2 = Z, bit 1 = V, bit 0 = C. *)
let icc = 32

(** The Y register pseudo-register. *)
let y = 33

let num_regs = 34

(** First virtual register number used by unallocated snippet templates
    (%v0 maps to 40, %v1 to 41, ...). Virtual registers never appear in a
    final encoding; {!Insn.encode} rejects them. *)
let v0 = 40

let num_virtual = 8

let is_virtual r = r >= v0 && r < v0 + num_virtual

let name r =
  if r = icc then "%icc"
  else if r = y then "%y"
  else if is_virtual r then Printf.sprintf "%%v%d" (r - v0)
  else if r < 0 || r > 31 then Printf.sprintf "%%r?%d" r
  else
    let group = [| 'g'; 'o'; 'l'; 'i' |].(r / 8) in
    Printf.sprintf "%%%c%d" group (r mod 8)

(** Parse a register name, e.g. ["%l3"], ["%sp"], ["%r17"], ["%v0"].
    Returns [None] for anything else. *)
let of_name s =
  let num tail lo hi =
    match int_of_string_opt tail with
    | Some n when n >= lo && n <= hi -> Some n
    | _ -> None
  in
  if String.length s < 2 || s.[0] <> '%' then None
  else
    let body = String.sub s 1 (String.length s - 1) in
    match body with
    | "sp" -> Some sp
    | "fp" -> Some fp
    | "y" -> Some y
    | "icc" -> Some icc
    | _ -> (
        if String.length body < 2 then None
        else
          let tail = String.sub body 1 (String.length body - 1) in
          match body.[0] with
          | 'g' -> num tail 0 7
          | 'o' -> Option.map (fun n -> n + 8) (num tail 0 7)
          | 'l' -> Option.map (fun n -> n + 16) (num tail 0 7)
          | 'i' -> Option.map (fun n -> n + 24) (num tail 0 7)
          | 'r' -> num tail 0 31
          | 'v' -> Option.map (fun n -> n + v0) (num tail 0 (num_virtual - 1))
          | _ -> None)
