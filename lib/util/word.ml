(** 32-bit word arithmetic on OCaml [int].

    Executable editing manipulates 32-bit machine words and addresses. We
    represent both as non-negative OCaml [int]s in the range [0, 2^32).
    OCaml's 63-bit native ints hold these comfortably; every arithmetic
    operation re-normalizes with {!mask}. Signed interpretations (e.g. branch
    displacements, [simm13] fields) go through {!sext}. *)

let mask32 = 0xFFFF_FFFF

(** [mask x] truncates [x] to its low 32 bits. *)
let mask x = x land mask32

(** [sext width x] sign-extends the low [width] bits of [x] to an OCaml int.
    E.g. [sext 13 0x1FFF = -1]. *)
let sext width x =
  let x = x land ((1 lsl width) - 1) in
  if x land (1 lsl (width - 1)) <> 0 then x - (1 lsl width) else x

(** [zext width x] zero-extends (i.e. masks) the low [width] bits. *)
let zext width x = x land ((1 lsl width) - 1)

(** [bits ~lo ~hi x] extracts the inclusive bit-field [hi:lo] of [x],
    where bit 0 is the least significant. *)
let bits ~lo ~hi x = (x lsr lo) land ((1 lsl (hi - lo + 1)) - 1)

(** [set_bits ~lo ~hi x v] returns [x] with field [hi:lo] replaced by the low
    bits of [v]. *)
let set_bits ~lo ~hi x v =
  let field_mask = ((1 lsl (hi - lo + 1)) - 1) lsl lo in
  (x land lnot field_mask) lor ((v lsl lo) land field_mask)

(** 32-bit wrapping addition. *)
let add x y = mask (x + y)

(** 32-bit wrapping subtraction. *)
let sub x y = mask (x - y)

(** 32-bit wrapping multiplication. *)
let mul x y = mask (x * y)

(** Signed value of a 32-bit word. *)
let signed x = sext 32 x

(** [of_signed x] re-normalizes a signed int to a 32-bit word. *)
let of_signed x = mask x

(** Logical shift left within 32 bits; the shift amount is taken mod 32,
    matching SPARC semantics. *)
let sll x s = mask (x lsl (s land 31))

(** Logical shift right. *)
let srl x s = mask x lsr (s land 31)

(** Arithmetic shift right of the 32-bit value. *)
let sra x s = mask (signed x asr (s land 31))

(** [fits_signed width x] holds when signed [x] is representable in a
    [width]-bit two's-complement field. *)
let fits_signed width x =
  let x = signed (mask x) in
  x >= -(1 lsl (width - 1)) && x < 1 lsl (width - 1)

(** Hexadecimal printer, [0x%08x] style. *)
let pp fmt x = Format.fprintf fmt "0x%08x" (mask x)

let to_hex x = Printf.sprintf "0x%08x" (mask x)
