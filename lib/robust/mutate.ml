module Sef = Eel_sef.Sef

type rng = { mutable state : int }

let rng seed = { state = (seed * 2654435761) lxor 0x9E3779B9 }

let next r =
  (* 62-bit LCG; top bits are best *)
  r.state <- ((r.state * 2862933555777941757) + 3037000493) land max_int;
  r.state lsr 17

let rand r n = if n <= 0 then 0 else next r mod n

let pick r l = List.nth l (rand r (List.length l))

type kind =
  | Bit_flip_text
  | Truncate_header
  | Truncate_tail
  | Bad_magic
  | Bogus_section_kind
  | Giant_section_size
  | Empty_text
  | Huge_vaddr
  | Overlapping_sections
  | Shuffled_sections
  | Bad_entry
  | Dangling_symbol
  | Misaligned_symbol
  | Duplicate_symbols
  | Debug_pollution
  | Stripped

let all =
  [
    Bit_flip_text;
    Truncate_header;
    Truncate_tail;
    Bad_magic;
    Bogus_section_kind;
    Giant_section_size;
    Empty_text;
    Huge_vaddr;
    Overlapping_sections;
    Shuffled_sections;
    Bad_entry;
    Dangling_symbol;
    Misaligned_symbol;
    Duplicate_symbols;
    Debug_pollution;
    Stripped;
  ]

let name = function
  | Bit_flip_text -> "bit-flip-text"
  | Truncate_header -> "truncate-header"
  | Truncate_tail -> "truncate-tail"
  | Bad_magic -> "bad-magic"
  | Bogus_section_kind -> "bogus-section-kind"
  | Giant_section_size -> "giant-section-size"
  | Empty_text -> "empty-text"
  | Huge_vaddr -> "huge-vaddr"
  | Overlapping_sections -> "overlapping-sections"
  | Shuffled_sections -> "shuffled-sections"
  | Bad_entry -> "bad-entry"
  | Dangling_symbol -> "dangling-symbol"
  | Misaligned_symbol -> "misaligned-symbol"
  | Duplicate_symbols -> "duplicate-symbols"
  | Debug_pollution -> "debug-pollution"
  | Stripped -> "stripped"

(* Structural mutations must not alias the input's buffers. *)
let copy_section (s : Sef.section) = { s with Sef.contents = Bytes.copy s.Sef.contents }

let copy (t : Sef.t) =
  Sef.create ~entry:t.Sef.entry
    ~sections:(List.map copy_section t.Sef.sections)
    ~symbols:t.Sef.symbols

let with_sections t sections =
  Sef.create ~entry:t.Sef.entry ~sections ~symbols:t.Sef.symbols

let with_symbols t symbols =
  Sef.create ~entry:t.Sef.entry ~sections:t.Sef.sections ~symbols

let text_addrs r (t : Sef.t) =
  match Sef.text_sections t with
  | [] -> 0
  | ss ->
      let s = pick r ss in
      s.Sef.vaddr + (4 * rand r (max 1 (s.Sef.size / 4)))

(* Byte offset of the first section's kind byte in the serialized form:
   magic (4) + entry (4) + nsec (4) + name length (2) + name. *)
let first_kind_offset (t : Sef.t) =
  match t.Sef.sections with
  | [] -> None
  | s :: _ -> Some (14 + String.length s.Sef.sec_name)

let patch_byte s off v =
  if off >= String.length s then s
  else (
    let b = Bytes.of_string s in
    Bytes.set b off (Char.chr (v land 0xFF));
    Bytes.to_string b)

let apply r kind (t : Sef.t) : string =
  match kind with
  | Bit_flip_text -> (
      let t = copy t in
      match Sef.text_sections t with
      | [] -> Sef.to_string t
      | ss ->
          let s = pick r ss in
          let nbits = 1 + rand r 8 in
          for _ = 1 to nbits do
            if Bytes.length s.Sef.contents > 0 then (
              let off = rand r (Bytes.length s.Sef.contents) in
              let bit = rand r 8 in
              Bytes.set s.Sef.contents off
                (Char.chr (Char.code (Bytes.get s.Sef.contents off) lxor (1 lsl bit))))
          done;
          Sef.to_string t)
  | Truncate_header ->
      let s = Sef.to_string t in
      String.sub s 0 (rand r (min 12 (String.length s)))
  | Truncate_tail ->
      let s = Sef.to_string t in
      let n = String.length s in
      String.sub s 0 (12 + rand r (max 1 (n - 12)))
  | Bad_magic ->
      let s = Sef.to_string t in
      patch_byte s (rand r 4) (next r)
  | Bogus_section_kind -> (
      let s = Sef.to_string t in
      match first_kind_offset t with
      | Some off -> patch_byte s off (3 + rand r 250)
      | None -> s)
  | Giant_section_size ->
      (* the size field promises more than the stored bytes: the reader
         either consumes the rest of the file as "contents" or truncates *)
      with_sections t
        (List.map
           (fun (s : Sef.section) ->
             if s.Sef.sec_kind = Sef.Text then
               { s with Sef.size = s.Sef.size + 0x10000 + rand r 0x10000 }
             else s)
           t.Sef.sections)
      |> Sef.to_string
  | Empty_text ->
      with_sections t
        (List.map
           (fun (s : Sef.section) ->
             if s.Sef.sec_kind = Sef.Text then
               { s with Sef.size = 0; contents = Bytes.empty }
             else s)
           t.Sef.sections)
      |> Sef.to_string
  | Huge_vaddr ->
      with_sections t
        (match t.Sef.sections with
        | [] -> []
        | s :: rest -> { s with Sef.vaddr = 0xFFFF_FFF0 } :: rest)
      |> Sef.to_string
  | Overlapping_sections ->
      with_sections t
        (match t.Sef.sections with
        | a :: b :: rest ->
            a :: { b with Sef.vaddr = a.Sef.vaddr + rand r (max 1 a.Sef.size) } :: rest
        | l -> l)
      |> Sef.to_string
  | Shuffled_sections ->
      with_sections t
        (List.sort
           (fun (a : Sef.section) b -> compare b.Sef.vaddr a.Sef.vaddr)
           t.Sef.sections)
      |> Sef.to_string
  | Bad_entry ->
      Sef.create
        ~entry:(0xDEAD_0000 + 1 + rand r 3)
        ~sections:t.Sef.sections ~symbols:t.Sef.symbols
      |> Sef.to_string
  | Dangling_symbol ->
      with_symbols t
        ({
           Sef.sym_name = "ghost";
           value = 0xEE00_0000 + (4 * rand r 1024);
           sym_size = 0;
           kind = Sef.Func;
           global = true;
         }
        :: t.Sef.symbols)
      |> Sef.to_string
  | Misaligned_symbol ->
      with_symbols t
        ({
           Sef.sym_name = "askew";
           value = text_addrs r t + 1 + rand r 3;
           sym_size = 0;
           kind = Sef.Func;
           global = true;
         }
        :: t.Sef.symbols)
      |> Sef.to_string
  | Duplicate_symbols ->
      with_symbols t (t.Sef.symbols @ t.Sef.symbols) |> Sef.to_string
  | Debug_pollution ->
      let extra =
        List.init (24 + rand r 24) (fun i ->
            {
              Sef.sym_name = Printf.sprintf "Ldbg%d" i;
              value = text_addrs r t;
              sym_size = 0;
              kind = (if i land 1 = 0 then Sef.Debug else Sef.Label);
              global = false;
            })
      in
      with_symbols t (extra @ t.Sef.symbols) |> Sef.to_string
  | Stripped -> Sef.to_string (Sef.strip t)

let corpus ~seed ~count (t : Sef.t) : (int * kind * string) list =
  let n = List.length all in
  List.init count (fun i ->
      let r = rng (seed + (i * 7919)) in
      let kind = List.nth all (i mod n) in
      (i, kind, apply r kind t))
