module C = Eel.Cfg
module B = Eel_util.Bytebuf

let ns = "rf"
let magic = "EELA1"

let encode (tables : (int * C.table) list) : string =
  let buf = Buffer.create 64 in
  Buffer.add_string buf magic;
  B.w32 buf (List.length tables);
  List.iter
    (fun (jump_addr, (tbl : C.table)) ->
      B.w32 buf jump_addr;
      B.w8 buf (if tbl.C.t_addr < 0 then 1 else 0);
      B.w32 buf (abs tbl.C.t_addr);
      B.w32 buf (Array.length tbl.C.t_targets);
      Array.iter (B.w32 buf) tbl.C.t_targets)
    tables;
  Buffer.contents buf

let decode (s : string) : (int * C.table) list option =
  match
    let r = B.reader s in
    if B.rbytes r (String.length magic) <> Bytes.of_string magic then None
    else
      let n = B.r32 r in
      let rec go k acc =
        if k = 0 then Some (List.rev acc)
        else
          let jump_addr = B.r32 r in
          let neg = B.r8 r = 1 in
          let a = B.r32 r in
          let t_addr = if neg then -a else a in
          let count = B.r32 r in
          let t_targets = Array.init count (fun _ -> B.r32 r) in
          go (k - 1) ((jump_addr, { C.t_addr; t_targets }) :: acc)
      in
      go n []
  with
  | v -> v
  | exception B.Truncated _ -> None

(** Hooks backed by [cache]; install with
    [Eel.Executable.set_analysis_cache (Some (hooks cache))]. *)
let hooks (cache : Cache.t) : Eel.Executable.analysis_hooks =
  {
    Eel.Executable.ac_lookup =
      (fun digest ->
        match Cache.get cache ~ns digest with
        | None -> None
        | Some blob -> decode blob);
    ac_store =
      (fun digest tables -> Cache.put cache ~ns digest (encode tables));
  }

let install cache = Eel.Executable.set_analysis_cache (Some (hooks cache))
let uninstall () = Eel.Executable.set_analysis_cache None
