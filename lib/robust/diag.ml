type severity = Note | Warn | Err

let severity_name = function Note -> "note" | Warn -> "warning" | Err -> "error"

type loc = {
  l_file : string option;
  l_offset : int option;
  l_addr : int option;
}

let no_loc = { l_file = None; l_offset = None; l_addr = None }

let at_offset offset = { no_loc with l_offset = Some offset }

let at_addr addr = { no_loc with l_addr = Some addr }

let in_file file = { no_loc with l_file = Some file }

let pp_loc fmt l =
  let parts =
    List.filter_map
      (fun x -> x)
      [
        l.l_file;
        Option.map (Printf.sprintf "offset %d") l.l_offset;
        Option.map (Printf.sprintf "addr 0x%x") l.l_addr;
      ]
  in
  match parts with
  | [] -> Format.fprintf fmt "<input>"
  | ps -> Format.fprintf fmt "%s" (String.concat ", " ps)

type error =
  | Sef_error of { what : string; loc : loc }
  | Exe_error of { what : string }
  | Decode_error of { addr : int; word : int; what : string }
  | Edit_error of { what : string }
  | Invariant_error of { what : string }
  | Budget_error of { stage : string; limit : int }

let error_message = function
  | Sef_error { what; loc } ->
      Format.asprintf "SEF: %s (%a)" what pp_loc loc
  | Exe_error { what } -> Printf.sprintf "executable: %s" what
  | Decode_error { addr; word; what } ->
      Printf.sprintf "decode: %s (word 0x%08x at 0x%x)" what word addr
  | Edit_error { what } -> Printf.sprintf "edit: %s" what
  | Invariant_error { what } -> Printf.sprintf "invariant: %s" what
  | Budget_error { stage; limit } ->
      Printf.sprintf "budget: %s exhausted its work budget of %d" stage limit

let error_kind = function
  | Sef_error _ -> "sef"
  | Exe_error _ -> "exe"
  | Decode_error _ -> "decode"
  | Edit_error _ -> "edit"
  | Invariant_error _ -> "invariant"
  | Budget_error _ -> "budget"

exception Error of error

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Robust.Error: " ^ error_message e)
    | _ -> None)

let fail e = raise (Error e)

let sef_error ?(loc = no_loc) fmt =
  Printf.ksprintf (fun what -> fail (Sef_error { what; loc })) fmt

let exe_error fmt = Printf.ksprintf (fun what -> fail (Exe_error { what })) fmt

let edit_error fmt = Printf.ksprintf (fun what -> fail (Edit_error { what })) fmt

let invariant_error fmt =
  Printf.ksprintf (fun what -> fail (Invariant_error { what })) fmt

let guard f =
  try Ok (f ()) with
  | Error e -> Result.Error e
  | Eel_util.Bytebuf.Truncated { context; offset; wanted; available } ->
      Result.Error
        (Sef_error
           {
             what =
               Printf.sprintf "%s: truncated input (wanted %d bytes, %d available)"
                 context wanted available;
             loc = at_offset offset;
           })

type sink = {
  strict : bool;  (** promote warnings to errors *)
  mutable n_notes : int;
  mutable n_warnings : int;
  mutable n_errors : int;
}

let create ?(strict = false) () =
  { strict; n_notes = 0; n_warnings = 0; n_errors = 0 }

let emit sink sev ~source ?(loc = no_loc) fmt =
  Printf.ksprintf
    (fun msg ->
      let sev = if sink.strict && sev = Warn then Err else sev in
      (match sev with
      | Note -> sink.n_notes <- sink.n_notes + 1
      | Warn -> sink.n_warnings <- sink.n_warnings + 1
      | Err -> sink.n_errors <- sink.n_errors + 1);
      match Eel_obs.Trace.get_current () with
      | None -> ()
      | Some tr ->
          Eel_obs.Trace.instant tr
            ("diag:" ^ severity_name sev)
            ~args:
              [
                ("source", source);
                ("message", msg);
                ("loc", Format.asprintf "%a" pp_loc loc);
              ])
    fmt

let report sink_opt sev ~source ?loc fmt =
  match sink_opt with
  | Some sink -> emit sink sev ~source ?loc fmt
  | None -> Printf.ksprintf (fun _ -> ()) fmt

let warnings sink = sink.n_warnings

let errors sink = sink.n_errors

let has_errors sink = sink.n_errors > 0

let count sink = sink.n_notes + sink.n_warnings + sink.n_errors

type budget = { b_stage : string; b_limit : int; mutable b_left : int }

let default_budget_units = 64 * 1024 * 1024

let budget ?(stage = "analysis") limit = { b_stage = stage; b_limit = limit; b_left = limit }

let spend b n =
  b.b_left <- b.b_left - n;
  if b.b_left < 0 then fail (Budget_error { stage = b.b_stage; limit = b.b_limit })

