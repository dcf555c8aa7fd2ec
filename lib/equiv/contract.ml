module Emu = Eel_emu.Emu

type region = { rg_name : string; rg_lo : int; rg_hi : int }

type check = {
  ck_name : string;
  ck_run : profile:Emu.profile -> mem:Bytes.t -> (unit, string) result;
}

type t = {
  ct_tool : string;
  ct_regions : region list;
  ct_red_zone : int;
  ct_traps : int list;
  ct_addr_norm : (int -> int) option;
  ct_sys_extra : int list;
  ct_sys_suppress : (int -> int -> bool) option;
  ct_fd_norm : (int -> int -> int) option;
  ct_checks : check list;
}

let make ?(regions = []) ?(red_zone = 0) ?(traps = []) ?addr_norm
    ?(sys_extra = []) ?sys_suppress ?fd_norm ?(checks = []) tool =
  {
    ct_tool = tool;
    ct_regions = regions;
    ct_red_zone = max 0 red_zone;
    ct_traps = traps;
    ct_addr_norm = addr_norm;
    ct_sys_extra = sys_extra;
    ct_sys_suppress = sys_suppress;
    ct_fd_norm = fd_norm;
    ct_checks = checks;
  }

let region ~name ~lo ~size = { rg_name = name; rg_lo = lo; rg_hi = lo + size }

let span ~name = function
  | [] -> None
  | a :: rest ->
      let lo = List.fold_left min a rest and hi = List.fold_left max a rest in
      Some { rg_name = name; rg_lo = lo; rg_hi = hi + 4 }

let in_region r a = a >= r.rg_lo && a < r.rg_hi

let declares_store t a = List.exists (fun r -> in_region r a) t.ct_regions

let declared t ~sp ev =
  match ev with
  | Emu.Ob_store { addr; _ } ->
      declares_store t addr
      || (t.ct_red_zone > 0 && addr >= sp - t.ct_red_zone && addr < sp)
  | Emu.Ob_trap { num; _ } -> List.mem num t.ct_traps
  | Emu.Ob_syscall { num; a0; err; _ } ->
      List.mem num t.ct_sys_extra
      || err
         && (match t.ct_sys_suppress with
            | Some f -> f num a0
            | None -> false)
  | _ -> false

(** Does the contract declare the suppression of syscall [num] with first
    argument [a0]? *)
let suppresses t num a0 =
  match t.ct_sys_suppress with Some f -> f num a0 | None -> false

let suppressed_orig t ev =
  match ev with
  | Emu.Ob_syscall { num; a0; _ } -> suppresses t num a0
  | _ -> false

let normalize_orig t ev =
  match ev with
  | Emu.Ob_store { pc; addr; width; value } -> (
      match t.ct_addr_norm with
      | Some f -> Emu.Ob_store { pc; addr = f addr; width; value }
      | None -> ev)
  | Emu.Ob_syscall ({ num; a0; _ } as s) -> (
      match t.ct_fd_norm with
      | Some f ->
          let a0' = f num a0 in
          if a0' = a0 then ev else Emu.Ob_syscall { s with a0 = a0' }
      | None -> ev)
  | _ -> ev

let mask_events t evs =
  Array.of_list
    (List.filter
       (fun ev -> not (declared t ~sp:min_int ev))
       (Array.to_list evs))

let forget_region t i =
  {
    t with
    ct_regions = List.filteri (fun j _ -> j <> i) t.ct_regions;
  }

let claim_region t r = { t with ct_regions = r :: t.ct_regions }

let claim_trap t n = { t with ct_traps = n :: t.ct_traps }

let claim_addr_norm t f = { t with ct_addr_norm = Some f }

let claim_sys t n = { t with ct_sys_extra = n :: t.ct_sys_extra }

let run_checks t ~profile ~mem =
  List.fold_left
    (fun acc ck ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          match ck.ck_run ~profile ~mem with
          | Ok () -> Ok ()
          | Error msg -> Error (Printf.sprintf "check %s: %s" ck.ck_name msg)))
    (Ok ()) t.ct_checks

