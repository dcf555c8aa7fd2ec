open Eel_arch

type cb_ctx = {
  cb_words : int array;
  cb_addr : int;
  cb_assigned : int array;
}

type t = {
  sn_template : Template.t;
  sn_forbid : Regset.t;
      (** registers the allocator must not use even if dead (paper: "a
          snippet must use a particular register ... EEL should not spill or
          assign it") *)
  sn_callback : (cb_ctx -> unit) option;
}

exception Snippet_error of string

let of_asm (mach : Machine.t) ?(params = []) ?(forbid = Regset.empty) ?callback
    body =
  match mach.Machine.asm ~params body with
  | Error m -> raise (Snippet_error m)
  | Ok sn_template ->
      (Stats.stats ()).snippets_alloc <- (Stats.stats ()).snippets_alloc + 1;
      { sn_template; sn_forbid = forbid; sn_callback = callback }

type instance = {
  in_words : int array;
  in_relocs : Template.reloc list;
  in_callback : (cb_ctx -> unit) option;
  in_assigned : int array;
  in_body_off : int;
  in_spilled : int;
}

let red_zone = 64

let instantiate (mach : Machine.t) s ~live =
  let nv = Template.num_vregs s.sn_template in
  let avail =
    Regset.diff
      (Regset.diff mach.Machine.allocatable live)
      s.sn_forbid
  in
  let assigned = Array.make (max nv 1) (-1) in
  let pool = ref avail in
  let spills = ref [] in
  for v = 0 to nv - 1 do
    match Regset.choose !pool with
    | Some r ->
        assigned.(v) <- r;
        pool := Regset.remove r !pool
    | None ->
        (* scavenging failed: spill a live allocatable register *)
        let victims =
          Regset.diff
            (Regset.diff mach.Machine.allocatable s.sn_forbid)
            (Regset.of_list
               (List.filter (fun r -> r >= 0) (Array.to_list assigned)))
        in
        let victims =
          Regset.diff victims (Regset.of_list (List.map fst !spills))
        in
        (match Regset.choose victims with
        | None -> raise (Snippet_error "no spillable register for snippet")
        | Some r ->
            let slot = -8 * (List.length !spills + 1) in
            if -slot > red_zone then
              raise (Snippet_error "snippet needs too many registers");
            spills := (r, slot) :: !spills;
            assigned.(v) <- r)
  done;
  let body = Template.subst_vregs s.sn_template assigned in
  let spills = List.rev !spills in
  let pro =
    List.map (fun (r, slot) -> mach.Machine.mk_spill ~reg:r ~sp_off:slot) spills
  in
  let epi =
    List.map (fun (r, slot) -> mach.Machine.mk_unspill ~reg:r ~sp_off:slot) spills
  in
  let npro = List.length pro in
  let in_words = Array.of_list (pro @ Array.to_list body @ epi) in
  let in_relocs =
    List.map
      (fun (r : Template.reloc) -> { r with Template.index = r.Template.index + npro })
      s.sn_template.Template.relocs
  in
  {
    in_words;
    in_relocs;
    in_callback = s.sn_callback;
    in_assigned = Array.sub assigned 0 nv;
    in_body_off = npro;
    in_spilled = List.length spills;
  }
