type t = {
  mach : Eel_arch.Machine.t;
  table : (int, Eel_arch.Instr.t) Hashtbl.t;
  enabled : bool;
}

let create ?(enabled = true) mach = { mach; table = Hashtbl.create 1024; enabled }

let lift c word =
  let s = Stats.stats () in
  s.instrs_lifted <- s.instrs_lifted + 1;
  if not c.enabled then (
    s.instrs_alloc <- s.instrs_alloc + 1;
    c.mach.Eel_arch.Machine.lift word)
  else
    match Hashtbl.find c.table word with
    | i -> i
    | exception Not_found ->
        let i = c.mach.Eel_arch.Machine.lift word in
        s.instrs_alloc <- s.instrs_alloc + 1;
        Hashtbl.add c.table word i;
        i

