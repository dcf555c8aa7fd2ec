module C = Cfg
module E = Executable

type edge_kind = Direct_call | Tail_transfer | Indirect_call

type cedge = {
  caller : string;
  callee : string;
  kind : edge_kind;
  site : int;
}

type t = {
  nodes : string list;
  cedges : cedge list;
  unresolved : (string * int) list;
}

let build (exec : E.t) =
  (* force discovery of every routine first *)
  ignore (E.jump_stats exec);
  let edges = ref [] in
  let unresolved = ref [] in
  let routine_of addr =
    Option.map (fun (r : E.routine) -> r.E.r_name) (E.find_routine exec addr)
  in
  List.iter
    (fun (r : E.routine) ->
      let g = E.control_flow_graph exec r in
      List.iter
        (fun (b : C.block) ->
          if b.C.reachable then
            match b.C.term with
            | C.T_call { addr; target; _ } -> (
                match routine_of target with
                | Some callee ->
                    edges :=
                      { caller = r.E.r_name; callee; kind = Direct_call; site = addr }
                      :: !edges
                | None -> ())
            | C.T_icall { addr; _ } -> (
                (* try the same constant analysis used for dispatch tables:
                   a function pointer loaded from a constant location *)
                match Slice.resolve_jump ~fetch:(E.fetch exec) g b with
                | Slice.Literal target -> (
                    match routine_of target with
                    | Some callee ->
                        edges :=
                          {
                            caller = r.E.r_name;
                            callee;
                            kind = Indirect_call;
                            site = addr;
                          }
                          :: !edges
                    | None -> unresolved := (r.E.r_name, addr) :: !unresolved)
                | Slice.Dispatch tbl ->
                    Array.iter
                      (fun target ->
                        match routine_of target with
                        | Some callee ->
                            edges :=
                              {
                                caller = r.E.r_name;
                                callee;
                                kind = Indirect_call;
                                site = addr;
                              }
                              :: !edges
                        | None -> ())
                      tbl.C.t_targets
                | Slice.Unanalyzable -> (
                    (* advisory: a function pointer loaded from a known
                       cell binds to that cell's initial contents *)
                    match Slice.loaded_cell ~fetch:(E.fetch exec) g b with
                    | Some target -> (
                        match routine_of target with
                        | Some callee ->
                            edges :=
                              {
                                caller = r.E.r_name;
                                callee;
                                kind = Indirect_call;
                                site = addr;
                              }
                              :: !edges
                        | None -> unresolved := (r.E.r_name, addr) :: !unresolved)
                    | None -> unresolved := (r.E.r_name, addr) :: !unresolved))
            | _ ->
                (* tail transfers leave through Ek_xfer edges *)
                List.iter
                  (fun (e : C.edge) ->
                    match e.C.ekind with
                    | C.Ek_xfer a -> (
                        match routine_of a with
                        | Some callee when callee <> r.E.r_name ->
                            edges :=
                              {
                                caller = r.E.r_name;
                                callee;
                                kind = Tail_transfer;
                                site = Option.value ~default:r.E.r_lo b.C.baddr;
                              }
                              :: !edges
                        | _ -> ())
                    | _ -> ())
                  b.C.succs)
        (C.blocks g))
    (E.routines exec);
  {
    nodes = List.map (fun (r : E.routine) -> r.E.r_name) (E.routines exec);
    cedges = List.rev !edges;
    unresolved = List.rev !unresolved;
  }

let callees cg name =
  List.filter_map
    (fun e -> if e.caller = name then Some e.callee else None)
    cg.cedges
  |> List.sort_uniq compare

let callers cg name =
  List.filter_map
    (fun e -> if e.callee = name then Some e.caller else None)
    cg.cedges
  |> List.sort_uniq compare

let bottom_up cg =
  let visited = Hashtbl.create 32 in
  let order = ref [] in
  let rec dfs n =
    if not (Hashtbl.mem visited n) then (
      Hashtbl.add visited n ();
      List.iter dfs (callees cg n);
      order := n :: !order)
  in
  List.iter dfs cg.nodes;
  List.rev !order
