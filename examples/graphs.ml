(* A generic graph library in FG — the heritage example.

   Run with:  dune exec examples/graphs.exe

   The paper's authors arrived at concepts through generic graph
   libraries (their study [14] ports the Boost Graph Library to four
   languages).  This example closes the loop: a Graph concept with an
   associated vertex type, written in FG, with generic algorithms that
   run unchanged over two structurally different representations. *)

module C = Fg_core

let banner s = Fmt.pr "@.=== %s ===@." s

(* One session over the graph library: its concepts, models and
   algorithms are checked once and shared by every [show]. *)
let session =
  C.Session.of_config
    C.Session.Config.(with_prelude (Some C.Graph_lib.full) default)

let show body =
  let out = C.Session.run ~file:"graphs" session body in
  Fmt.pr "%-46s = %a@."
    (if String.length body > 46 then String.sub body 0 46 else body)
    C.Interp.pp_flat out.value

let adj_ty = "list (int * list int)"
let edge_ty = "list int * list (int * int)"

let () =
  Fmt.pr "The Graph concept (FG source):@.%s@." C.Graph_lib.concepts;

  banner "a diamond DAG: 1 -> {2,3} -> 4 (adjacency lists)";
  let g = C.Graph_lib.adj [ (1, [ 2; 3 ]); (2, [ 4 ]); (3, [ 4 ]); (4, []) ] in
  show (Printf.sprintf "num_vertices[%s](%s)" adj_ty g);
  show (Printf.sprintf "num_edges[%s](%s)" adj_ty g);
  show (Printf.sprintf "degree[%s](%s, 1)" adj_ty g);
  show (Printf.sprintf "has_edge[%s](%s, 1, 4)" adj_ty g);
  show (Printf.sprintf "reachable[%s](%s, 1, 4)" adj_ty g);
  show (Printf.sprintf "reachable[%s](%s, 4, 1)" adj_ty g);
  show (Printf.sprintf "reachable_set[%s](%s, 1)" adj_ty g);
  show (Printf.sprintf "is_dag[%s](%s)" adj_ty g);

  banner "a 3-cycle: 1 -> 2 -> 3 -> 1";
  let c = C.Graph_lib.adj [ (1, [ 2 ]); (2, [ 3 ]); (3, [ 1 ]) ] in
  show (Printf.sprintf "reachable[%s](%s, 3, 2)" adj_ty c);
  show (Printf.sprintf "is_dag[%s](%s)" adj_ty c);

  banner "the SAME algorithms over an edge-list representation";
  let e = C.Graph_lib.edges [ 1; 2; 3; 4 ] [ (1, 2); (2, 3); (1, 4) ] in
  show (Printf.sprintf "num_edges[%s](%s)" edge_ty e);
  show (Printf.sprintf "reachable[%s](%s, 1, 3)" edge_ty e);
  show (Printf.sprintf "is_dag[%s](%s)" edge_ty e);

  banner "implicit instantiation works here too";
  show (Printf.sprintf "degree(%s, 1)" g);
  show (Printf.sprintf "num_edges(%s)" e);

  Fmt.pr
    "@.Every call above is a generic algorithm constrained only by@.\
     Graph<g> (and Eq on the associated vertex type), instantiated at@.\
     two unrelated representations — the genericity story the paper's@.\
     introduction tells, running end to end.@."
