(* The direct declaration graph that keys compilation units.  Its edges
   are fewer than the reference builder's, but what a unit reaches
   along them must be exactly the closure of the reference's
   dependency sets: fewer reachable units would let a stale unit
   replay, more would cost cache reuse for nothing. *)

open Fg_core
module ISet = Set.Make (Int)

let infos_of decls = Array.of_list (List.map Declgraph.info_of_decl decls)

(* A unit's edges, and so its key, depend only on the units up to it:
   appending declarations (say, one re-providing a name an earlier unit
   reaches a reference of) must not re-key what came before. *)
let check_prefixes label infos =
  let n = Array.length infos in
  List.iter
    (fun global ->
      let full = Declgraph.direct ~global infos in
      for len = 1 to n - 1 do
        let prefix = Declgraph.direct ~global (Array.sub infos 0 len) in
        Array.iteri
          (fun k d ->
            if d <> full.(k) then
              Alcotest.failf "%s: unit %d's edges change when %d units follow"
                label k (n - len))
          prefix
      done)
    [ false; true ]

(* [reach.(k)]: every unit reachable from [k] along [deps]. *)
let reach (deps : int list array) =
  let r = Array.make (Array.length deps) ISet.empty in
  Array.iteri
    (fun k ds ->
      r.(k) <-
        List.fold_left
          (fun s j -> ISet.union (ISet.add j r.(j)) s)
          ISet.empty ds)
    deps;
  r

let check_spine label decls =
  let infos = infos_of decls in
  let show s = String.concat "," (List.map string_of_int (ISet.elements s)) in
  List.iter
    (fun global ->
      let want = reach (Declgraph.build ~global infos) in
      let got = reach (Declgraph.direct ~global infos) in
      Array.iteri
        (fun k w ->
          if not (ISet.equal w got.(k)) then
            Alcotest.failf "%s (%s) unit %d: direct reaches {%s}, reference {%s}"
              label
              (if global then "global" else "lexical")
              k (show got.(k)) (show w))
        want)
    [ false; true ];
  check_prefixes label infos

let spine_of_source src =
  match Parser.exp_of_string src with
  | ast -> Some (fst (Unit.split_spine ast))
  | exception Fg_util.Diag.Error _ -> None

let check_source label src =
  Option.iter (check_spine label) (spine_of_source src)

let program_files () =
  let dir d =
    Sys.readdir d |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".fg")
    |> List.map (Filename.concat d)
  in
  List.concat_map dir
    [ "../programs"; "../programs/errors"; "../programs/fuzz_regressions" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A [using] of a name rebound to a plain value: the rebinding
   references the named model it shadows, so the [using] is still
   interested in [C] and a later generic reaches every earlier model
   of [C] through it. *)
let using_rebound =
  "concept C<t> { f : fn(t) -> t; } in\n\
   model m = C<bool> { f = fun (b : bool) => b; } in\n\
   model C<int> { f = fun (y : int) => y; } in\n\
   let m = 1 in\n\
   using m in\n\
   let g = tfun t where C<t> => fun (v : t) => C<t>.f(v) in\n\
   g[int](1)"

let test_oracle_corpus () =
  check_source "using a rebound name" using_rebound;
  List.iter
    (fun (e : Corpus.entry) ->
      check_source e.name e.source;
      check_source (e.name ^ "+prelude") (Prelude.wrap e.source))
    Corpus.all;
  List.iter (fun f -> check_source f (read_file f)) (program_files ())

let test_oracle_families () =
  for n = 2 to 20 do
    List.iter
      (fun (name, family) ->
        check_source (Printf.sprintf "%s %d" name n) (family n))
      [
        ("refinement_chain", Genprog.refinement_chain);
        ("refinement_diamond", Genprog.refinement_diamond);
        ("many_models", Genprog.many_models);
        ("wide_where", Genprog.wide_where);
        ("same_type_chain", Genprog.same_type_chain);
        ("assoc_chain", Genprog.assoc_chain);
        ("let_chain", Genprog.let_chain);
        ( "shared_prefix",
          fun n -> Genprog.shared_prefix ~edit_at:(n / 2) ~edit:1 ~decls:n () );
        ("param_depth", Genprog.param_depth);
        ("instantiation_fanout", fun n -> Genprog.instantiation_fanout n);
      ]
  done

(* Generated programs, and their pretty-printed re-parses. *)
let test_oracle_generated () =
  for seed = 0 to 2999 do
    let ast = Gen.program_of_seed seed in
    check_spine (Printf.sprintf "gen %d" seed) (fst (Unit.split_spine ast));
    check_source
      (Printf.sprintf "gen %d re-parsed" seed)
      (Pretty.exp_to_string ast)
  done

(* Corpus declarations shuffled together: spines where names are
   shadowed, re-provided after use and modelled out of order. *)
let test_oracle_shuffled () =
  let pool =
    Array.of_list
      (List.concat_map
         (fun (e : Corpus.entry) ->
           Option.value ~default:[] (spine_of_source e.source))
         Corpus.all)
  in
  let st = Random.State.make [| 7 |] in
  for i = 0 to 499 do
    let len = 2 + Random.State.int st 30 in
    let decls =
      List.init len (fun _ -> pool.(Random.State.int st (Array.length pool)))
    in
    check_spine (Printf.sprintf "shuffle %d" i) decls
  done

(* A dependent let chain: each binding uses the one before it. *)
let chain n =
  let b = Buffer.create (n * 24) in
  Buffer.add_string b "let x0 = 7 in\n";
  for i = 1 to n - 1 do
    Printf.bprintf b "let x%d = x%d + %d in\n" i (i - 1) (1 + (i mod 9))
  done;
  Printf.bprintf b "x%d\n" (n - 1);
  Buffer.contents b

let test_chain_edges () =
  List.iter
    (fun n ->
      let decls = Option.get (spine_of_source (chain n)) in
      let edges =
        Array.fold_left
          (fun acc d -> acc + List.length d)
          0
          (Declgraph.direct ~global:false (infos_of decls))
      in
      Alcotest.(check int) (Printf.sprintf "n=%d" n) (n - 1) edges)
    [ 500; 2000 ]

(* Keying a unit on its direct edges keeps checking a long chain
   linear: the whole session run stays within a constant factor of
   the bare checker on the same tree (about 10x on a 2-vCPU VM; keying
   on the reference's transitive sets measured over 100x). *)
let test_chain_scaling () =
  let src = chain 1000 in
  let ast = Parser.exp_of_string src in
  let min_of_3 f =
    let once () =
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0
    in
    List.fold_left min infinity [ once (); once (); once () ]
  in
  let session =
    min_of_3 (fun () ->
        ignore (Session.run_full ~file:"chain" (Fresh.session ()) src))
  in
  let bare = min_of_3 (fun () -> ignore (Check.typecheck ast)) in
  if session > 20. *. bare then
    Alcotest.failf
      "1000-binding chain: session %.1f ms > 20 x typecheck %.2f ms"
      (session *. 1000.) (bare *. 1000.)

let suite =
  [
    Alcotest.test_case "oracle: corpus and program files" `Quick
      test_oracle_corpus;
    Alcotest.test_case "oracle: scaling families" `Quick test_oracle_families;
    Alcotest.test_case "oracle: generated and re-parsed" `Quick
      test_oracle_generated;
    Alcotest.test_case "oracle: shuffled declarations" `Quick
      test_oracle_shuffled;
    Alcotest.test_case "chain edges linear" `Quick test_chain_edges;
    Alcotest.test_case "chain checking linear" `Quick test_chain_scaling;
  ]
