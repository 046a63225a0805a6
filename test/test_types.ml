(* White-box tests of the type-level machinery (lib/fg/types.ml): the
   paper's ba/b/bw/bm functions, dictionary layout, plan shapes, and
   type translation — checked directly against hand-computed results. *)

open Fg_core
module T = Types
module F = Fg_systemf.Ast

let ty = Parser.ty_of_string

(* An environment with the iterator-flavoured concept stack:
     Eq<t>           { eq }
     Ord<t>          { refines Eq; less }
     Iterator<i>     { types elt; next, curr, at_end }
     Fancy<i>        { types pos; refines Iterator<i>, Ord<Fancy<i>.pos... } *)
let env_with src =
  let e = Parser.exp_of_string (src ^ " 0") in
  (* walk the concept declarations, building the environment *)
  let rec go env (e : Ast.exp) =
    match e.Ast.desc with
    | Ast.ConceptDecl (d, body) -> go (Env.bind_concept env d) body
    | _ -> env
  in
  go (Env.create ()) e

let stack =
  {|concept Eq<t> { eq : fn(t, t) -> bool; } in
concept Ord<t> { refines Eq<t>; less : fn(t, t) -> bool; } in
concept Iterator<i> { types elt; next : fn(i) -> i; curr : fn(i) -> elt; at_end : fn(i) -> bool; } in
concept Pair<a, b> { fst_ : a; snd_ : b; } in
|}

let env = env_with stack

let test_assoc_scope () =
  let scope = T.assoc_scope env ("Iterator", [ ty "list int" ]) in
  Alcotest.(check int) "one assoc" 1 (List.length scope);
  let name, proj = List.hd scope in
  Alcotest.(check string) "name" "elt" name;
  Alcotest.(check string) "qualified projection" "Iterator<list int>.elt"
    (Pretty.ty_to_string proj)

let test_instantiation_subst () =
  let s = T.instantiation_subst env ("Iterator", [ ty "bool" ]) in
  (* parameter i -> bool, assoc elt -> Iterator<bool>.elt *)
  Alcotest.(check string) "param" "bool"
    (Pretty.ty_to_string (List.assoc "i" s));
  Alcotest.(check string) "assoc" "Iterator<bool>.elt"
    (Pretty.ty_to_string (List.assoc "elt" s))

let test_refinements () =
  Alcotest.(check (list string)) "Ord refines Eq at the same arg"
    [ "Eq<int>" ]
    (List.map
       (fun (c, args) -> Pretty.constr_to_string (Ast.CModel (c, args)))
       (T.refinements env ("Ord", [ ty "int" ])));
  Alcotest.(check int) "Eq refines nothing" 0
    (List.length (T.refinements env ("Eq", [ ty "int" ])))

let test_member_lookup_paths () =
  (* Ord's own member: after the 1 refinement slot -> index 1 *)
  (match T.member_lookup env ("Ord", [ ty "int" ]) "less" with
  | Some (t, path) ->
      Alcotest.(check string) "type" "fn(int, int) -> bool"
        (Pretty.ty_to_string t);
      Alcotest.(check (list int)) "own member path" [ 1 ] path
  | None -> Alcotest.fail "less not found");
  (* inherited member: through refinement 0, then Eq's member 0 *)
  (match T.member_lookup env ("Ord", [ ty "int" ]) "eq" with
  | Some (_, path) -> Alcotest.(check (list int)) "inherited path" [ 0; 0 ] path
  | None -> Alcotest.fail "eq not found");
  (* missing member *)
  Alcotest.(check bool) "missing" true
    (T.member_lookup env ("Ord", [ ty "int" ]) "ghost" = None);
  (* member type uses the assoc projection *)
  match T.member_lookup env ("Iterator", [ ty "bool" ]) "curr" with
  | Some (t, path) ->
      Alcotest.(check string) "curr type" "fn(bool) -> Iterator<bool>.elt"
        (Pretty.ty_to_string t);
      Alcotest.(check (list int)) "curr path" [ 1 ] path
  | None -> Alcotest.fail "curr not found"

let test_all_members () =
  let ms = T.all_members env ("Ord", [ ty "int" ]) in
  Alcotest.(check (list string)) "own first, then inherited"
    [ "less"; "eq" ]
    (List.map (fun (x, _, _) -> x) ms)

let test_process_where_plan () =
  let env', plan =
    T.process_where env [ "i" ]
      [ Ast.CModel ("Iterator", [ Ast.TVar "i" ]) ]
  in
  (* one requirement -> one dictionary; one assoc -> one slot *)
  Alcotest.(check int) "one dict" 1 (List.length plan.T.p_dicts);
  Alcotest.(check int) "one slot" 1 (List.length plan.T.p_slots);
  let _, (c, _, s) = List.hd plan.T.p_slots in
  Alcotest.(check string) "slot concept" "Iterator" c;
  Alcotest.(check string) "slot assoc" "elt" s;
  (* the proxy model is in scope in env' *)
  Alcotest.(check bool) "proxy in scope" true
    (Env.lookup_model env' "Iterator" [ Ast.TVar "i" ] <> None);
  (* dictionary type: (fn(i)->i) * (fn(i)->slot) * (fn(i)->bool) *)
  let _, _, dty = List.hd plan.T.p_dicts in
  match dty with
  | F.TTuple [ F.TArrow ([ F.TVar "i" ], F.TVar "i"); _; _ ] -> ()
  | _ ->
      Alcotest.failf "unexpected dict type %s"
        (Fg_systemf.Pretty.ty_to_string dty)

let test_plan_refinement_closure () =
  let _, plan =
    T.process_where env [ "t" ] [ Ast.CModel ("Ord", [ Ast.TVar "t" ]) ]
  in
  (* Ord has no assoc; neither does Eq: no slots, one dict *)
  Alcotest.(check int) "no slots" 0 (List.length plan.T.p_slots);
  Alcotest.(check int) "one dict" 1 (List.length plan.T.p_dicts);
  let _, _, dty = List.hd plan.T.p_dicts in
  (* nested: ((eq), less) *)
  match dty with
  | F.TTuple [ F.TTuple [ _ ]; _ ] -> ()
  | _ ->
      Alcotest.failf "unexpected Ord dict %s"
        (Fg_systemf.Pretty.ty_to_string dty)

let test_dict_type_multi_param () =
  let env', _ =
    T.process_where env [ "a"; "b" ]
      [ Ast.CModel ("Pair", [ Ast.TVar "a"; Ast.TVar "b" ]) ]
  in
  let dty = T.dict_type env' ("Pair", [ Ast.TVar "a"; Ast.TVar "b" ]) in
  match dty with
  | F.TTuple [ F.TVar "a"; F.TVar "b" ] -> ()
  | _ ->
      Alcotest.failf "unexpected Pair dict %s"
        (Fg_systemf.Pretty.ty_to_string dty)

let test_wf_rejects () =
  (* TYASC without a model *)
  (match
     Fg_util.Diag.protect (fun () ->
         T.wf_ty env (ty "Iterator<list int>.elt"))
   with
  | Ok () -> Alcotest.fail "expected wf failure"
  | Error d -> Alcotest.(check bool) "wf" true (d.phase = Fg_util.Diag.Wf));
  (* unknown assoc name *)
  let env', _ =
    T.process_where env [ "i" ] [ Ast.CModel ("Iterator", [ Ast.TVar "i" ]) ]
  in
  match
    Fg_util.Diag.protect (fun () -> T.wf_ty env' (ty "Iterator<i>.ghost"))
  with
  | Ok () -> Alcotest.fail "expected wf failure"
  | Error d ->
      Alcotest.(check bool) "no such assoc" true
        (Astring_contains.contains ~needle:"no associated type" d.message)

let test_translate_ty_forall () =
  (* forall i where Iterator<i>. fn(i) -> Iterator<i>.elt
     ==> forall i elt'. fn(dict) -> fn(i) -> elt' *)
  let t =
    ty "forall i where Iterator<i>. fn(i) -> Iterator<i>.elt"
  in
  match T.translate_ty env t with
  | F.TForall ([ i; slot ], F.TArrow ([ _dict ], F.TArrow ([ F.TVar i' ], F.TVar r)))
    ->
      Alcotest.(check string) "binder" "i" i;
      Alcotest.(check string) "param uses binder" i i';
      Alcotest.(check string) "result uses the slot" slot r
  | ft ->
      Alcotest.failf "unexpected translation %s"
        (Fg_systemf.Pretty.ty_to_string ft)

let test_translate_ty_unconstrained () =
  match T.translate_ty env (ty "forall a. fn(a) -> a") with
  | F.TForall ([ "a" ], F.TArrow ([ F.TVar "a" ], F.TVar "a")) -> ()
  | ft ->
      Alcotest.failf "unexpected %s" (Fg_systemf.Pretty.ty_to_string ft)

(* Instantiations are memoized per (concept, arguments), which is only
   sound under one concept table: here the bottom of a refinement
   diamond is shadowed by a concept with another member layout between
   two uses of Top<int>, so a stale instantiation would find [get] at
   the old path (evaluating [put]) and no [put] at all. *)
let shadowed_refined_concept =
  {|concept Base<t> { types s; get : fn(t) -> s; } in
concept L<t> { refines Base<t>; left : fn(t) -> t; } in
concept R<t> { refines Base<t>; right : fn(t) -> t; } in
concept Top<t> { refines L<t>, R<t>; } in
let use_top = tfun t where Top<t> =>
  fun (x : t) => Top<t>.get(Top<t>.left(Top<t>.right(x))) in
model Base<int> { types s = int; get = fun (x : int) => x + 1; } in
model L<int> { left = fun (x : int) => x * 2; } in
model R<int> { right = fun (x : int) => x * 3; } in
model Top<int> { } in
let r1 = use_top[int](1) in
let g1 = Top<int>.get(10) in
concept Base<t> { types s; put : fn(t) -> t; get : fn(t) -> s; } in
model Base<int> { types s = int; put = fun (x : int) => x * 100;
                  get = fun (x : int) => x + 2; } in
model L<int> { left = fun (x : int) => x * 5; } in
model R<int> { right = fun (x : int) => x * 7; } in
model Top<int> { } in
let g2 = Top<int>.get(10) in
let p2 = Top<int>.put(10) in
(r1, g1, g2, p2)|}

let test_memo_under_shadowed_concept () =
  match
    Session.run_result ~file:"shadow" (Fresh.session ())
      shadowed_refined_concept
  with
  | Ok out ->
      Alcotest.(check string) "value" "(7, 11, 12, 1000)"
        (Interp.flat_to_string out.value);
      Alcotest.(check string) "type" "int * int * int * int"
        (Pretty.ty_to_string out.fg_ty);
      Alcotest.(check bool) "theorems hold" true out.theorem_holds
  | Error d -> Alcotest.failf "%s" (Fg_util.Diag.to_string d)

(* [subst_ty_list s] builds its map once and reuses it for every type
   it is applied to; that must be the substitution of a map built
   afresh from [s], where a repeated variable's last binding wins. *)
let prop_subst_list_shares_one_map =
  let open QCheck.Gen in
  let var = oneofl [ "a"; "b"; "c" ] in
  let ty_gen =
    sized
    @@ fix (fun self n ->
           if n <= 1 then
             oneof
               [ map (fun v -> Ast.TVar v) var; return (Ast.TBase Ast.TInt) ]
           else
             frequency
               [
                 (2, map (fun v -> Ast.TVar v) var);
                 (2, map (fun t -> Ast.TList t) (self (n / 2)));
                 ( 1,
                   map2 (fun x y -> Ast.TArrow ([ x ], y)) (self (n / 2))
                     (self (n / 2)) );
                 ( 1,
                   map2
                     (fun v t -> Ast.TForall ([ v ], [], t))
                     var (self (n / 2)) );
               ])
  in
  let gen =
    pair
      (list_size (int_bound 5) (pair var ty_gen))
      (list_size (int_bound 4) ty_gen)
  in
  let print (s, ts) =
    String.concat ", "
      (List.map (fun (a, t) -> a ^ " := " ^ Pretty.ty_to_string t) s)
    ^ " | "
    ^ String.concat ", " (List.map Pretty.ty_to_string ts)
  in
  QCheck.Test.make ~name:"subst_ty_list = a fresh map, last binding wins"
    ~count:300 (QCheck.make ~print gen) (fun (s, ts) ->
      let fresh = Fg_util.Names.Smap.of_seq (List.to_seq s) in
      List.map (Ast.subst_ty_list s) ts = List.map (Ast.subst_ty fresh) ts)

let suite =
  [
    Alcotest.test_case "assoc_scope (ba)" `Quick test_assoc_scope;
    Alcotest.test_case "instantiation_subst" `Quick test_instantiation_subst;
    Alcotest.test_case "refinements" `Quick test_refinements;
    Alcotest.test_case "member_lookup paths (b)" `Quick
      test_member_lookup_paths;
    Alcotest.test_case "all_members ordering" `Quick test_all_members;
    Alcotest.test_case "process_where plan (bw/bm)" `Quick
      test_process_where_plan;
    Alcotest.test_case "refinement closure in dict" `Quick
      test_plan_refinement_closure;
    Alcotest.test_case "multi-param dict type" `Quick
      test_dict_type_multi_param;
    Alcotest.test_case "wf rejections" `Quick test_wf_rejects;
    Alcotest.test_case "translate constrained forall" `Quick
      test_translate_ty_forall;
    Alcotest.test_case "translate plain forall" `Quick
      test_translate_ty_unconstrained;
    Alcotest.test_case "instantiation memo under a shadowed concept" `Quick
      test_memo_under_shadowed_concept;
    QCheck_alcotest.to_alcotest prop_subst_list_shares_one_map;
  ]
