(* Tests for concept member defaults (Section 6: "defaults for concept
   members provide a mechanism for implementing a rich interface in
   terms of a few functions").  A default body may call the model's
   other members — including other defaults — through the dictionary
   being defined, which the translation fix-binds. *)

open Fg_core

let check src expected =
  match Session.run_result ~file:"defaults" (Fresh.session ()) src with
  | Ok out ->
      Alcotest.(check string) src expected (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "%s: %s" src (Fg_util.Diag.to_string d)

let check_fails src phase fragment =
  match Session.run_result ~file:"defaults" (Fresh.session ()) src with
  | Ok out ->
      Alcotest.failf "%s: expected failure, got %s" src
        (Interp.flat_to_string out.value)
  | Error d ->
      if d.phase <> phase then
        Alcotest.failf "%s: wrong phase %s" src (Fg_util.Diag.to_string d);
      if not (Astring_contains.contains ~needle:fragment d.message) then
        Alcotest.failf "%s: wrong message %s" src d.message

let eq_with_default =
  {|concept Eq<t> {
  eq  : fn(t, t) -> bool;
  neq : fn(t, t) -> bool = fun (a : t, b : t) => !Eq<t>.eq(a, b);
} in
|}

let test_default_filled () =
  check (eq_with_default ^ "model Eq<int> { eq = ieq; } in Eq<int>.neq(1, 2)")
    "true";
  check (eq_with_default ^ "model Eq<int> { eq = ieq; } in Eq<int>.neq(1, 1)")
    "false"

let test_default_overridden () =
  check
    (eq_with_default
   ^ {|model Eq<int> { eq = ieq; neq = fun (a : int, b : int) => false; } in
Eq<int>.neq(1, 2)|})
    "false"

let test_default_chain () =
  (* a default calling another default, across a refinement *)
  check
    (eq_with_default
   ^ {|concept Ord<t> {
  refines Eq<t>;
  less : fn(t, t) -> bool;
  leq  : fn(t, t) -> bool = fun (a : t, b : t) => Ord<t>.less(a, b) || Eq<t>.eq(a, b);
  gtr  : fn(t, t) -> bool = fun (a : t, b : t) => !Ord<t>.leq(a, b);
} in
model Eq<int> { eq = ieq; } in
model Ord<int> { less = ilt; } in
(Ord<int>.leq(2, 2), Ord<int>.gtr(3, 2), Ord<int>.gtr(2, 3))|})
    "(true, true, false)"

let test_default_in_generic () =
  (* defaults are reachable through where-clause proxies too *)
  check
    (eq_with_default
   ^ {|let distinct = tfun t where Eq<t> => fun (x : t, y : t) => Eq<t>.neq(x, y) in
model Eq<int> { eq = ieq; } in
(distinct[int](1, 2), distinct[int](3, 3))|})
    "(true, false)"

let test_default_in_parameterized_model () =
  (* the parameterized Eq<list t> model also gets neq for free *)
  check
    (eq_with_default
   ^ {|model Eq<int> { eq = ieq; } in
model <t> where Eq<t> => Eq<list t> {
  eq = fix (go : fn(list t, list t) -> bool) =>
    fun (a : list t, b : list t) =>
      if null[t](a) then null[t](b)
      else if null[t](b) then false
      else Eq<t>.eq(car[t](a), car[t](b)) && go(cdr[t](a), cdr[t](b));
} in
Eq<list int>.neq(cons[int](1, nil[int]), nil[int])|})
    "true"

let test_prelude_defaults () =
  let p body = Prelude.wrap body in
  check (p "Eq<int>.neq(1, 2)") "true";
  check (p "Ord<int>.leq(2, 2)") "true";
  check (p "Ord<int>.min2(4, 2)") "2";
  check (p "Ord<int>.max2(4, 2)") "4";
  (* defaults through the parameterized list models *)
  check
    (p "Ord<list int>.min2(cons[int](2, nil[int]), cons[int](1, nil[int]))")
    "[1]"

let test_default_wrong_type_rejected () =
  check_fails
    {|concept C<t> {
  v : t;
  w : t = true;
} in
model C<int> { v = 1; } in C<int>.w|}
    Fg_util.Diag.Typecheck "default for member 'w'"

let test_default_for_nonmember_rejected () =
  (* not expressible in concrete syntax (a default item always declares
     its member), so build the ill-formed declaration directly *)
  let d =
    {
      Ast.c_name = "C";
      c_params = [ "t" ];
      c_assoc = [];
      c_refines = [];
      c_requires = [];
      c_members = [ ("v", Ast.TVar "t") ];
      c_defaults = [ ("ghost", Ast.int 1) ];
      c_same = [];
      c_loc = Fg_util.Loc.dummy;
    }
  in
  let prog = Ast.concept_decl d (Ast.int 0) in
  match Check.check_result prog with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error d ->
      Alcotest.(check bool) "message" true
        (Astring_contains.contains ~needle:"not a member" d.message)

let test_missing_without_default_still_fails () =
  check_fails
    {|concept C<t> { v : t; w : t = C<t>.v; } in
model C<int> { w = 3; } in 0|}
    Fg_util.Diag.Wf "does not define member 'v'"

let test_translation_fix_bound () =
  let src = eq_with_default ^ "model Eq<int> { eq = ieq; } in Eq<int>.neq(0, 0)" in
  let f = Check.translate (Parser.exp_of_string src) in
  let s = Fg_systemf.Pretty.exp_to_flat_string f in
  Alcotest.(check bool) "dictionary is fix-bound" true
    (Astring_contains.contains ~needle:"fix (Eq_" s)

let suite =
  [
    Alcotest.test_case "default filled in" `Quick test_default_filled;
    Alcotest.test_case "default overridden" `Quick test_default_overridden;
    Alcotest.test_case "default chain through refinement" `Quick
      test_default_chain;
    Alcotest.test_case "default via proxy in generic" `Quick
      test_default_in_generic;
    Alcotest.test_case "default in parameterized model" `Quick
      test_default_in_parameterized_model;
    Alcotest.test_case "prelude defaults" `Quick test_prelude_defaults;
    Alcotest.test_case "ill-typed default rejected" `Quick
      test_default_wrong_type_rejected;
    Alcotest.test_case "default for non-member rejected" `Quick
      test_default_for_nonmember_rejected;
    Alcotest.test_case "missing member without default" `Quick
      test_missing_without_default_still_fails;
    Alcotest.test_case "translation fix-binds the dictionary" `Quick
      test_translation_fix_bound;
  ]
