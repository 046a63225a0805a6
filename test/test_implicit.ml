(* Tests for implicit instantiation (Section 6 future work, implemented
   in the decidable first-order-matching restriction): type arguments
   of a generic application are inferred from the argument types; the
   elaborated program carries the explicit instantiation, so the direct
   interpreter, the translation, and the theorem checks all run on it. *)

open Fg_core

let check body expected =
  match
    Session.run_result ~file:"implicit" (Fresh.session ()) (Prelude.wrap body)
  with
  | Ok out ->
      Alcotest.(check string) body expected (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "%s: %s" body (Fg_util.Diag.to_string d)

let check_raw src expected =
  match Session.run_result ~file:"implicit" (Fresh.session ()) src with
  | Ok out ->
      Alcotest.(check string) src expected (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "%s: %s" src (Fg_util.Diag.to_string d)

let check_fails src fragment =
  match Session.run_result ~file:"implicit" (Fresh.session ()) src with
  | Ok out ->
      Alcotest.failf "%s: expected failure, got %s" src
        (Interp.flat_to_string out.value)
  | Error d ->
      if not (Astring_contains.contains ~needle:fragment d.message) then
        Alcotest.failf "%s: wrong message: %s" src d.message

let l = Prelude.int_list

let test_basic () =
  check (Printf.sprintf "accumulate(%s)" (l [ 1; 2; 3 ])) "6";
  check (Printf.sprintf "contains(%s, 2)" (l [ 1; 2 ])) "true";
  check (Printf.sprintf "count(%s, 1)" (l [ 1; 1; 2 ])) "2"

let test_infer_through_constructors () =
  (* the iterator parameter is inferred from a list-typed argument *)
  check (Printf.sprintf "accumulate_iter(%s)" (l [ 4; 5 ])) "9";
  (* multiple parameters at once *)
  check
    (Printf.sprintf "merge(%s, %s, nil[int])" (l [ 1; 3 ]) (l [ 2 ]))
    "[1, 2, 3]";
  check (Printf.sprintf "equal_ranges(%s, %s)" (l [ 1 ]) (l [ 1 ])) "true"

let test_partial_signature () =
  (* only the first parameter mentions t; the second is ground *)
  check "power(7, 2)" "14"

let test_mixed_with_explicit () =
  (* explicit instantiation still works alongside *)
  check (Printf.sprintf "accumulate[int](%s) + accumulate(%s)" (l [ 1 ]) (l [ 2 ]))
    "3"

let test_higher_order_argument () =
  (* inference through a function-typed parameter *)
  check_raw
    {|let apply = tfun a b => fun (f : fn(a) -> b, x : a) => f(x) in
apply(fun (n : int) => n + 1, 41)|}
    "42"

let test_inference_conflict () =
  check_fails
    {|let pick = tfun a => fun (x : a, y : a) => x in
pick(1, true)|}
    "matched both"

let test_underdetermined () =
  check_fails
    {|let weird = tfun t => fun (x : int) => x in
weird(1)|}
    "cannot infer type argument 't'"

let test_constraints_still_checked () =
  check_fails
    {|concept Num<t> { add : fn(t, t) -> t; } in
let double = tfun t where Num<t> => fun (x : t) => Num<t>.add(x, x) in
double(true)|}
    "no model of Num<bool>"

let test_elaborated_term_is_explicit () =
  (* the elaborated output contains the inferred [int] *)
  let src = Prelude.wrap (Printf.sprintf "accumulate(%s)" (l [ 1 ])) in
  let _, elaborated, _ = Check.elaborate (Parser.exp_of_string src) in
  let rendered = Pretty.exp_to_flat_string elaborated in
  Alcotest.(check bool) "explicit instantiation present" true
    (Astring_contains.contains ~needle:"accumulate[int](" rendered)

let test_nested_generic_implicit () =
  (* a generic function calling another one implicitly: inference
     resolves against the caller's binder *)
  check_raw
    {|concept Num<t> { add : fn(t, t) -> t; } in
let double = tfun t where Num<t> => fun (x : t) => Num<t>.add(x, x) in
let quad = tfun u where Num<u> => fun (y : u) => double(double(y)) in
model Num<int> { add = iadd; } in
quad(5)|}
    "20"

let test_value_restriction_on_return_only () =
  (* a generic whose parameter types don't mention the binder at all
     cannot be inferred *)
  check_fails
    {|let mk = tfun t => fun (n : int) => nil[t] in
mk(3)|}
    "cannot infer"

let suite =
  [
    Alcotest.test_case "basic inference" `Quick test_basic;
    Alcotest.test_case "inference through constructors" `Quick
      test_infer_through_constructors;
    Alcotest.test_case "partially generic signature" `Quick
      test_partial_signature;
    Alcotest.test_case "mixed with explicit" `Quick test_mixed_with_explicit;
    Alcotest.test_case "higher-order argument" `Quick
      test_higher_order_argument;
    Alcotest.test_case "conflicting constraints" `Quick
      test_inference_conflict;
    Alcotest.test_case "underdetermined binder" `Quick test_underdetermined;
    Alcotest.test_case "where clause still checked" `Quick
      test_constraints_still_checked;
    Alcotest.test_case "elaboration inserts explicit tyapp" `Quick
      test_elaborated_term_is_explicit;
    Alcotest.test_case "generic calling generic implicitly" `Quick
      test_nested_generic_implicit;
    Alcotest.test_case "return-only binder not inferable" `Quick
      test_value_restriction_on_return_only;
  ]
