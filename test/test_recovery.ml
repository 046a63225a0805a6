(* Multi-error recovery: one invocation of the recovering pipeline
   reports every independent error (with its stable code and span),
   suppresses cascades from poisoned bindings, and collects warnings
   even when the program succeeds. *)

open Fg_core
module Diag = Fg_util.Diag

let report_of ?resolution src =
  Session.run_full ~file:"rec" (Fresh.session ?resolution ()) src

let codes_of (r : Session.run_report) =
  List.map (fun (d : Diag.diagnostic) -> d.code) r.diagnostics

let errors_of (r : Session.run_report) =
  List.filter
    (fun (d : Diag.diagnostic) -> d.severity = Diag.Err)
    r.diagnostics

let check_codes name src expected =
  let r = report_of src in
  Alcotest.(check (list string)) name expected (codes_of r)

(* Five independent errors across four phases — lexer, parser, wf,
   typecheck, resolve — all from one run. *)
let test_multi_phase () =
  let src =
    {|concept N<t> { m : t; } in
let a = $1 in
let b = in
let c = fun (x : nope) => x in
let d = 1 + true in
N<int>.m|}
  in
  let r = report_of src in
  Alcotest.(check bool) "no outcome" true (r.Session.outcome = None);
  Alcotest.(check (list string))
    "all five, in source order"
    [ "FG0001"; "FG0101"; "FG0207"; "FG0303"; "FG0402" ]
    (codes_of r);
  (* every diagnostic carries a real span *)
  List.iter
    (fun (d : Diag.diagnostic) ->
      Alcotest.(check bool) "has span" false (Fg_util.Loc.is_dummy d.loc))
    r.Session.diagnostics

(* A failed declaration poisons its binding: uses of the binding do not
   produce follow-on garbage, so exactly one error surfaces. *)
let test_cascade_suppressed () =
  let r = report_of "let x = unknown_thing in let y = x + 1 in y" in
  Alcotest.(check int) "one error" 1 (List.length (errors_of r));
  Alcotest.(check (list string)) "the root cause" [ "FG0302" ] (codes_of r)

(* Same for parse failures: the spine after a bad declaration is kept,
   so later independent errors still surface, but uses of the dropped
   binding stay quiet. *)
let test_parse_poison () =
  let r = report_of "let b = in let c = b + true in 0" in
  Alcotest.(check (list string)) "parse error only, use of b quiet"
    [ "FG0101" ] (codes_of r)

(* The residual expression after a failed declaration is still checked. *)
let test_residual_checked () =
  check_codes "residual body errors surface" "let b = in 1 + true"
    [ "FG0101"; "FG0303" ]

(* Unbound names come with a nearest-name suggestion when plausible. *)
let test_suggestion () =
  let r = report_of "let accumulate = 1 in acumulate" in
  match errors_of r with
  | [ d ] ->
      Alcotest.(check string) "code" "FG0302" d.Diag.code;
      Alcotest.(check (list string)) "did-you-mean note"
        [ "did you mean 'accumulate'?" ]
        (List.map (fun (n : Diag.note) -> n.Diag.n_msg) d.Diag.notes)
  | ds -> Alcotest.failf "expected one error, got %d" (List.length ds)

(* Failed-resolution errors list the candidate models in scope. *)
let test_candidate_note () =
  let src =
    {|concept N<t> { m : t; } in
model N<bool> { m = true; } in
N<int>.m|}
  in
  let r = report_of src in
  match errors_of r with
  | [ d ] ->
      Alcotest.(check string) "code" "FG0402" d.Diag.code;
      Alcotest.(check bool) "candidate listed" true
        (List.exists
           (fun (n : Diag.note) ->
             Astring_contains.contains ~needle:"N<bool>" n.Diag.n_msg)
           d.Diag.notes)
  | ds -> Alcotest.failf "expected one error, got %d" (List.length ds)

(* FG0701: a ground model that exactly shadows an earlier one warns,
   and the program still runs (warnings are not errors). *)
let test_shadow_warning () =
  let src =
    {|concept N<t> { m : t; } in
model N<int> { m = 1; } in
model N<int> { m = 2; } in
N<int>.m|}
  in
  let r = report_of src in
  (match r.Session.outcome with
  | Some o -> Alcotest.(check bool) "value" true
                (Interp.flat_equal o.Session.value (Interp.FlInt 2))
  | None -> Alcotest.fail "expected success");
  Alcotest.(check (list string)) "shadow warning" [ "FG0701" ] (codes_of r);
  List.iter
    (fun (d : Diag.diagnostic) ->
      Alcotest.(check bool) "is warning" true (d.Diag.severity = Diag.Warn))
    r.Session.diagnostics

(* FG0702: a where-clause constraint whose dictionary is never used. *)
let test_unused_constraint_warning () =
  let src =
    {|concept E<t> { e : t; } in
model E<int> { e = 0; } in
(tfun t where E<t> => fun (x : t) => x)[int](5)|}
  in
  let r = report_of src in
  (match r.Session.outcome with
  | Some o -> Alcotest.(check bool) "value" true
                (Interp.flat_equal o.Session.value (Interp.FlInt 5))
  | None -> Alcotest.fail "expected success");
  Alcotest.(check (list string)) "unused-constraint warning" [ "FG0702" ]
    (codes_of r)

(* ... and a used constraint stays quiet. *)
let test_used_constraint_quiet () =
  let src =
    {|concept E<t> { e : t; } in
model E<int> { e = 7; } in
(tfun t where E<t> => E<t>.e)[int]|}
  in
  let r = report_of src in
  Alcotest.(check (list string)) "no warnings" [] (codes_of r)

(* A clean program through the recovering path matches the strict one. *)
let test_clean_program_agrees () =
  let src = "let x = 6 in x * 7" in
  let r = report_of src in
  Alcotest.(check (list string)) "no diagnostics" [] (codes_of r);
  match (r.Session.outcome, Session.run_result (Fresh.session ()) src) with
  | Some a, Ok b ->
      Alcotest.(check bool) "same value" true
        (Interp.flat_equal a.Session.value b.Session.value)
  | _ -> Alcotest.fail "both paths should succeed"

(* Recovery terminates and reports something sensible on garbage. *)
let test_garbage_terminates () =
  let r = report_of ")))] in let ((" in
  Alcotest.(check bool) "errors reported" true
    (List.length (errors_of r) > 0);
  Alcotest.(check bool) "no outcome" true (r.Session.outcome = None)

(* Poisoning a failed declaration is a decision point the guided fuzzer
   steers by: one ill-typed declaration fires [recover.check.poison]
   exactly once. *)
let test_poison_probe () =
  let module Coverage = Fg_util.Coverage in
  let before = Coverage.snapshot () in
  let r = report_of "let x = 1 + true in\nlet y = 2 in\ny" in
  Alcotest.(check (list string)) "one error" [ "FG0303" ] (codes_of r);
  let hits = Coverage.diff (Coverage.snapshot ()) before in
  Alcotest.(check int) "recover.check.poison hit once" 1
    (Option.value ~default:0 (List.assoc_opt "recover.check.poison" hits))

let suite =
  [
    Alcotest.test_case "multi-phase errors" `Quick test_multi_phase;
    Alcotest.test_case "cascade suppressed" `Quick test_cascade_suppressed;
    Alcotest.test_case "parse poison" `Quick test_parse_poison;
    Alcotest.test_case "residual checked" `Quick test_residual_checked;
    Alcotest.test_case "nearest-name suggestion" `Quick test_suggestion;
    Alcotest.test_case "candidate models note" `Quick test_candidate_note;
    Alcotest.test_case "shadowed model warning" `Quick test_shadow_warning;
    Alcotest.test_case "unused constraint warning" `Quick
      test_unused_constraint_warning;
    Alcotest.test_case "used constraint quiet" `Quick
      test_used_constraint_quiet;
    Alcotest.test_case "clean program agrees" `Quick
      test_clean_program_agrees;
    Alcotest.test_case "garbage terminates" `Quick test_garbage_terminates;
    Alcotest.test_case "poisoned declaration hits its probe" `Quick
      test_poison_probe;
  ]
