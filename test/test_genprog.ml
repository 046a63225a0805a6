(* Tests for the synthetic scaling families used by the benchmarks:
   each family must produce well-typed programs at several sizes, with
   the documented values, so the benchmark numbers measure real work. *)

open Fg_core

let check_family name family sizes expected_of =
  List.iter
    (fun n ->
      let src = family n in
      match
        Session.run_result ~file:(Printf.sprintf "%s/%d" name n)
          (Fresh.session ()) src
      with
      | Ok out ->
          Alcotest.(check string)
            (Printf.sprintf "%s n=%d" name n)
            (expected_of n)
            (Interp.flat_to_string out.value)
      | Error d ->
          Alcotest.failf "%s n=%d: %s" name n (Fg_util.Diag.to_string d))
    sizes

let test_refinement_chain () =
  check_family "refinement_chain" Genprog.refinement_chain [ 1; 2; 5; 10; 20 ]
    (fun _ -> "42")

let test_refinement_diamond () =
  check_family "refinement_diamond" Genprog.refinement_diamond [ 1; 2; 4; 6 ]
    (fun _ -> "1")

let test_many_models () =
  check_family "many_models" Genprog.many_models [ 1; 10; 50 ] (fun _ -> "0")

let test_wide_where () =
  check_family "wide_where" Genprog.wide_where [ 1; 5; 20 ] (fun n ->
      string_of_int (n * (n - 1) / 2))

let test_same_type_chain () =
  check_family "same_type_chain" Genprog.same_type_chain [ 2; 10; 40 ]
    (fun _ -> "8")

let test_assoc_chain () =
  check_family "assoc_chain" Genprog.assoc_chain [ 1; 4; 10 ] (fun _ -> "1")

let test_let_chain () =
  check_family "let_chain" Genprog.let_chain [ 1; 5; 25 ] (fun n ->
      (* sum of 2i for i in 0..n-1 *)
      string_of_int (n * (n - 1)))

let test_workloads_agree () =
  (* the three accumulate workloads (FG, System F higher-order,
     monomorphic F) compute the same sum *)
  let n = 25 in
  let expected = string_of_int (n * (n - 1) / 2) in
  let fg = Session.run (Fresh.session ()) (Genprog.accumulate_workload n) in
  Alcotest.(check string) "FG workload" expected
    (Interp.flat_to_string fg.value);
  let f_ho =
    Fg_systemf.Eval.run_value
      (Fg_systemf.Parser.exp_of_string (Genprog.accumulate_workload_systemf n))
  in
  Alcotest.(check string) "F higher-order workload" expected
    (Fg_systemf.Eval.value_to_string f_ho);
  let f_mono =
    Fg_systemf.Eval.run_value
      (Fg_systemf.Parser.exp_of_string (Genprog.accumulate_workload_mono n))
  in
  Alcotest.(check string) "F monomorphic workload" expected
    (Fg_systemf.Eval.value_to_string f_mono)

let test_dict_depth_in_translation () =
  (* the refinement chain really produces deeply nested dictionary
     projections: depth n means an n-step nth chain somewhere *)
  let f = Check.translate (Parser.exp_of_string (Genprog.refinement_chain 6)) in
  let s = Fg_systemf.Pretty.exp_to_flat_string f in
  (* path of five 0-projections to reach C0's dictionary from C5's *)
  Alcotest.(check bool) "deep projection chain" true
    (Astring_contains.contains
       ~needle:"nth (nth (nth (nth (nth" s)

(* Scaling guard on the checker's success path: work done per
   resolution step or per substituted type (rendering a diagnostic that
   is not raised, rebuilding a substitution map) makes these families
   superlinear.  Each time is the minimum of three in-process runs on
   fresh sessions; the bounds leave room for a noisy host over the
   measured ratios (about 5x, 25x and 23x on a 2-vCPU VM). *)
let min_of_3_ms src =
  let once () =
    let s = Fresh.session () in
    let t0 = Unix.gettimeofday () in
    ignore (Session.run_full ~file:"scale" s src);
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  List.fold_left min infinity [ once (); once (); once () ]

let test_scaling_guard () =
  List.iter
    (fun (name, family, small, large, bound) ->
      let t_small = min_of_3_ms (family small) in
      let t_large = min_of_3_ms (family large) in
      let ratio = t_large /. t_small in
      if ratio > bound then
        Alcotest.failf "%s %d / %d: %.1f ms / %.2f ms = %.1fx > %.0fx" name
          large small t_large t_small ratio bound)
    [
      ("param_depth", Genprog.param_depth, 8, 45, 12.);
      ("same_type_chain", Genprog.same_type_chain, 35, 566, 60.);
      ( "instantiation_fanout",
        (fun n -> Genprog.instantiation_fanout n),
        4, 23, 60. );
    ]

let suite =
  [
    Alcotest.test_case "refinement chain" `Quick test_refinement_chain;
    Alcotest.test_case "refinement diamond" `Quick test_refinement_diamond;
    Alcotest.test_case "many models" `Quick test_many_models;
    Alcotest.test_case "wide where" `Quick test_wide_where;
    Alcotest.test_case "same-type chain" `Quick test_same_type_chain;
    Alcotest.test_case "assoc chain" `Quick test_assoc_chain;
    Alcotest.test_case "let chain" `Quick test_let_chain;
    Alcotest.test_case "workloads agree" `Quick test_workloads_agree;
    Alcotest.test_case "dictionary depth visible" `Quick
      test_dict_depth_in_translation;
    Alcotest.test_case "check-time scaling guard" `Quick test_scaling_guard;
  ]
