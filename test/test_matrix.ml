(* Tests for the semiring-generic matrix library (lib/fg/matrix_lib):
   one generic mat_mul under three named semiring models, plus a
   property test against an OCaml reference multiplication. *)

open Fg_core

let check body expected =
  match
    Session.run_result ~file:"matrix" (Fresh.session ()) (Matrix_lib.wrap body)
  with
  | Ok out ->
      Alcotest.(check string) body expected (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "%s: %s" body (Fg_util.Diag.to_string d)

let a = Matrix_lib.int_matrix [ [ 1; 2 ]; [ 3; 4 ] ]
let b = Matrix_lib.int_matrix [ [ 5; 6 ]; [ 7; 8 ] ]

let test_dot () =
  check
    (Printf.sprintf "using arith in dot[int](%s, %s)"
       (Prelude.int_list [ 1; 2; 3 ])
       (Prelude.int_list [ 4; 5; 6 ]))
    "32";
  check "using arith in dot[int](nil[int], nil[int])" "0";
  (* tropical dot = min over sums *)
  check
    (Printf.sprintf "using tropical in dot[int](%s, %s)"
       (Prelude.int_list [ 3; 10 ])
       (Prelude.int_list [ 4; 1 ]))
    "7"

let test_vec_ops () =
  check
    (Printf.sprintf "using arith in vec_add[int](%s, %s)"
       (Prelude.int_list [ 1; 2 ])
       (Prelude.int_list [ 10; 20 ]))
    "[11, 22]";
  check
    (Printf.sprintf "using arith in vec_scale[int](3, %s)"
       (Prelude.int_list [ 1; 2 ]))
    "[3, 6]"

let test_mat_vec () =
  check
    (Printf.sprintf "using arith in mat_vec[int](%s, %s)" a
       (Prelude.int_list [ 1; 1 ]))
    "[3, 7]"

let test_transpose () =
  check (Printf.sprintf "using arith in transpose[int](%s)" a) "[[1, 3], [2, 4]]";
  check
    (Printf.sprintf "using arith in transpose[int](transpose[int](%s))" a)
    "[[1, 2], [3, 4]]";
  (* non-square *)
  check
    (Printf.sprintf "using arith in transpose[int](%s)"
       (Matrix_lib.int_matrix [ [ 1; 2; 3 ] ]))
    "[[1], [2], [3]]"

let test_mat_mul_arith () =
  check (Printf.sprintf "using arith in mat_mul[int](%s, %s)" a b)
    "[[19, 22], [43, 50]]";
  (* identity is neutral *)
  check
    (Printf.sprintf
       "using arith in mat_mul[int](%s, identity_matrix[int](2))" a)
    "[[1, 2], [3, 4]]";
  check
    (Printf.sprintf
       "using arith in mat_mul[int](identity_matrix[int](2), %s)" a)
    "[[1, 2], [3, 4]]"

let test_mat_pow () =
  check (Printf.sprintf "using arith in mat_pow[int](%s, 2, 0)" a)
    "[[1, 0], [0, 1]]";
  check (Printf.sprintf "using arith in mat_pow[int](%s, 2, 1)" a)
    "[[1, 2], [3, 4]]";
  check (Printf.sprintf "using arith in mat_pow[int](%s, 2, 2)" a)
    "[[7, 10], [15, 22]]"

let test_boolean_reachability () =
  (* path graph 1 -> 2 -> 3: A^2 exposes the two-step path *)
  let g =
    Matrix_lib.bool_matrix
      [
        [ false; true; false ]; [ false; false; true ]; [ false; false; false ];
      ]
  in
  check
    (Printf.sprintf "using boolean in mat_pow[bool](%s, 3, 2)" g)
    "[[false, false, true], [false, false, false], [false, false, false]]";
  (* 3-cycle: A^3 has the diagonal *)
  let c =
    Matrix_lib.bool_matrix
      [
        [ false; true; false ]; [ false; false; true ]; [ true; false; false ];
      ]
  in
  check
    (Printf.sprintf "using boolean in mat_pow[bool](%s, 3, 3)" c)
    "[[true, false, false], [false, true, false], [false, false, true]]"

let test_tropical_shortest_paths () =
  (* weights 1 -3-> 2 -4-> 3 ; W * W gives 2-step shortest paths *)
  let inf = 1000000 in
  let w =
    Matrix_lib.int_matrix
      [ [ 0; 3; inf ]; [ inf; 0; 4 ]; [ inf; inf; 0 ] ]
  in
  check (Printf.sprintf "using tropical in mat_mul[int](%s, %s)" w w)
    "[[0, 3, 7], [1000000, 0, 4], [1000000, 1000000, 0]]";
  (* a shortcut beats a long direct edge: 1->3 direct 100 vs 3+4 *)
  let w2 =
    Matrix_lib.int_matrix [ [ 0; 3; 100 ]; [ inf; 0; 4 ]; [ inf; inf; 0 ] ]
  in
  check (Printf.sprintf "using tropical in mat_mul[int](%s, %s)" w2 w2)
    "[[0, 3, 7], [1000000, 0, 4], [1000000, 1000000, 0]]"

let test_overlapping_semirings_need_using () =
  (* arith and tropical both model Semiring<int>; neither is active
     without `using`, so the call is rejected *)
  match
    Session.run_result ~file:"matrix" (Fresh.session ())
      (Matrix_lib.wrap "dot[int](nil[int], nil[int])")
  with
  | Ok _ -> Alcotest.fail "expected resolution failure"
  | Error d ->
      Alcotest.(check bool) "needs using" true
        (Astring_contains.contains ~needle:"no model of Semiring<int>"
           d.message)

(* OCaml reference multiplication for the property test. *)
let ocaml_mat_mul a b =
  let cols_b = List.length (List.hd b) in
  List.map
    (fun row ->
      List.init cols_b (fun j ->
          List.fold_left2
            (fun acc x brow -> acc + (x * List.nth brow j))
            0 row b))
    a

let prop_matmul_matches_reference =
  QCheck.Test.make ~name:"FG mat_mul matches OCaml reference (2x2, 3x3)"
    ~count:40
    QCheck.(
      pair (int_range 2 3)
        (pair (list_of_size (QCheck.Gen.return 9) (int_bound 9))
           (list_of_size (QCheck.Gen.return 9) (int_bound 9))))
    (fun (n, (xs, ys)) ->
      let take_matrix vals =
        List.init n (fun i -> List.init n (fun j -> List.nth vals ((i * n) + j)))
      in
      let ma = take_matrix xs and mb = take_matrix ys in
      let body =
        Printf.sprintf "using arith in mat_mul[int](%s, %s)"
          (Matrix_lib.int_matrix ma) (Matrix_lib.int_matrix mb)
      in
      let out =
        Session.run ~file:"prop" (Fresh.session ()) (Matrix_lib.wrap body)
      in
      let expected =
        Interp.FlList
          (List.map
             (fun row -> Interp.FlList (List.map (fun x -> Interp.FlInt x) row))
             (ocaml_mat_mul ma mb))
      in
      Interp.flat_equal out.value expected)

let suite =
  [
    Alcotest.test_case "dot product" `Quick test_dot;
    Alcotest.test_case "vector ops" `Quick test_vec_ops;
    Alcotest.test_case "mat_vec" `Quick test_mat_vec;
    Alcotest.test_case "transpose" `Quick test_transpose;
    Alcotest.test_case "mat_mul (arith)" `Quick test_mat_mul_arith;
    Alcotest.test_case "mat_pow" `Quick test_mat_pow;
    Alcotest.test_case "boolean semiring = reachability" `Quick
      test_boolean_reachability;
    Alcotest.test_case "tropical semiring = shortest paths" `Quick
      test_tropical_shortest_paths;
    Alcotest.test_case "overlap managed by using" `Quick
      test_overlapping_semirings_need_using;
    QCheck_alcotest.to_alcotest prop_matmul_matches_reference;
  ]
