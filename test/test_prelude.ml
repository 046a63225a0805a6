(* Tests for the FG-level standard library: every algorithm exercised
   on concrete data, through the full pipeline (so each run also
   re-verifies the theorem and the interpreter/translation agreement). *)

open Fg_core

let l = Prelude.int_list

let check body expected =
  match
    Session.run_result ~file:"prelude" (Fresh.session ()) (Prelude.wrap body)
  with
  | Ok out ->
      Alcotest.(check string) body expected (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "%s: %s" body (Fg_util.Diag.to_string d)

let test_accumulate () =
  check (Printf.sprintf "accumulate[int](%s)" (l [ 1; 2; 3; 4 ])) "10";
  check (Printf.sprintf "accumulate[int](%s)" (l [])) "0";
  check (Printf.sprintf "accumulate[int](%s)" (l [ 42 ])) "42"

let test_accumulate_iter () =
  check (Printf.sprintf "accumulate_iter[list int](%s)" (l [ 5; 6 ])) "11";
  check (Printf.sprintf "accumulate_iter[list int](%s)" (l [])) "0"

let test_count () =
  check (Printf.sprintf "count[list int](%s, 2)" (l [ 2; 1; 2; 3; 2 ])) "3";
  check (Printf.sprintf "count[list int](%s, 9)" (l [ 1; 2 ])) "0";
  check (Printf.sprintf "count[list int](%s, 1)" (l [])) "0"

let test_contains () =
  check (Printf.sprintf "contains[list int](%s, 3)" (l [ 1; 2; 3 ])) "true";
  check (Printf.sprintf "contains[list int](%s, 4)" (l [ 1; 2; 3 ])) "false";
  check (Printf.sprintf "contains[list int](%s, 1)" (l [])) "false"

let test_copy () =
  check
    (Printf.sprintf "copy[list int, list int](%s, nil[int])" (l [ 4; 5 ]))
    "[4, 5]";
  check (Printf.sprintf "copy[list int, list int](%s, nil[int])" (l [])) "[]";
  (* copy appends to a non-empty output range *)
  check
    (Printf.sprintf "copy[list int, list int](%s, %s)" (l [ 3 ]) (l [ 1; 2 ]))
    "[1, 2, 3]"

let test_min_element () =
  check
    (Printf.sprintf "min_element[list int](cdr[int](%s), car[int](%s))"
       (l [ 3; 1; 2 ]) (l [ 3; 1; 2 ]))
    "1";
  check
    (Printf.sprintf "min_element[list int](cdr[int](%s), car[int](%s))"
       (l [ 7 ]) (l [ 7 ]))
    "7"

let test_equal_ranges () =
  check
    (Printf.sprintf "equal_ranges[list int, list int](%s, %s)" (l [ 1; 2 ])
       (l [ 1; 2 ]))
    "true";
  check
    (Printf.sprintf "equal_ranges[list int, list int](%s, %s)" (l [ 1; 2 ])
       (l [ 1; 3 ]))
    "false";
  check
    (Printf.sprintf "equal_ranges[list int, list int](%s, %s)" (l [ 1 ])
       (l [ 1; 2 ]))
    "false";
  check
    (Printf.sprintf "equal_ranges[list int, list int](%s, %s)" (l []) (l []))
    "true"

let test_merge () =
  check
    (Printf.sprintf "merge[list int, list int, list int](%s, %s, nil[int])"
       (l [ 1; 3; 5 ]) (l [ 2; 4; 6 ]))
    "[1, 2, 3, 4, 5, 6]";
  check
    (Printf.sprintf "merge[list int, list int, list int](%s, %s, nil[int])"
       (l []) (l [ 1 ]))
    "[1]";
  check
    (Printf.sprintf "merge[list int, list int, list int](%s, %s, nil[int])"
       (l [ 1; 1 ]) (l [ 1 ]))
    "[1, 1, 1]"

let test_power () =
  (* under the additive monoid, power is repeated addition *)
  check "power[int](5, 3)" "15";
  check "power[int](5, 0)" "0"

let test_sum_container () =
  check (Printf.sprintf "sum_container[list int](%s)" (l [ 7; 8; 9 ])) "24"

let test_multiplicative_override () =
  (* locally override the monoid: product instead of sum *)
  check
    ({|model Semigroup<int> { binary_op = imult; } in
model Monoid<int> { identity_elt = 1; } in
accumulate[int](|}
    ^ l [ 2; 3; 4 ] ^ ")")
    "24"

let test_group_member_via_refinement () =
  check "Group<int>.inverse(Monoid<int>.identity_elt + 5)" "-5";
  (* Group refines Monoid refines Semigroup: all members reachable *)
  check "Group<int>.binary_op(Group<int>.identity_elt, 3)" "3"

let test_insertion_sort () =
  check (Printf.sprintf "insertion_sort(%s)" (l [ 3; 1; 2 ])) "[1, 2, 3]";
  check (Printf.sprintf "insertion_sort(%s)" (l [])) "[]";
  check (Printf.sprintf "insertion_sort(%s)" (l [ 5 ])) "[5]";
  check (Printf.sprintf "insertion_sort(%s)" (l [ 2; 2; 1; 2 ])) "[1, 2, 2, 2]";
  (* lexicographic sort of lists of lists, via the parameterized Ord *)
  check
    (Printf.sprintf
       "insertion_sort[list int](cons[list int](%s, cons[list int](%s, \
        cons[list int](%s, nil[list int]))))"
       (l [ 2 ]) (l [ 1; 5 ]) (l [ 1 ]))
    "[[1], [1, 5], [2]]"

let test_is_sorted () =
  check (Printf.sprintf "is_sorted(%s)" (l [ 1; 2; 2; 3 ])) "true";
  check (Printf.sprintf "is_sorted(%s)" (l [ 2; 1 ])) "false";
  check (Printf.sprintf "is_sorted(%s)" (l [])) "true";
  (* sorting establishes sortedness *)
  check (Printf.sprintf "is_sorted(insertion_sort(%s))" (l [ 9; 1; 4; 4; 0 ]))
    "true"

let test_reverse_take_drop () =
  check (Printf.sprintf "reverse(%s)" (l [ 1; 2; 3 ])) "[3, 2, 1]";
  check (Printf.sprintf "reverse(%s)" (l [])) "[]";
  check (Printf.sprintf "take(2, %s)" (l [ 1; 2; 3 ])) "[1, 2]";
  check (Printf.sprintf "take(9, %s)" (l [ 1 ])) "[1]";
  check (Printf.sprintf "take(0, %s)" (l [ 1 ])) "[]";
  check (Printf.sprintf "drop(2, %s)" (l [ 1; 2; 3 ])) "[3]";
  check (Printf.sprintf "drop(0, %s)" (l [ 1 ])) "[1]";
  check (Printf.sprintf "drop(9, %s)" (l [ 1 ])) "[]";
  check
    (Printf.sprintf "append[int](take(1, %s), drop(1, %s))" (l [ 7; 8 ])
       (l [ 7; 8 ]))
    "[7, 8]"

let test_filter_map () =
  check (Printf.sprintf "filter(fun (x : int) => x > 1, %s)" (l [ 1; 2; 3 ]))
    "[2, 3]";
  check (Printf.sprintf "filter(fun (x : int) => false, %s)" (l [ 1 ])) "[]";
  check (Printf.sprintf "map_list(fun (x : int) => x * 10, %s)" (l [ 1; 2 ]))
    "[10, 20]";
  check
    (Printf.sprintf "map_list[int, bool](fun (x : int) => x == 2, %s)"
       (l [ 1; 2 ]))
    "[false, true]"

let test_unique_adjacent () =
  check (Printf.sprintf "unique_adjacent(%s)" (l [ 1; 1; 2; 2; 2; 3 ]))
    "[1, 2, 3]";
  check (Printf.sprintf "unique_adjacent(%s)" (l [])) "[]";
  (* sort + unique = set *)
  check
    (Printf.sprintf "unique_adjacent(insertion_sort(%s))" (l [ 3; 1; 3; 1 ]))
    "[1, 3]"

let test_max_element () =
  check (Printf.sprintf "max_element(%s, 0)" (l [ 3; 9; 2 ])) "9";
  check (Printf.sprintf "max_element(%s, 100)" (l [ 3; 9; 2 ])) "100"

let test_prelude_typechecks_in_global_mode () =
  (* the prelude declares each model exactly once: Global mode accepts *)
  match
    Session.run_result (Fresh.session ~resolution:Resolution.Global ())
      (Prelude.wrap "accumulate[int](nil[int])")
  with
  | Ok out ->
      Alcotest.(check string) "global ok" "0" (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "global mode: %s" (Fg_util.Diag.to_string d)

let prop_sort_matches_ocaml =
  QCheck.Test.make ~name:"insertion_sort matches List.sort" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_bound 8) (int_bound 50))
    (fun xs ->
      let body = Printf.sprintf "insertion_sort(%s)" (Prelude.int_list xs) in
      let out =
        Session.run ~file:"prop" (Fresh.session ()) (Prelude.wrap body)
      in
      Interp.flat_equal out.value
        (Interp.FlList
           (List.map (fun n -> Interp.FlInt n) (List.sort compare xs))))

let prop_merge_matches_ocaml =
  QCheck.Test.make ~name:"merge matches List.merge on sorted inputs" ~count:40
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_bound 6) (int_bound 20))
        (list_of_size (QCheck.Gen.int_bound 6) (int_bound 20)))
    (fun (xs, ys) ->
      let xs = List.sort compare xs and ys = List.sort compare ys in
      let body =
        Printf.sprintf "merge(%s, %s, nil[int])" (Prelude.int_list xs)
          (Prelude.int_list ys)
      in
      let out =
        Session.run ~file:"prop" (Fresh.session ()) (Prelude.wrap body)
      in
      Interp.flat_equal out.value
        (Interp.FlList
           (List.map (fun n -> Interp.FlInt n)
              (List.merge compare xs ys))))

let suite =
  [
    Alcotest.test_case "accumulate" `Quick test_accumulate;
    Alcotest.test_case "accumulate_iter" `Quick test_accumulate_iter;
    Alcotest.test_case "count" `Quick test_count;
    Alcotest.test_case "contains" `Quick test_contains;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "min_element" `Quick test_min_element;
    Alcotest.test_case "equal_ranges" `Quick test_equal_ranges;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "power" `Quick test_power;
    Alcotest.test_case "sum_container" `Quick test_sum_container;
    Alcotest.test_case "local monoid override" `Quick
      test_multiplicative_override;
    Alcotest.test_case "Group member via refinement" `Quick
      test_group_member_via_refinement;
    Alcotest.test_case "insertion_sort" `Quick test_insertion_sort;
    Alcotest.test_case "is_sorted" `Quick test_is_sorted;
    Alcotest.test_case "reverse/take/drop" `Quick test_reverse_take_drop;
    Alcotest.test_case "filter/map" `Quick test_filter_map;
    Alcotest.test_case "unique_adjacent" `Quick test_unique_adjacent;
    Alcotest.test_case "max_element" `Quick test_max_element;
    Alcotest.test_case "prelude in global mode" `Quick
      test_prelude_typechecks_in_global_mode;
    QCheck_alcotest.to_alcotest prop_sort_matches_ocaml;
    QCheck_alcotest.to_alcotest prop_merge_matches_ocaml;
  ]
