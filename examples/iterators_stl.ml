(* An STL-flavoured session: generic algorithms over iterators with
   associated types (paper Section 5), using the bundled prelude.

   Run with:  dune exec examples/iterators_stl.exe

   The prelude (Fg_core.Prelude) defines, in FG source:
     - concepts: Eq, Ord, Semigroup, Monoid, Group, Iterator (with
       associated type `elt`), OutputIterator, Container (with
       associated type `iter`);
     - models for int, bool and list int;
     - generic algorithms: accumulate, accumulate_iter, count, contains,
       copy, min_element, equal_ranges, merge, power, sum_container.

   Every algorithm below goes through the full pipeline: type checked,
   translated to System F, theorem-verified, and evaluated both directly
   and via the translation. *)

module C = Fg_core

let section title = Fmt.pr "@.--- %s ---@." title

(* One session for the whole tour: the prelude is checked once here and
   reused by every [show] below. *)
let session =
  C.Session.of_config C.Session.Config.(with_standard_prelude default)

let show name body =
  let out = C.Session.run ~file:name session body in
  Fmt.pr "%-14s %-58s = %a : %a@." name body C.Interp.pp_flat out.value
    C.Pretty.pp_ty out.fg_ty

let l = C.Prelude.int_list

let () =
  Fmt.pr "=== Generic algorithms over iterators (Section 5) ===@.";

  section "Folds over Monoids";
  show "accumulate" (Printf.sprintf "accumulate[int](%s)" (l [ 1; 2; 3; 4 ]));
  show "accum_iter"
    (Printf.sprintf "accumulate_iter[list int](%s)" (l [ 10; 20; 30 ]));
  show "power" "power[int](5, 4)";

  section "Searching (Eq / Ord on the iterator's element type)";
  show "count" (Printf.sprintf "count[list int](%s, 2)" (l [ 2; 1; 2; 3; 2 ]));
  show "contains" (Printf.sprintf "contains[list int](%s, 3)" (l [ 1; 2; 3 ]));
  show "min_element"
    (Printf.sprintf "min_element[list int](cdr[int](%s), car[int](%s))"
       (l [ 5; 1; 4 ]) (l [ 5; 1; 4 ]));

  section "Range algorithms (same-type constraints at work)";
  show "equal_ranges"
    (Printf.sprintf "equal_ranges[list int, list int](%s, %s)" (l [ 1; 2 ])
       (l [ 1; 2 ]));
  show "copy"
    (Printf.sprintf "copy[list int, list int](%s, nil[int])" (l [ 7; 8; 9 ]));
  show "merge"
    (Printf.sprintf "merge[list int, list int, list int](%s, %s, nil[int])"
       (l [ 1; 4; 6 ]) (l [ 2; 3; 5 ]));

  section "Containers (associated iterator type)";
  show "sum_container"
    (Printf.sprintf "sum_container[list int](%s)" (l [ 100; 20; 3 ]));

  (* A user-defined container: reversed lists.  We model Iterator for a
     reversed view by reusing plain lists but starting from a reversed
     copy — all in FG source, no OCaml-side support needed. *)
  section "A user-defined instance at a new type";
  let body =
    {|
// A 'step-by-two' view over list int: skips every other element.
concept Sequence<s> { types item; head : fn(s) -> item; rest : fn(s) -> s; done_ : fn(s) -> bool; } in
model Sequence<list int> {
  types item = int;
  head = fun (ls : list int) => car[int](ls);
  rest = fun (ls : list int) =>
    if null[int](cdr[int](ls)) then cdr[int](ls) else cdr[int](cdr[int](ls));
  done_ = fun (ls : list int) => null[int](ls);
} in
let total =
  tfun s where Sequence<s>, Monoid<Sequence<s>.item> =>
    fix (go : fn(s) -> Sequence<s>.item) =>
      fun (xs : s) =>
        if Sequence<s>.done_(xs) then Monoid<Sequence<s>.item>.identity_elt
        else Monoid<Sequence<s>.item>.binary_op(Sequence<s>.head(xs), go(Sequence<s>.rest(xs)))
in
total[list int](|}
    ^ l [ 1; 10; 2; 20; 3 ]
    ^ ")"
  in
  let out = C.Session.run ~file:"step2" session body in
  Fmt.pr "%-14s sum of every other element of [1;10;2;20;3] = %a@." "step_by_two"
    C.Interp.pp_flat out.value
