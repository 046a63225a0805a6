(* Lexically scoped, intentionally overlapping models (paper Figure 6,
   Section 3.2) — and the Haskell contrast.

   Run with:  dune exec examples/monoid_scoping.exe

   FG's distinguishing design choice is that model declarations are
   expressions with ordinary lexical scope.  The same concept at the
   same type can have different models in different scopes: here the
   integers form a Monoid under addition-with-0 in one scope and under
   multiplication-with-1 in another, and `accumulate` instantiated in
   each scope picks up the local model — yielding `sum` and `product`
   from one generic function.

   Under Haskell-style global instances the same program is rejected:
   instance declarations "implicitly leak out of a module", so the two
   Monoid-of-int models overlap.  Our checker's Global resolution mode
   reproduces exactly that. *)

module C = Fg_core

let program =
  {|
concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
concept Monoid<t>    { refines Semigroup<t>; identity_elt : t; } in

let accumulate =
  tfun t where Monoid<t> =>
    fix (accum : fn(list t) -> t) =>
      fun (ls : list t) =>
        if null[t](ls) then Monoid<t>.identity_elt
        else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))
in

// Scope 1: integers under addition.
let sum =
  model Semigroup<int> { binary_op = iadd; } in
  model Monoid<int>    { identity_elt = 0; } in
  accumulate[int]
in

// Scope 2: integers under multiplication — overlapping with scope 1,
// legal in FG because the scopes are disjoint.
let product =
  model Semigroup<int> { binary_op = imult; } in
  model Monoid<int>    { identity_elt = 1; } in
  accumulate[int]
in

let ls = cons[int](2, cons[int](3, cons[int](4, nil[int]))) in
(sum(ls), product(ls))
|}

let () =
  Fmt.pr "=== Overlapping models in separate scopes (Figure 6) ===@.@.";

  (* One session per resolution mode; both programs below are
     self-contained, so no prelude is loaded. *)
  let lexical = C.Session.of_config C.Session.Config.default in
  let global =
    C.Session.of_config
      C.Session.Config.(with_resolution C.Resolution.Global default)
  in

  (* FG (lexical) resolution: both models coexist. *)
  let out = C.Session.run ~file:"monoid_scoping" lexical program in
  Fmt.pr "lexical resolution (FG): %a@." C.Interp.pp_flat out.value;
  Fmt.pr "  -- sum [2;3;4] = 9, product [2;3;4] = 24@.@.";

  (* Global (Haskell-style) resolution: rejected. *)
  (match C.Session.run_result ~file:"monoid_scoping" global program with
  | Ok _ -> Fmt.pr "global resolution: unexpectedly accepted?!@."
  | Error d ->
      Fmt.pr "global resolution (Haskell-style): REJECTED@.  %s@.@."
        (Fg_util.Diag.to_string d));

  (* Shadowing: the nearest enclosing model wins. *)
  let shadowing =
    {|
concept Show<t> { render : fn(t) -> int; } in
let show = tfun t where Show<t> => fun (x : t) => Show<t>.render(x) in
model Show<int> { render = fun (x : int) => x; } in
let outer = show[int](7) in
model Show<int> { render = fun (x : int) => 0 - x; } in
let inner = show[int](7) in
(outer, inner)
|}
  in
  let out = C.Session.run ~file:"shadowing" lexical shadowing in
  Fmt.pr "model shadowing: %a@." C.Interp.pp_flat out.value;
  Fmt.pr "  -- the inner Show<int> model shadows the outer one@."
