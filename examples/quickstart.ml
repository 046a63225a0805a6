(* Quickstart: the library's public API in one tour.

   Run with:  dune exec examples/quickstart.exe

   We write the paper's Figure 5 program (generic [accumulate] over any
   Monoid), type check it, translate it to System F with dictionary
   passing, verify the translation-preserves-typing theorem, and run it
   both with the direct FG interpreter and by evaluating the
   translation. *)

module C = Fg_core
module F = Fg_systemf

let program =
  {|
// A Semigroup is a type with an associative binary operation;
// a Monoid is a Semigroup with an identity element (Section 3.1).
concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
concept Monoid<t>    { refines Semigroup<t>; identity_elt : t; } in

// Figure 5: accumulate works for ANY Monoid.
let accumulate =
  tfun t where Monoid<t> =>
    fix (accum : fn(list t) -> t) =>
      fun (ls : list t) =>
        if null[t](ls) then Monoid<t>.identity_elt
        else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))
in

// int models Monoid with + and 0.
model Semigroup<int> { binary_op = iadd; } in
model Monoid<int>    { identity_elt = 0; } in

accumulate[int](cons[int](1, cons[int](2, cons[int](3, nil[int]))))
|}

let () =
  Fmt.pr "=== Quickstart: generic accumulate (paper Figure 5) ===@.@.";

  (* 1. Parse. *)
  let ast = C.Parser.exp_of_string ~file:"quickstart" program in
  Fmt.pr "parsed %d AST nodes@.@." (C.Ast.exp_size ast);

  (* 2. Type check: the program is well-typed FG. *)
  let fg_ty = C.Check.typecheck ast in
  Fmt.pr "FG type: %a@.@." C.Pretty.pp_ty fg_ty;

  (* 3. Translate to System F: models become dictionary tuples, the
     where clause becomes a dictionary parameter (paper Section 4). *)
  let f = C.Check.translate ast in
  Fmt.pr "System F translation:@.%a@.@." F.Pretty.pp_exp f;

  (* 4. Verify Theorem 1: the translation type checks in System F at
     (the translation of) the same type. *)
  let report = C.Theorems.check_translation ast in
  Fmt.pr "Theorem 1 (translation preserves typing): HOLDS@.";
  Fmt.pr "  System F assigns: %a@.@." F.Pretty.pp_ty report.f_ty;

  (* 5. Run it — twice. *)
  let direct = C.Interp.run_value ast in
  let via_translation = F.Eval.run_value f in
  Fmt.pr "direct FG interpreter : %a@." C.Interp.pp_value direct;
  Fmt.pr "via the translation   : %a@." F.Eval.pp_value via_translation;

  (* 6. Or do all of the above in one call, via a session. *)
  let session = C.Session.of_config C.Session.Config.default in
  let out = C.Session.run ~file:"quickstart" session program in
  Fmt.pr "@.pipeline says: %a : %a (theorem %s)@." C.Interp.pp_flat out.value
    C.Pretty.pp_ty out.fg_ty
    (if out.theorem_holds then "holds" else "VIOLATED")
