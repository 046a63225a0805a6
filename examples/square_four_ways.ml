(* Paper Figure 1: four approaches to constraining a generic `square`.

   Run with:  dune exec examples/square_four_ways.exe

   The paper's Figure 1 shows square(4) in Java (subtype bounds),
   Haskell (type classes), CLU (structural type sets) and Cforall
   (by-name operation lookup).  We cannot embed four foreign compilers,
   so this example reproduces the figure's comparison with the systems
   built here (DESIGN.md documents the substitution):

   (a/FG)  concepts + models + where clauses — the paper's proposal;
   (b)     Haskell-style type classes — FG under Global resolution,
           where models behave like program-wide unique instances;
   (c)     structural matching — simulated by plain System F
           higher-order parameters (the operation is part of the
           function's structure/signature rather than a named bundle);
   (d)     by-name lookup — the degenerate one-member-concept encoding,
           where the concept plays the role of the operation name. *)

module C = Fg_core
module F = Fg_systemf

let banner s = Fmt.pr "@.=== %s ===@." s

(* (a) FG concepts: the paper's own answer. *)
let fg_concepts =
  {|
concept Number<u> { mult : fn(u, u) -> u; } in
let square = tfun t where Number<t> => fun (x : t) => Number<t>.mult(x, x) in
model Number<int> { mult = imult; } in
square[int](4)
|}

(* (b) Type classes: same program, global-instance resolution.  One
   instance per concept/type program-wide; this program has exactly one
   and is accepted — the difference only shows with overlap. *)
let overlapping =
  {|
concept Number<u> { mult : fn(u, u) -> u; } in
let square = tfun t where Number<t> => fun (x : t) => Number<t>.mult(x, x) in
let a = model Number<int> { mult = imult; } in square[int](4) in
let b = model Number<int> { mult = iadd;  } in square[int](4) in
(a, b)
|}

(* (c) Structural: System F with the operation passed explicitly — the
   constraint is the shape of the parameter list. *)
let structural =
  {|
let square = tfun t => fun (mult : fn(t, t) -> t, x : t) => mult(x, x) in
square[int](imult, 4)
|}

(* (d) By-name: a single-operation concept named after the operation;
   the "overload set" for `mult` at int is the model. *)
let by_name =
  {|
concept Mult<u> { mult : fn(u, u) -> u; } in
model Mult<int> { mult = imult; } in
let square = tfun t where Mult<t> => fun (x : t) => Mult<t>.mult(x, x) in
square[int](4)
|}

let () =
  let lexical = C.Session.of_config C.Session.Config.default in
  let global =
    C.Session.of_config
      C.Session.Config.(with_resolution C.Resolution.Global default)
  in

  banner "(a) FG concepts (the paper's proposal)";
  let out = C.Session.run ~file:"fig1a" lexical fg_concepts in
  Fmt.pr "square(4) = %a@." C.Interp.pp_flat out.value;
  Fmt.pr "translated: %a@." F.Pretty.pp_exp out.f_exp;

  banner "(b) type classes = global-instance resolution";
  Fmt.pr "one instance: %a@." C.Interp.pp_flat
    (C.Session.run ~file:"fig1b" global fg_concepts).value;
  Fmt.pr "with overlapping models in separate scopes:@.";
  Fmt.pr "  lexical (FG)      : %a@." C.Interp.pp_flat
    (C.Session.run ~file:"fig1b2" lexical overlapping).value;
  (match C.Session.run_result ~file:"fig1b3" global overlapping with
  | Error d -> Fmt.pr "  global (Haskell)  : REJECTED — %s@." d.message
  | Ok _ -> Fmt.pr "  global (Haskell)  : unexpectedly accepted?!@.");

  banner "(c) structural matching = higher-order System F";
  let ast = F.Parser.exp_of_string ~file:"fig1c" structural in
  let ty = F.Typecheck.typecheck ast in
  let v = F.Eval.run_value ast in
  Fmt.pr "square(4) = %a : %a@." F.Eval.pp_value v F.Pretty.pp_ty ty;

  banner "(d) by-name operation lookup = one-operation concepts";
  let out = C.Session.run ~file:"fig1d" lexical by_name in
  Fmt.pr "square(4) = %a@." C.Interp.pp_flat out.value;

  Fmt.pr
    "@.All four encodings compute square(4) = 16; they differ in how the@.\
     constraint is expressed and when overlap is rejected — which is the@.\
     point of the paper's Figure 1.@."
