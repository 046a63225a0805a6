(* The benchmark's inputs and the reference oracle they are checked
   against.  Every expected value here comes from the generator's own
   parameters (or, for the corpus, from the hand-written expectation in
   Corpus.entry), never from running the compiler. *)

open Fg_core
module Json = Fg_util.Json

type expect = Value of Interp.flat | Fails of Fg_util.Diag.phase

(* ------------------------------------------------------------------ *)
(* Dependent let chain                                                 *)

(* [let x0 = base in let x1 = x0 + d1 in ... x(n-1)]: every binding
   uses the previous one, so the declaration graph's transitive
   dependency sets hold n(n-1)/2 edges. *)
type chain = { base : int; incs : int array  (** d1 .. d(n-1), one digit each *) }

let chain_decls c = Array.length c.incs + 1

let random_chain st n =
  {
    base = Random.State.int st 1000;
    incs = Array.init (n - 1) (fun _ -> 1 + Random.State.int st 9);
  }

let chain_value c = c.base + Array.fold_left ( + ) 0 c.incs

(* The source text and the byte offsets of each declaration and, per
   declaration i >= 1, of its increment digit and of its reference to
   x(i-1). *)
type layout = {
  l_source : string;
  l_digit : int array;  (** index i-1: offset of d_i *)
  l_ref : int array;  (** index i-1: offset of the "x(i-1)" reference *)
  l_decl : int array;  (** index i: offset of declaration i's "let" *)
}

let chain_layout c =
  let n = chain_decls c in
  let b = Buffer.create (n * 24) in
  let decl = Array.make n 0 in
  let digit = Array.make (n - 1) 0 and rf = Array.make (n - 1) 0 in
  Printf.bprintf b "let x0 = %d in\n" c.base;
  for i = 1 to n - 1 do
    decl.(i) <- Buffer.length b;
    Printf.bprintf b "let x%d = " i;
    rf.(i - 1) <- Buffer.length b;
    Printf.bprintf b "x%d + " (i - 1);
    digit.(i - 1) <- Buffer.length b;
    Printf.bprintf b "%d in\n" c.incs.(i - 1)
  done;
  Printf.bprintf b "x%d" (n - 1);
  { l_source = Buffer.contents b; l_digit = digit; l_ref = rf; l_decl = decl }

let chain_source c = (chain_layout c).l_source

(* ------------------------------------------------------------------ *)
(* Zipf variants (the loadgen zipf stream's programs)                   *)

let zipf_distinct = 640
let zipf_depth = 20

(* Shared Eq2 concept/models plus one variant-unique declaration that
   resolves equality at list^20 int through the parameterized model. *)
let zipf_source i =
  let rec ty k = if k = 0 then "int" else "list (" ^ ty (k - 1) ^ ")" in
  let t = ty zipf_depth in
  let nil = Printf.sprintf "nil[%s]" (ty (zipf_depth - 1)) in
  Printf.sprintf
    "concept Eq2<t> { eq : fn(t, t) -> bool; } in\n\
     model Eq2<int> { eq = ieq; } in\n\
     model <t> where Eq2<t> => Eq2<list t> {\n\
    \  eq = fix (go : fn(list t, list t) -> bool) =>\n\
    \    fun (a : list t, b : list t) =>\n\
    \      if null[t](a) then null[t](b)\n\
    \      else if null[t](b) then false\n\
    \      else Eq2<t>.eq(car[t](a), car[t](b)) && go(cdr[t](a), cdr[t](b));\n\
     } in\n\
     let veq_%d = fun (a : %s, b : %s) => Eq2<%s>.eq(a, b) in\n\
     veq_%d(%s, %s)"
    i t t t i nil nil

(* 60% Zipf(1) over the variants, 40% a cyclic sweep of all of them. *)
let zipf_stream st =
  let n = zipf_distinct in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  let sweep = ref (Random.State.int st n) in
  fun () ->
    if Random.State.float st 1. < 0.6 then begin
      let u = Random.State.float st !acc in
      let rec go lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cdf.(mid) < u then go (mid + 1) hi else go lo mid
      in
      go 0 (n - 1)
    end
    else begin
      let r = !sweep in
      sweep := (r + 1) mod n;
      r
    end

(* ------------------------------------------------------------------ *)
(* compile_scale programs                                              *)

type prog = {
  family : string;
  n : int;
  backend : Backend.t;
  source : string;
  expect : expect;
}

(* Size ladders (geometric, ratio 2 or its square root) reaching a few
   hundred milliseconds per program; the largest chain is the n=500
   point the declaration-graph blow-up is quoted at.  param_depth stops
   below resolution's depth fuse of 64. *)
let ladders : (string * int list) list =
  [
    ("let_chain_dep", [ 62; 125; 250; 500 ]);
    ("many_models", [ 50; 100; 200; 400; 800 ]);
    ("same_type_chain", [ 35; 50; 71; 100; 141; 200; 283; 400; 566 ]);
    ("param_depth", [ 8; 11; 16; 23; 32; 45 ]);
    ("refinement_diamond", [ 3; 4; 5; 6; 7; 8; 9; 10; 11 ]);
    ("instantiation_fanout", [ 4; 6; 8; 11; 16; 23 ]);
  ]

let families = List.map fst ladders

let scale_programs st =
  List.concat_map
    (fun (family, sizes) ->
      List.concat_map
        (fun n ->
          let fixed backend source v =
            [ { family; n; backend; source; expect = Value v } ]
          in
          match family with
          | "let_chain_dep" ->
              let c = random_chain st n in
              fixed Backend.Dict (chain_source c)
                (Interp.FlInt (chain_value c))
          | "many_models" ->
              (* f[int](0) returns M0<int>.get0 = 0 *)
              fixed Backend.Dict (Genprog.many_models n) (Interp.FlInt 0)
          | "same_type_chain" ->
              (* f[int,...](7) + 1 *)
              fixed Backend.Dict (Genprog.same_type_chain n) (Interp.FlInt 8)
          | "param_depth" ->
              (* Eq<list^n int>.eq(nil, nil) *)
              fixed Backend.Dict (Genprog.param_depth n) (Interp.FlBool true)
          | "refinement_diamond" ->
              (* f[int](0) returns D(n-1)a<int>.v0a = 1 *)
              fixed Backend.Dict (Genprog.refinement_diamond n)
                (Interp.FlInt 1)
          | _ ->
              (* Size<int>.size(0) = 1 once per repetition (3); every
                 list argument is nil, of size 0. *)
              List.map
                (fun backend ->
                  {
                    family;
                    n;
                    backend;
                    source = Genprog.instantiation_fanout n;
                    expect = Value (Interp.FlInt 3);
                  })
                Backend.all)
        sizes)
    ladders

(* ------------------------------------------------------------------ *)
(* Checking a payload against its reference                             *)

let rec flat_of_json (j : Json.t) : Interp.flat option =
  let all l =
    List.fold_right
      (fun x acc ->
        match (flat_of_json x, acc) with
        | Some v, Some vs -> Some (v :: vs)
        | _ -> None)
      l (Some [])
  in
  match j with
  | Json.Int i -> Some (Interp.FlInt i)
  | Json.Bool b -> Some (Interp.FlBool b)
  | Json.Null -> Some Interp.FlUnit
  | Json.Str "<fun>" -> Some Interp.FlFun
  | Json.List l -> Option.map (fun vs -> Interp.FlList vs) (all l)
  | Json.Obj [ ("tuple", Json.List l) ] ->
      Option.map (fun vs -> Interp.FlTuple vs) (all l)
  | _ -> None

let first_error_phase payload_json =
  match Json.mem "diagnostics" payload_json with
  | Some (Json.List ds) ->
      List.find_map
        (fun d ->
          if Json.str_field "severity" d = Some "error" then
            Json.str_field "phase" d
          else None)
        ds
  | _ -> None

(* Does a [run] payload (the [fgc run --format=json] document) match
   the reference? *)
let check_run expect payload =
  match Json.of_string payload with
  | Error _ -> false
  | Ok j -> (
      match (expect, Json.bool_field "ok" j) with
      | Value v, Some true -> (
          match Option.bind (Json.mem "value" j) flat_of_json with
          | Some got -> got = v
          | None -> false)
      | Fails phase, Some false ->
          first_error_phase j = Some (Fg_util.Diag.phase_name phase)
      | _ -> false)

let expect_of_corpus (e : Corpus.entry) =
  match e.Corpus.expected with
  | Corpus.Value v -> Value v
  | Corpus.Fails p -> Fails p
