(** Big-step call-by-value evaluator for System F.

    Environment-based, with backpatching for [fix]: the recursive
    variable is bound to an empty cell while the body (a value form — a
    function, in every program the translation produces) evaluates, and
    the cell is filled with the result.  Forcing the cell before it is
    filled (e.g. [fix (x : int) => x]) is a runtime error, not
    divergence.

    Type abstraction and application are evaluated (not erased): a type
    application forces the body of the type closure, which matches the
    translation's expectation that dictionary abstractions are only
    entered once instantiated.

    A fuel counter bounds the number of beta steps so that the
    property-test drivers can run arbitrary generated programs without
    risking divergence; exhausting fuel raises a diagnostic. *)

open Ast
open Fg_util
module Smap = Names.Smap

type value =
  | VInt of int
  | VBool of bool
  | VUnit
  | VTuple of value list
  | VList of value list
  | VClos of env * (string * ty) list * exp
  | VTyClos of env * string list * exp
  | VPrim of string * int * value list
      (** primitive name, remaining arity, reversed collected args *)

and env = value option ref Smap.t

type state = { mutable fuel : int }

let default_fuel = 10_000_000

let value_kind = function
  | VInt _ -> "int"
  | VBool _ -> "bool"
  | VUnit -> "unit"
  | VTuple _ -> "tuple"
  | VList _ -> "list"
  | VClos _ | VPrim _ -> "function"
  | VTyClos _ -> "type abstraction"

let rec pp_value ppf = function
  | VInt n -> Fmt.int ppf n
  | VBool b -> Fmt.bool ppf b
  | VUnit -> Fmt.string ppf "()"
  | VTuple vs -> Fmt.pf ppf "(@[%a@])" (Pp_util.comma_sep pp_value) vs
  | VList vs -> Fmt.pf ppf "[@[%a@]]" (Pp_util.comma_sep pp_value) vs
  | VClos _ -> Fmt.string ppf "<fun>"
  | VTyClos _ -> Fmt.string ppf "<tyfun>"
  | VPrim (p, _, _) -> Fmt.pf ppf "<prim:%s>" p

let value_to_string v = Pp_util.to_string pp_value v

(** Structural equality on first-order values; functions compare false. *)
let rec value_equal a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VBool x, VBool y -> x = y
  | VUnit, VUnit -> true
  | VTuple xs, VTuple ys | VList xs, VList ys ->
      List.length xs = List.length ys && List.for_all2 value_equal xs ys
  | _ -> false

let spend ?loc st =
  if st.fuel <= 0 then Diag.eval_error ?loc "evaluation fuel exhausted";
  st.fuel <- st.fuel - 1

let bind env x v = Smap.add x (ref (Some v)) env

let lookup ?loc env x =
  match Smap.find_opt x env with
  | Some { contents = Some v } -> v
  | Some { contents = None } ->
      Diag.eval_error ?loc
        "recursive binding '%s' forced before initialization" x
  | None -> Diag.eval_error ?loc "unbound variable '%s' at runtime" x

let int2 ?loc f = function
  | [ VInt a; VInt b ] -> f a b
  | vs ->
      Diag.eval_error ?loc "primitive applied to %s"
        (String.concat ", " (List.map value_kind vs))

let delta ?loc name (args : value list) : value =
  match (name, args) with
  | "iadd", _ -> int2 ?loc (fun a b -> VInt (a + b)) args
  | "isub", _ -> int2 ?loc (fun a b -> VInt (a - b)) args
  | "imult", _ -> int2 ?loc (fun a b -> VInt (a * b)) args
  | "idiv", [ VInt _; VInt 0 ] -> Diag.eval_error ?loc "division by zero"
  | "imod", [ VInt _; VInt 0 ] -> Diag.eval_error ?loc "modulo by zero"
  | "idiv", _ -> int2 ?loc (fun a b -> VInt (a / b)) args
  | "imod", _ -> int2 ?loc (fun a b -> VInt (a mod b)) args
  | "ineg", [ VInt a ] -> VInt (-a)
  | "imin", _ -> int2 ?loc (fun a b -> VInt (min a b)) args
  | "imax", _ -> int2 ?loc (fun a b -> VInt (max a b)) args
  | "ilt", _ -> int2 ?loc (fun a b -> VBool (a < b)) args
  | "ile", _ -> int2 ?loc (fun a b -> VBool (a <= b)) args
  | "igt", _ -> int2 ?loc (fun a b -> VBool (a > b)) args
  | "ige", _ -> int2 ?loc (fun a b -> VBool (a >= b)) args
  | "ieq", _ -> int2 ?loc (fun a b -> VBool (a = b)) args
  | "ineq", _ -> int2 ?loc (fun a b -> VBool (a <> b)) args
  | "band", [ VBool a; VBool b ] -> VBool (a && b)
  | "bor", [ VBool a; VBool b ] -> VBool (a || b)
  | "bnot", [ VBool a ] -> VBool (not a)
  | "beq", [ VBool a; VBool b ] -> VBool (a = b)
  | "cons", [ v; VList vs ] -> VList (v :: vs)
  | "car", [ VList (v :: _) ] -> v
  | "car", [ VList [] ] -> Diag.eval_error ?loc "car of empty list"
  | "cdr", [ VList (_ :: vs) ] -> VList vs
  | "cdr", [ VList [] ] -> Diag.eval_error ?loc "cdr of empty list"
  | "null", [ VList vs ] -> VBool (vs = [])
  | "length", [ VList vs ] -> VInt (List.length vs)
  | "append", [ VList xs; VList ys ] -> VList (xs @ ys)
  | _, _ ->
      Diag.eval_error ?loc "primitive '%s' applied to invalid arguments (%s)"
        name
        (String.concat ", " (List.map value_kind args))

let prim_value ?loc name =
  let info = Prims.lookup_exn ?loc name in
  if name = "nil" then VList [] else VPrim (name, info.arity, [])

let rec apply_value ?loc st fn args =
  match (fn, args) with
  | _, [] -> fn
  | VClos (cenv, params, body), _ ->
      let n = List.length params in
      if List.length args < n then
        Diag.eval_error ?loc
          "function expecting %d argument(s) applied to only %d" n
          (List.length args)
      else begin
        spend ?loc st;
        let now = List.filteri (fun i _ -> i < n) args in
        let rest = List.filteri (fun i _ -> i >= n) args in
        let env' =
          List.fold_left2 (fun acc (x, _) v -> bind acc x v) cenv params now
        in
        apply_value ?loc st (eval st env' body) rest
      end
  | VPrim (name, remaining, collected), _ ->
      let n = List.length args in
      if n < remaining then VPrim (name, remaining - n, List.rev args @ collected)
      else if n = remaining then begin
        spend ?loc st;
        delta ?loc name (List.rev collected @ args)
      end
      else
        Diag.eval_error ?loc "primitive '%s' applied to too many arguments" name
  | v, _ ->
      Diag.eval_error ?loc "application of non-function value (%s)"
        (value_kind v)

and eval (st : state) (env : env) (e : exp) : value =
  let loc = e.loc in
  match e.desc with
  | Var x -> lookup ~loc env x
  | Lit (LInt n) -> VInt n
  | Lit (LBool b) -> VBool b
  | Lit LUnit -> VUnit
  | Prim p -> prim_value ~loc p
  | Abs (params, body) -> VClos (env, params, body)
  | TyAbs (tvs, body) -> VTyClos (env, tvs, body)
  | TyApp (f, _tys) -> (
      match eval st env f with
      | VTyClos (cenv, _, body) ->
          spend ~loc st;
          eval st cenv body
      | VPrim _ as p -> p (* polymorphic primitive: types are erased *)
      | VList [] as v -> v (* nil[t] *)
      | v ->
          Diag.eval_error ~loc "type application of non-polymorphic value (%s)"
            (value_kind v))
  | App (f, args) ->
      let vf = eval st env f in
      let vargs = List.map (eval st env) args in
      apply_value ~loc st vf vargs
  | Let (x, rhs, body) ->
      let v = eval st env rhs in
      eval st (bind env x v) body
  | Tuple es -> VTuple (List.map (eval st env) es)
  | Nth (e0, k) -> (
      match eval st env e0 with
      | VTuple vs when k >= 0 && k < List.length vs -> List.nth vs k
      | VTuple vs ->
          Diag.eval_error ~loc "projection %d out of bounds for %d-tuple" k
            (List.length vs)
      | v -> Diag.eval_error ~loc "nth of non-tuple value (%s)" (value_kind v))
  | Fix (x, _, body) ->
      spend ~loc st;
      let cell = ref None in
      let env' = Smap.add x cell env in
      let v = eval st env' body in
      cell := Some v;
      v
  | If (c, t, f) -> (
      match eval st env c with
      | VBool true -> eval st env t
      | VBool false -> eval st env f
      | v ->
          Diag.eval_error ~loc "if condition evaluated to non-bool (%s)"
            (value_kind v))

(** Evaluate a closed program. *)
let run ?(fuel = default_fuel) e =
  let st = { fuel } in
  let v = eval st Smap.empty e in
  (v, fuel - st.fuel)

let run_value ?fuel e = fst (run ?fuel e)
