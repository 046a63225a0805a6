(** Dependency analysis over declaration spines (see the interface).

    The scheme is deliberately over-approximate: every identifier
    occurring anywhere in a declaration — referenced names and binder
    names alike — counts as a reference, and the reference/concept sets
    of a unit's dependencies are folded into its own.  Extra edges only
    cost cache reuse; a missed edge would let {!Unit} replay a stale
    unit, so every place the checker can observe the enclosing scope
    must be covered:

    - name lookups (term variables, concepts, named models, aliases)
      are syntactic occurrences, including the ones a model inherits
      from its concept's default member bodies (hence the transitive
      reference closure);
    - binder names are included because shadowing is itself observable
      (FG0205 rejects a binder that shadows an in-scope type variable,
      FG0701 warns on model shadowing);
    - model resolution consults every model of a concept in scope, so a
      unit depends on every earlier unit contributing a model of any
      concept in its transitive concept-interest closure;
    - the Global ablation's overlap check is order-dependent across all
      models, so under it every model-declaring unit depends on every
      earlier one.

    {!build} spells these rules out as transitive dependency sets; it
    is the reference.  Units are keyed on {!direct}, which keeps only
    the edges a unit observes directly and reaches exactly the same
    units (DESIGN.md S19 has the argument). *)

open Fg_util
open Ast
module Sset = Names.Sset

type info = {
  i_provides : Sset.t;
  i_refs : Sset.t;
  i_concepts : Sset.t;
  i_model_of : Sset.t;
  i_named : (string * string) list;
  i_using : string option;
  i_declares_model : bool;
}

(* ---------------------------------------------------------------- *)
(* Name collection                                                    *)

type acc = { refs : Sset.t; cons : Sset.t }

let empty_acc = { refs = Sset.empty; cons = Sset.empty }
let add_ref a x = { a with refs = Sset.add x a.refs }

(* Binder names under foralls: shadowing an in-scope alias is an
   FG0205 error, so the binder's name is an observation of scope. *)
let rec binders_of_ty = function
  | TBase _ | TVar _ -> Sset.empty
  | TArrow (args, ret) ->
      List.fold_left
        (fun acc t -> Sset.union acc (binders_of_ty t))
        (binders_of_ty ret) args
  | TTuple ts | TAssoc (_, ts, _) ->
      List.fold_left
        (fun acc t -> Sset.union acc (binders_of_ty t))
        Sset.empty ts
  | TList t -> binders_of_ty t
  | TForall (tvs, constrs, body) ->
      let inner =
        List.fold_left
          (fun acc c -> Sset.union acc (binders_of_constr c))
          (binders_of_ty body) constrs
      in
      Sset.union (Sset.of_list tvs) inner

and binders_of_constr = function
  | CModel (_, args) ->
      List.fold_left
        (fun acc t -> Sset.union acc (binders_of_ty t))
        Sset.empty args
  | CSame (a, b) -> Sset.union (binders_of_ty a) (binders_of_ty b)

let add_ty a t =
  let cs = concept_names t in
  {
    refs =
      Sset.union
        (Sset.union (ftv t) (binders_of_ty t))
        (Sset.union cs a.refs);
    cons = Sset.union cs a.cons;
  }

let add_constr a c =
  let cs = constr_concept_names c in
  {
    refs =
      Sset.union (ftv_constr c)
        (Sset.union (binders_of_constr c) (Sset.union cs a.refs));
    cons = Sset.union cs a.cons;
  }

let rec add_exp a (e : exp) =
  match e.desc with
  | Var x -> add_ref a x
  | Lit _ | Prim _ -> a
  | App (f, args) -> List.fold_left add_exp (add_exp a f) args
  | Abs (params, body) ->
      add_exp (List.fold_left (fun a (_, t) -> add_ty a t) a params) body
  | TyAbs (tvs, constrs, body) ->
      let a = { a with refs = Sset.union (Sset.of_list tvs) a.refs } in
      add_exp (List.fold_left add_constr a constrs) body
  | TyApp (f, tys) -> List.fold_left add_ty (add_exp a f) tys
  | Let (x, rhs, body) -> add_exp (add_exp (add_ref a x) rhs) body
  | Tuple es -> List.fold_left add_exp a es
  | Nth (e0, _) -> add_exp a e0
  | Fix (x, t, body) -> add_exp (add_ty (add_ref a x) t) body
  | If (c, t, f) -> add_exp (add_exp (add_exp a c) t) f
  | Member (c, args, _) ->
      let a = { refs = Sset.add c a.refs; cons = Sset.add c a.cons } in
      List.fold_left add_ty a args
  | ConceptDecl (d, body) -> add_exp (add_concept a d) body
  | ModelDecl (d, body) -> add_exp (add_model a d) body
  | Using (m, body) -> add_exp (add_ref a m) body
  | TypeAlias (t, ty, body) -> add_exp (add_ty (add_ref a t) ty) body

and add_concept a (d : concept_decl) =
  let a =
    {
      a with
      refs =
        Sset.union
          (Sset.of_list (d.c_params @ d.c_assoc))
          (Sset.add d.c_name a.refs);
    }
  in
  let add_capp a (c, tys) =
    let a = { refs = Sset.add c a.refs; cons = Sset.add c a.cons } in
    List.fold_left add_ty a tys
  in
  let a = List.fold_left add_capp a d.c_refines in
  let a = List.fold_left add_capp a d.c_requires in
  let a = List.fold_left (fun a (_, t) -> add_ty a t) a d.c_members in
  let a = List.fold_left (fun a (_, e) -> add_exp a e) a d.c_defaults in
  List.fold_left (fun a (x, y) -> add_ty (add_ty a x) y) a d.c_same

and add_model a (d : model_decl) =
  let a =
    {
      refs = Sset.union (Sset.of_list d.m_params) (Sset.add d.m_concept a.refs);
      cons = Sset.add d.m_concept a.cons;
    }
  in
  let a = List.fold_left add_constr a d.m_constrs in
  let a = List.fold_left add_ty a d.m_args in
  let a = List.fold_left (fun a (_, t) -> add_ty a t) a d.m_assoc in
  List.fold_left (fun a (_, e) -> add_exp a e) a d.m_members

(* ---------------------------------------------------------------- *)
(* Per-declaration facts                                              *)

let info_of_decl (e : exp) : info =
  let base =
    {
      i_provides = Sset.empty;
      i_refs = Sset.empty;
      i_concepts = Sset.empty;
      i_model_of = Sset.empty;
      i_named = [];
      i_using = None;
      i_declares_model = false;
    }
  in
  let finish provides a extra =
    {
      extra with
      i_provides = provides;
      i_refs = a.refs;
      i_concepts = a.cons;
    }
  in
  match e.desc with
  | Let (x, rhs, _) ->
      finish (Sset.singleton x) (add_exp (add_ref empty_acc x) rhs) base
  | ConceptDecl (d, _) ->
      finish (Sset.singleton d.c_name) (add_concept empty_acc d) base
  | ModelDecl (d, _) ->
      let a = add_model empty_acc d in
      let provides, named, model_of =
        match d.m_name with
        | Some m -> (Sset.singleton m, [ (m, d.m_concept) ], Sset.empty)
        | None -> (Sset.empty, [], Sset.singleton d.m_concept)
      in
      finish provides
        (match d.m_name with Some m -> add_ref a m | None -> a)
        { base with i_named = named; i_model_of = model_of;
          i_declares_model = true }
  | Using (m, _) ->
      finish Sset.empty (add_ref empty_acc m) { base with i_using = Some m }
  | TypeAlias (t, ty, _) ->
      finish (Sset.singleton t) (add_ty (add_ref empty_acc t) ty) base
  | _ -> base

let is_decl (e : exp) =
  match e.desc with
  | Let _ | ConceptDecl _ | ModelDecl _ | Using _ | TypeAlias _ -> true
  | _ -> false

(* ---------------------------------------------------------------- *)
(* The graph                                                          *)

let build ~global (infos : info array) : int list array =
  let n = Array.length infos in
  let deps = Array.make n [] in
  let refstar = Array.make n Sset.empty in
  let closed = Array.make n Sset.empty in
  let eff_model_of = Array.make n Sset.empty in
  let providers : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let named_concept : (string, string) Hashtbl.t = Hashtbl.create 16 in
  (* Earlier units that contribute a model to scope, newest first. *)
  let model_units = ref [] in
  for k = 0 to n - 1 do
    let info = infos.(k) in
    let mo =
      match info.i_using with
      | Some m -> (
          match Hashtbl.find_opt named_concept m with
          | Some c -> Sset.add c info.i_model_of
          | None -> info.i_model_of)
      | None -> info.i_model_of
    in
    eff_model_of.(k) <- mo;
    (* Indexed by earlier unit: [d.(j)] when [j] is a dependency,
       [covered.(j)] when [j]'s closures are already in [r] and [c]. *)
    let d = Array.make k false and covered = Array.make k false in
    let r = ref info.i_refs in
    let c = ref info.i_concepts in
    let changed = ref true in
    let add j =
      if not d.(j) then begin
        d.(j) <- true;
        changed := true
      end
    in
    if global && info.i_declares_model then
      List.iter
        (fun j -> if infos.(j).i_declares_model then add j)
        !model_units;
    while !changed do
      changed := false;
      (* latest provider of every accumulated reference *)
      Sset.iter
        (fun nm -> Option.iter add (Hashtbl.find_opt providers nm))
        !r;
      (* fold dependency closures into our own, newest first: a unit's
         closures already contain those of its own dependencies, so
         folding it covers them too and they need no subset check *)
      for j = k - 1 downto 0 do
        if d.(j) && not covered.(j) then begin
          covered.(j) <- true;
          List.iter (fun i -> covered.(i) <- true) deps.(j);
          if not (Sset.subset refstar.(j) !r) then begin
            r := Sset.union refstar.(j) !r;
            changed := true
          end;
          if not (Sset.subset closed.(j) !c) then begin
            c := Sset.union closed.(j) !c;
            changed := true
          end
        end
      done;
      (* every earlier model of an interesting concept is consultable *)
      List.iter
        (fun j -> if not (Sset.disjoint eff_model_of.(j) !c) then add j)
        !model_units
    done;
    refstar.(k) <- !r;
    closed.(k) <- !c;
    let ds = ref [] in
    for j = k - 1 downto 0 do
      if d.(j) then ds := j :: !ds
    done;
    deps.(k) <- !ds;
    Sset.iter (fun nm -> Hashtbl.replace providers nm k) info.i_provides;
    List.iter (fun (m, c) -> Hashtbl.replace named_concept m c) info.i_named;
    if info.i_declares_model || not (Sset.is_empty mo) then
      model_units := k :: !model_units
  done;
  deps

(* ---------------------------------------------------------------- *)
(* The direct graph                                                   *)

(* Where each name is first referenced, and the names some unit
   references before a later unit provides them: the only names whose
   provider can differ between a unit and a later unit that reaches
   it. *)
let first_refs_and_moved (infos : info array) =
  let first_ref = Hashtbl.create 64 and last_provider = Hashtbl.create 64 in
  Array.iteri
    (fun k info ->
      Sset.iter
        (fun x ->
          if not (Hashtbl.mem first_ref x) then Hashtbl.add first_ref x k)
        info.i_refs;
      Sset.iter (fun x -> Hashtbl.replace last_provider x k) info.i_provides)
    infos;
  let moved =
    Hashtbl.fold
      (fun x p s ->
        match Hashtbl.find_opt first_ref x with
        | Some r when r < p -> Sset.add x s
        | _ -> s)
      last_provider Sset.empty
  in
  (first_ref, moved)

let direct ~global (infos : info array) : int list array =
  let n = Array.length infos in
  let first_ref, moved = first_refs_and_moved infos in
  let deps = Array.make n [] in
  (* [interest.(k)]: the concepts mentioned by [k] or anything it
     reaches; [moves.(k)]: the moved names they reference *)
  let interest = Array.make n Sset.empty in
  let moves = Array.make n Sset.empty in
  (* [mark.(j) = k] once [j] is a dependency of [k] *)
  let mark = Array.make n (-1) in
  let providers : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let named_concept : (string, string) Hashtbl.t = Hashtbl.create 16 in
  (* Per concept, the latest unit extending its model scope.  That
     unit is itself interested in the concept (an unnamed model
     mentions it; a [using] reaches the named model through the
     bindings of its name, each of which references the one it
     shadows), so it depends on the previous one: they form a chain. *)
  let latest_model : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let last_model = ref None in
  for k = 0 to n - 1 do
    let info = infos.(k) in
    let mo =
      match info.i_using with
      | Some m -> (
          match Hashtbl.find_opt named_concept m with
          | Some c -> Sset.add c info.i_model_of
          | None -> info.i_model_of)
      | None -> info.i_model_of
    in
    let ds = ref [] and work = ref [] in
    let add j =
      if mark.(j) <> k then begin
        mark.(j) <- k;
        ds := j :: !ds;
        work := j :: !work
      end
    in
    let c = ref Sset.empty and m = ref Sset.empty in
    let see_concepts cs =
      Sset.iter
        (fun cn ->
          if not (Sset.mem cn !c) then begin
            c := Sset.add cn !c;
            Option.iter add (Hashtbl.find_opt latest_model cn)
          end)
        cs
    in
    (* [moved] is spine-wide, so it can name a unit re-providing [x]
       after [k]; only a provider before [k] that follows [x]'s first
       reference adds an edge, which keeps [k]'s edges (and so its
       key) a function of the units up to [k] *)
    let see_moved xs =
      Sset.iter
        (fun x ->
          if not (Sset.mem x !m) then begin
            m := Sset.add x !m;
            match Hashtbl.find_opt providers x with
            | Some p when p > Hashtbl.find first_ref x -> add p
            | _ -> ()
          end)
        xs
    in
    Sset.iter
      (fun x -> Option.iter add (Hashtbl.find_opt providers x))
      info.i_refs;
    if global && info.i_declares_model then Option.iter add !last_model;
    see_concepts info.i_concepts;
    see_moved (Sset.filter (fun x -> Sset.mem x moved) info.i_refs);
    let rec drain () =
      match !work with
      | [] -> ()
      | j :: rest ->
          work := rest;
          see_concepts interest.(j);
          see_moved moves.(j);
          drain ()
    in
    drain ();
    interest.(k) <- !c;
    moves.(k) <- !m;
    deps.(k) <- List.sort Int.compare !ds;
    Sset.iter (fun nm -> Hashtbl.replace providers nm k) info.i_provides;
    List.iter (fun (m, c) -> Hashtbl.replace named_concept m c) info.i_named;
    Sset.iter (fun cn -> Hashtbl.replace latest_model cn k) mo;
    if info.i_declares_model then last_model := Some k
  done;
  deps
