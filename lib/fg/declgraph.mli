(** Dependency analysis over declaration spines.

    A program (or prelude, or REPL history) is a spine of declarations
    followed by a body.  {!Unit} treats each declaration as a
    compilation unit; this module computes, for each unit, which
    earlier units its checking can observe — the inputs to the unit's
    content-hash chain.  The analysis is purely syntactic and
    deliberately over-approximate (extra edges only reduce cache reuse;
    a missing edge would be unsound), covering name references, binder
    shadowing, the transitive concept-interest closure that model
    resolution can consult, and — under the Global resolution ablation —
    the order-dependent overlap check across all model declarations.
    {!direct} gives each unit only the edges it needs for the units it
    can observe to be exactly the ones it reaches. *)

open Ast
module Sset := Fg_util.Names.Sset

(** What one declaration contributes and consumes. *)
type info = {
  i_provides : Sset.t;
      (** names the declaration binds for the rest of the spine *)
  i_refs : Sset.t;
      (** every identifier occurring in the declaration (referenced or
          bound — shadowing is observable) *)
  i_concepts : Sset.t;  (** concept names mentioned *)
  i_model_of : Sset.t;
      (** concepts whose model scope this declaration extends directly
          (an unnamed model declaration; [using] is resolved during
          {!build}) *)
  i_named : (string * string) list;
      (** named models declared: name, concept *)
  i_using : string option;  (** named model activated by [using] *)
  i_declares_model : bool;
      (** any model declaration, named or not — these couple under the
          Global ablation's program-wide overlap check *)
}

(** Facts about one declaration node (the body is not examined — it is
    the rest of the spine).  Total: non-declarations yield empty info. *)
val info_of_decl : exp -> info

(** Is this expression a declaration form? *)
val is_decl : exp -> bool

(** [direct ~global infos] — the direct dependency edges of each unit
    of a spine, given the units' facts in spine order; this is the
    graph {!Unit} keys, replays and invalidates units on.
    [deps.(k)] lists, in ascending order, indices [j < k] such that
    the units reachable from [k] are exactly those whose checked
    results [k]'s checking can observe: [k] names only what it
    observes directly, and the Merkle chain of unit keys carries the
    rest.  A dependent chain of [n] bindings gets [n - 1] edges.
    [global] enables the Global ablation's all-models coupling (each
    model declaration depends on the previous one). *)
val direct : global:bool -> info array -> int list array

(** [build ~global infos] — the reference graph: [deps.(k)] lists, in
    ascending order, every index [j < k] whose checked results unit
    [k]'s checking can observe, folding the reference and concept
    closures of its dependencies into its own (n(n-1)/2 edges on a
    dependent chain).  Not on the checking path: it is the oracle
    {!direct}'s reachability is tested against, and the benchmark's
    per-layer declaration-graph timing. *)
val build : global:bool -> info array -> int list array
