(** Big-step call-by-value evaluator for System F, with backpatched
    [fix] and a fuel bound (each beta step spends one unit, so the
    returned step count doubles as a cost measure for the
    dictionary-overhead experiment). *)

open Ast
module Smap := Fg_util.Names.Smap

type value =
  | VInt of int
  | VBool of bool
  | VUnit
  | VTuple of value list
  | VList of value list
  | VClos of env * (string * ty) list * exp
  | VTyClos of env * string list * exp
  | VPrim of string * int * value list
      (** primitive, remaining arity, reversed collected arguments *)

and env = value option ref Smap.t

val default_fuel : int

val value_kind : value -> string
val pp_value : value Fmt.t
val value_to_string : value -> string

(** Structural equality on first-order values; functions compare
    [false]. *)
val value_equal : value -> value -> bool

(** Evaluate a closed program; returns the value and beta-step count. *)
val run : ?fuel:int -> exp -> value * int

val run_value : ?fuel:int -> exp -> value