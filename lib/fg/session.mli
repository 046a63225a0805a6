(** The session-based compiler driver: an amortizing, observable,
    concurrent front door over the FG pipeline.

    A {!t} owns everything that one-shot driving rebuilt per program:

    - a {b compilation-unit cache} ({!Unit}): every declaration spine —
      the prelude's, each program's, each {!extend} — is split into
      content-hashed units, each checked at most once per (content,
      dependency chain) and replayed from the cache everywhere else.
      The prelude is checked {e once} at {!of_config}; re-checking an
      edited program re-checks only the declarations whose content or
      dependencies changed;
    - a {b hash-consed type table} ({!Hashcons}): each program's AST is
      interned on parse, so the pointer fast path in {!Ast.ty_equal}
      fires for every repeated type;
    - a {b memoized model-resolution cache} (in {!Env}): lookups are
      keyed on (concept, argument types, scope generation), so the
      prelude-scope resolutions one program performs are free for the
      next;
    - {b telemetry} ({!Fg_util.Telemetry}): per-phase wall time and
      cache counters, reported by [fgc --stats].

    Programs checked through a session are bit-for-bit identical to
    standalone runs: the fresh-name supply is rewound to its
    post-prelude position before each program, so output never depends
    on how many programs the session has already served.

    A session is single-domain; {!run_batch} verifies N programs across
    OCaml 5 domains by giving each domain its own session built from
    the same configuration, with deterministic, order-stable output. *)

open Fg_util
module F := Fg_systemf

type t

(** Everything that parameterizes a session, in one structurally
    comparable record: servers key worker sessions on a [Config.t],
    batch domains rebuild sessions from one, and every driver entry
    point ([fgc], the REPL, the fuzzer, tests) goes through
    {!of_config}.  Build one with {!Config.default} and the [with_*]
    narrowers. *)
module Config : sig
  type t = {
    backend : Backend.t;  (** translation backend (default {!Backend.Dict}) *)
    resolution : Resolution.mode;
    escape_check : bool;
    prelude : string option;
        (** a declaration stack in concrete syntax (each declaration
            ending in [in], as {!Prelude.full} is written) *)
    unit_cache_capacity : int option;
        (** bound for a private unit cache; [None] =
            {!Unit.default_capacity} *)
    cache_dir : string option;
        (** root of a persistent on-disk unit store ({!Diskcache})
            attached behind the session's private unit cache; [None]
            (the default) keeps the cache memory-only.  Ignored when a
            shared [cache] is passed to {!of_config} — whoever owns the
            shared cache owns its tiers. *)
    cache_max_bytes : int option;
        (** size bound for the disk store; oldest-accessed entries are
            evicted past it.  [None] = unbounded. *)
    profile : Profile.t option;
        (** the workload profile consulted by the {!Backend.Guided}
            backend (hot instantiations get stenciled, everything else
            keeps dictionary passing).  Ignored by other backends.
            Plain data, so configs stay structurally comparable —
            servers key worker sessions on them. *)
  }

  val default : t

  val with_backend : Backend.t -> t -> t
  val with_resolution : Resolution.mode -> t -> t
  val with_escape_check : bool -> t -> t
  val with_prelude : string option -> t -> t

  (** The standard prelude ({!Prelude.full}). *)
  val with_standard_prelude : t -> t

  val with_unit_cache_capacity : int option -> t -> t
  val with_cache_dir : string option -> t -> t
  val with_cache_max_bytes : int option -> t -> t
  val with_profile : Profile.t option -> t -> t

  (** The configuration a driver request denotes: the standard prelude
      or none, global or lexical resolution, and a backend.  [profile]
      is kept only for {!Backend.Guided}, the one backend that consults
      it, so configs that behave alike compare equal. *)
  val make :
    ?profile:Profile.t -> prelude:bool -> global_models:bool -> Backend.t -> t
end

(** What the specializing backends add to an outcome: the partially
    evaluated program, its cost, and the specializer's counters.  The
    session has already enforced the oracle by the time this record
    exists: the specialized program re-typechecks in System F at a
    type alpha-equal to the translation's ([FG0502] otherwise) and
    evaluates to the same flat value as the direct interpreter
    ([FG0503] otherwise). *)
type spec = {
  spec_exp : F.Ast.exp;  (** the specialized System F program *)
  spec_steps : int;  (** beta steps evaluating it *)
  spec_stats : F.Specialize.stats;
}

(** Everything the full pipeline produces for one program. *)
type outcome = {
  source : string;
  ast : Ast.exp;
  fg_ty : Ast.ty;  (** the program's FG type *)
  f_exp : F.Ast.exp;  (** its System F translation *)
  f_ty : F.Ast.ty;  (** the System F type of the translation *)
  theorem_holds : bool;
      (** [τ'] alpha-equal to the translation of [τ] — always true when
          this record exists, since a mismatch raises; recorded for
          reporting *)
  value : Interp.flat;  (** the program's value (first-order part) *)
  direct_steps : int;  (** beta steps taken by the direct interpreter *)
  translated_steps : int;  (** beta steps evaluating the translation *)
  backend : Backend.t;  (** the backend this outcome ran under *)
  spec : spec option;  (** [Some] iff [backend] is not {!Backend.Dict} *)
}

(** [of_config cfg] — a new session.  The prelude (if any) is parsed
    and checked here, once, through the session's compilation-unit
    cache.  [cache] shares an existing unit cache (e.g. one per server
    worker) instead of creating a private one — it is a separate
    argument, not part of {!Config.t}, precisely so configs stay
    structurally comparable.  Raises {!Diag.Error} if the prelude
    itself is ill-formed. *)
val of_config : ?cache:Unit.cache -> Config.t -> t

(** The session's configuration (its creation-time [Config.t]). *)
val config : t -> Config.t

(** [memo cache] — a session lookup over one shared unit cache: the
    first call with a config builds its session ({!of_config}
    [~cache]), later calls with an equal config return that session
    warm.  Not synchronized; a server worker or a workspace owns one
    and serializes its calls. *)
val memo : Unit.cache -> Config.t -> t

val backend : t -> Backend.t

(** [extend t decls] — a session whose scope additionally contains
    [decls] (a declaration stack), checked incrementally on top of
    [t]'s environment; [t] itself is unchanged.  This is how the REPL
    accumulates declarations without re-checking its history. *)
val extend : t -> string -> t

val extend_result : t -> string -> (t, Diag.diagnostic) result

(** {1 Per-program operations}

    All of these parse their argument, check it under the session
    environment, and raise {!Diag.Error} on failure. *)

(** Full pipeline: check, translate, verify the theorem, evaluate both
    semantics and require agreement. *)
val run : ?file:string -> ?fuel:int -> t -> string -> outcome

val run_result :
  ?file:string -> ?fuel:int -> t -> string ->
  (outcome, Diag.diagnostic) result

(** Result of a recovering run: the outcome when the whole pipeline
    succeeded, plus every diagnostic — errors and warnings, in report
    order — collected along the way. *)
type run_report = {
  outcome : outcome option;  (** [Some] iff no errors were recorded *)
  diagnostics : Diag.diagnostic list;
}

(** Full pipeline with multi-error recovery: the lexer skips bad
    characters, the parser synchronizes at declaration keywords, and
    the checker poisons failed declarations instead of aborting, so one
    invocation reports every independent error (cascades from poisoned
    bindings are suppressed).  Warnings are collected even on
    success. *)
val run_full : ?file:string -> ?fuel:int -> t -> string -> run_report

(** {!run_full} plus the raw material a workspace language service
    needs: the program's recovering parse, the walked declaration log
    (pairing every program declaration with its unit pkey and
    hit/checked/failed outcome) and the position-index entries
    ({!Check.index_entry}) recorded while checking.  The report is
    computed by the same code path as {!run_full}, so its rendered
    diagnostics are byte-identical to a plain run of the same
    source. *)
type indexed_run = {
  ix_report : run_report;
  ix_ast : Ast.exp;  (** the recovering parse of the source *)
  ix_decls : (Ast.exp * string * Unit.decl_outcome) list;
  ix_entries : Check.index_entry list;  (** in recording order *)
}

val run_indexed : ?file:string -> ?fuel:int -> t -> string -> indexed_run

(** Type check only; returns the program's FG type. *)
val typecheck : ?file:string -> t -> string -> Ast.ty

(** Translate only; returns the whole-program System F term (prelude
    dictionaries included). *)
val translate : ?file:string -> t -> string -> F.Ast.exp

(** Elaborate only: (type, elaborated program, translation). *)
val elaborate : ?file:string -> t -> string -> Ast.ty * Ast.exp * F.Ast.exp

(** Theorem check (Theorems 1/2) without evaluation. *)
val verify : ?file:string -> t -> string -> Theorems.report

(** {1 Parallel batch verification} *)

(** The default domain count: the runtime's recommendation, at least 1. *)
val default_domains : unit -> int

(** [run_batch ~domains t jobs] — run every [(name, source)] job
    through the full pipeline, fanned out over [domains] OCaml domains
    (default {!default_domains}).  The calling session serves one
    domain; every other domain builds its own session from the same
    configuration, so no mutable checker state crosses domains.
    Results come back in job order and are identical for every choice
    of [domains] (each program's fresh names are rewound
    per-program). *)
val run_batch :
  ?domains:int -> ?fuel:int -> t -> (string * string) list ->
  (string * (outcome, Diag.diagnostic) result) list

(** {1 Observability} *)

(** Telemetry accumulated process-wide since this session was created
    (includes work done by batch domains the session spawned). *)
val stats : t -> Telemetry.snapshot

(** Distinct hash-consed types interned by this session. *)
val interned_types : t -> int

(** Entries in the session environment's model-resolution cache and
    concept-instantiation memo.  Both are pruned between programs to
    what the post-prelude scope itself recorded. *)
val checker_memo_sizes : t -> int * int

(** Unit-cache counters: hits, misses, evictions, invalidations, size. *)
val cache_stats : t -> Unit.stats
