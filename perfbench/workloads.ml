(* The four workloads, their end-to-end run and their traced run.

   Every workload is a closed loop: one process, one connection (or one
   one-shot child at a time), each caller waiting for its reply, all on
   one CPU (main.ml pins it).  Its operations come in rounds generated
   from the seed; a run measures whole rounds for --seconds, so every
   run sees the same mix (on the pool workloads in five stretches, each
   on a fresh daemon).  Each reply is checked against the reference in
   Progs.  Every end-to-end time is scaled to a calibrated host speed
   (Calib), measured between operations as the run goes.

   The traced run replays the same operations in-process with a span
   around each call into a layer's public functions, and diffs the
   program's own Telemetry counters around each operation.  It also
   repeats a shorter daemon (or one-shot) phase for the layers that
   only exist across a process boundary: the wire codec, the pool and
   the transport. *)

open Fg_core
module P = Fg_server.Protocol
module Json = Fg_util.Json
module T = Fg_util.Telemetry
module F = Fg_systemf

type ctx = {
  fgc : string;  (** the built fgc executable *)
  dir : string;  (** scratch directory for sockets, logs, programs, traces *)
  seed : int;
  seconds : float;
}

type report = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;  (** human-readable context, printed on stderr *)
}

(* The in-flight window of every daemon workload (Loop sends one
   request at a time): one client that waits for each reply before
   sending the next request, like an editor or a build tool.  Two
   requests in flight make serve_zipf fail intermittently with FG0901:
   Equality.empty's lazily built congruence closure is one mutable value
   shared by every worker domain, and two workers checking at once
   corrupt it (see perfbench/README.md). *)
let window = 1

(* Reads take a tenth of a millisecond, so one scheduler wake-up
   decides whether a single read lands in the tail.  A read operation is
   therefore a batch of queries sent one after another, and its sample
   is the batch's time per query; the read tail is p90 of those samples
   on every workload. *)
let read_tail_p = 90
let read_batch = 16

(* Repetitions of set-up per run; setup_s reports their median.  A
   set-up takes a tenth to a fifth of a second; with five, the median
   of edit_long's set-ups still spread by 0.23 between runs. *)
let setup_reps = 11

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

type query = Hover | Definition | Completion

type action =
  | Compile of {
      source : string;
      prelude : bool;
      backend : Backend.t;
      expect : Progs.expect;
    }
  | Open of { source : string; value : int }
  | Edit of {
      version : int;
      offset : int;
      digit : string;
      source : string;  (** the whole document after the edit *)
      value : int;
    }
  | Close
  | Query of { kind : query; offset : int; expect : Json.t -> bool }

(* [file] names the program (Compile) or the document (the rest).  A
   write is one action; a read is a batch of them. *)
type op = { file : string; cls : Loop.cls; actions : action list }

let single file cls action = { file; cls; actions = [ action ] }

let query_name = function
  | Hover -> "hover"
  | Definition -> "definition"
  | Completion -> "completion"

(* A seeded query on declaration [i] of a dependent chain document:
   hover and definition on its reference to x(i-1) (of type int,
   defined by declaration i-1), completion on the prefix "x" plus the
   reference's first digit (every earlier binding with that prefix). *)
let chain_query st (l : Progs.layout) i =
  let at = l.Progs.l_ref.(i - 1) in
  let name = Printf.sprintf "x%d" (i - 1) in
  let found j = Json.bool_field "found" j = Some true in
  match Random.State.int st 3 with
  | 0 ->
      Query
        {
          kind = Hover;
          offset = at + 1;
          expect = (fun j -> found j && Json.str_field "type" j = Some "int");
        }
  | 1 ->
      let target = l.Progs.l_decl.(i - 1) in
      let start_offset j =
        Option.bind (Json.mem "range" j) (fun r ->
            Option.bind (Json.mem "start" r) (Json.int_field "offset"))
      in
      Query
        {
          kind = Definition;
          offset = at + 1;
          expect =
            (fun j ->
              found j
              && Json.str_field "name" j = Some name
              && start_offset j = Some target);
        }
  | _ ->
      let prefix = String.sub name 0 2 in
      let want =
        List.filter
          (fun s -> String.length s >= 2 && String.sub s 0 2 = prefix)
          (List.init (i - 1 + 1) (Printf.sprintf "x%d"))
        |> List.sort compare
      in
      let labels j =
        match Json.mem "items" j with
        | Some (Json.List items) ->
            Some (List.filter_map (Json.str_field "label") items)
        | _ -> None
      in
      Query
        { kind = Completion; offset = at + 2; expect = (fun j -> labels j = Some want) }

(* A batch of [read_batch] seeded queries on declarations drawn
   uniformly from a chain document. *)
let read_batch_op st (c, l) ~file =
  {
    file;
    cls = Loop.Read;
    actions =
      List.init read_batch (fun _ ->
          chain_query st l (1 + Random.State.int st (Progs.chain_decls c - 1)));
  }

(* The request an action sends to the daemon. *)
let request op action ~id =
  match action with
  | Compile { source; prelude; backend; _ } ->
      P.request ~id ~file:op.file ~source ~prelude ~backend P.Run
  | Open { source; _ } ->
      P.request ~id ~file:op.file ~source ~doc_version:1 P.DocOpen
  | Edit { version; offset; digit; _ } ->
      P.request ~id ~file:op.file ~doc_version:version
        ~edits:[ (offset, 1, digit) ]
        P.DocChange
  | Close -> P.request ~id ~file:op.file P.DocClose
  | Query { kind; offset; _ } ->
      P.request ~id ~file:op.file ~offset
        (match kind with
        | Hover -> P.Hover
        | Definition -> P.Definition
        | Completion -> P.Completion)

(* Does a payload match the action's reference? *)
let check_payload action payload =
  match action with
  | Compile { expect; _ } -> Progs.check_run expect payload
  | Open { value; _ } | Edit { value; _ } ->
      Progs.check_run (Progs.Value (Interp.FlInt value)) payload
  | Close -> (
      match Json.of_string payload with
      | Ok j -> Json.bool_field "closed" j = Some true
      | Error _ -> false)
  | Query { expect; _ } -> (
      match Json.of_string payload with Ok j -> expect j | Error _ -> false)

let check_response action (r : P.response) =
  (* a failing program is a [Failed] reply carrying its diagnostics *)
  (r.P.r_status = P.Ok_ || r.P.r_status = P.Failed)
  && check_payload action r.P.r_payload

let loop_op op =
  {
    Loop.key = op.file;
    cls = op.cls;
    parts =
      List.map
        (fun a -> { Loop.make = (fun id -> request op a ~id); check = check_response a })
        op.actions;
  }

(* ------------------------------------------------------------------ *)
(* Workload rounds                                                     *)

(* The document every daemon workload's reads query. *)
let reads_doc_file = "reads.fg"

let reads_doc seed =
  let c = Progs.random_chain (Random.State.make [| seed; 0x7ead |]) 125 in
  (c, Progs.chain_layout c)

let open_reads_doc seed =
  let c, l = reads_doc seed in
  single reads_doc_file Loop.Other
    (Open { source = l.Progs.l_source; value = Progs.chain_value c })

(* A read batch after every [every] compile requests. *)
let with_reads st doc ~every compiles =
  List.concat
    (List.mapi
       (fun k op ->
         if k mod every = every - 1 then
           [ op; read_batch_op st doc ~file:reads_doc_file ]
         else [ op ])
       compiles)

let round_size = 64

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a


(* Every corpus entry but one: neg_param_diverging spends ~80 ms in
   resolution's 64-level depth fuse on every request (a failed check is
   never cached), 150 times a cached entry, so with it serve_corpus
   would measure that search instead of the cached path.  It runs in
   compile_scale instead. *)
let fuse_entry = "neg_param_diverging"

let served_corpus =
  List.filter (fun (e : Corpus.entry) -> e.Corpus.name <> fuse_entry) Corpus.all

let corpus_op cls (e : Corpus.entry) =
  single (e.Corpus.name ^ ".fg") cls
    (Compile
       {
         source = e.Corpus.source;
         prelude = false;
         backend = Backend.Dict;
         expect = Progs.expect_of_corpus e;
       })

(* Each round serves every entry twice, in a seeded order, so every
   round has the same mix; a read batch every 16 runs gives the read
   tail about a thousand samples a run. *)
let serve_corpus_round st doc =
  with_reads st doc ~every:16
    (shuffle st (List.map (corpus_op Loop.Write) (served_corpus @ served_corpus)))

let zipf_op i =
  single (Printf.sprintf "zipf_%d.fg" i) Loop.Write
    (Compile
       {
         source = Progs.zipf_source i;
         prelude = false;
         backend = Backend.Dict;
         expect = Progs.Value (Interp.FlBool true);
       })

let serve_zipf_round st pick doc =
  with_reads st doc ~every:2 (List.init round_size (fun _ -> zipf_op (pick ())))

(* compile_scale: every program once, in a seeded order, every second
   one followed by a batch of one-shot probes (one-literal programs: the
   fixed cost every one-shot invocation pays). *)
let probe_batch = 16
let probe_file = "probe.fg"

let probe_op st =
  {
    file = probe_file;
    cls = Loop.Read;
    actions =
      List.init probe_batch (fun _ ->
          let k = Random.State.int st 1_000_000 in
          Compile
            {
              source = string_of_int k;
              prelude = false;
              backend = Backend.Dict;
              expect = Progs.Value (Interp.FlInt k);
            });
  }

let scale_file (p : Progs.prog) =
  Printf.sprintf "%s_%d_%s.fg" p.Progs.family p.Progs.n
    (Backend.to_string p.Progs.backend)

let scale_op (p : Progs.prog) =
  single (scale_file p) Loop.Write
    (Compile
       {
         source = p.Progs.source;
         prelude = false;
         backend = p.Progs.backend;
         expect = p.Progs.expect;
       })

let compile_scale_round st progs =
  let fuse = corpus_op Loop.Write (Corpus.find fuse_entry) in
  List.concat
    (List.mapi
       (fun k op -> if k mod 2 = 1 then [ op; probe_op st ] else [ op ])
       (shuffle st (fuse :: List.map scale_op progs)))

(* edit_long: per round one editor session on each document length, in
   a seeded order: open, then edits of one digit, each followed by
   read batches, then close.  An edit re-checks its declaration and every
   later one, so its cost depends on where it lands: edits are spread
   one per equal slice of the document (seeded within the slice, in
   seeded order), so every session covers the document alike. *)
let edit_sizes = [ 60; 125; 250 ]
let edits_per_session = 16

(* Read batches after each edit: two give the read tail about five
   hundred samples a run. *)
let reads_per_edit = 2

(* [count] declaration indices in [1, n-1], one per equal slice. *)
let strata st ~count n =
  shuffle st
    (List.init count (fun k ->
         let lo = 1 + (k * (n - 1) / count) and hi = 1 + ((k + 1) * (n - 1) / count) in
         lo + Random.State.int st (max 1 (hi - lo))))

let edit_session st ~file n =
  let c = Progs.random_chain st n in
  let l = Progs.chain_layout c in
  let text = Bytes.of_string l.Progs.l_source in
  let incs = Array.copy c.Progs.incs in
  let opened =
    single file Loop.Other (Open { source = l.Progs.l_source; value = Progs.chain_value c })
  in
  let edits =
    List.mapi
      (fun k i ->
        let d = 1 + ((incs.(i - 1) + Random.State.int st 8) mod 9) in
        incs.(i - 1) <- d;
        let offset = l.Progs.l_digit.(i - 1) in
        Bytes.set text offset (Char.chr (Char.code '0' + d));
        let edit =
          single file Loop.Write
            (Edit
               {
                 version = k + 2;
                 offset;
                 digit = string_of_int d;
                 source = Bytes.to_string text;
                 value = Progs.chain_value { c with Progs.incs = incs };
               })
        in
        edit :: List.init reads_per_edit (fun _ -> read_batch_op st (c, l) ~file))
      (strata st ~count:edits_per_session n)
  in
  (opened :: List.concat edits) @ [ single file Loop.Other Close ]

let edit_long_round st r =
  List.concat_map
    (fun n -> edit_session st ~file:(Printf.sprintf "doc_%d_%d.fg" r n) n)
    (shuffle st edit_sizes)

(* ------------------------------------------------------------------ *)
(* Workload descriptions                                               *)

(* How a workload reaches the compiler: compile requests through the
   daemon's worker pool, editor requests served by the daemon's
   connection thread, or one process per program. *)
type kind = Pool | Editor | One_shot

type workload = {
  name : string;
  kind : kind;
  tail_p : int;
      (** the percentile write latency tails are reported at, fixed per
          workload: the highest of 90 and 99 with well over ten samples
          beyond it in a stretch of the usual length *)
  stretches : int;
      (** measured stretches per run, each on a fresh daemon *)
  rounds : int -> int -> op list;
      (** [rounds seed] — a fresh round generator for one pass over the
          workload; round [r] of it *)
  warm : int -> op list;  (** warm-up before measuring, by seed *)
  warm_all_workers : bool;
      (** repeat the warm-up's compile requests until every worker's
          unit cache holds all of them *)
}

let rng seed tag = Random.State.make [| seed; tag |]

let serve_corpus =
  {
    name = "serve_corpus";
    kind = Pool;
    tail_p = 99;
    stretches = 5;
    rounds =
      (fun seed ->
        let st = rng seed 1 and doc = reads_doc seed in
        fun _ -> serve_corpus_round st doc);
    warm =
      (fun seed -> open_reads_doc seed :: List.map (corpus_op Loop.Other) served_corpus);
    warm_all_workers = true;
  }

let serve_zipf =
  {
    name = "serve_zipf";
    kind = Pool;
    tail_p = 90;
    stretches = 5;
    rounds =
      (fun seed ->
        let st = rng seed 2 and doc = reads_doc seed in
        let pick = Progs.zipf_stream st in
        fun _ -> serve_zipf_round st pick doc);
    (* the shared concept and models only: warming the hottest variants
       would lift the hit share towards one half, where the median of
       the two latency modes (hits near 5 ms, misses near 19 ms) flips *)
    warm = (fun seed -> [ open_reads_doc seed; zipf_op 0 ]);
    warm_all_workers = false;
  }

let compile_scale =
  {
    name = "compile_scale";
    kind = One_shot;
    tail_p = 90;
    stretches = 1;
    rounds =
      (fun seed ->
        let st = rng seed 3 in
        let progs = Progs.scale_programs st in
        fun _ -> compile_scale_round st progs);
    (* the smallest program of each family, so the binary and its
       shared libraries are paged in *)
    warm =
      (fun seed ->
        let st = rng seed 3 in
        List.filter_map
          (fun (p : Progs.prog) ->
            if p.Progs.n = List.hd (List.assoc p.Progs.family Progs.ladders)
               && p.Progs.backend = Backend.Dict
            then Some { (scale_op p) with cls = Loop.Other }
            else None)
          (Progs.scale_programs st));
    warm_all_workers = false;
  }

let edit_long =
  {
    name = "edit_long";
    kind = Editor;
    tail_p = 90;
    stretches = 1;
    rounds =
      (fun seed ->
        let st = rng seed 5 in
        edit_long_round st);
    warm =
      (fun seed ->
        let st = rng seed 6 in
        edit_session st ~file:"warm.fg" 30);
    warm_all_workers = false;
  }

let all = [ serve_corpus; serve_zipf; compile_scale; edit_long ]

(* ------------------------------------------------------------------ *)
(* Running operations for real                                         *)

(* Whole rounds until [seconds] have passed and [enough ()] holds; a
   stretch that has not got enough samples after three times [seconds]
   (and at least 30 s) fails the run. *)
let take_rounds ?(enough = fun () -> true) next ~seconds f =
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let first = ref true in
  while !first || elapsed () < seconds || not (enough ()) do
    if elapsed () > Float.max 30. (3. *. seconds) then
      failwith "perfbench: too few samples for the workload's tail percentile";
    f (next ());
    first := false
  done;
  elapsed ()

(* The workload's rounds for [seed], one after another. *)
let round_source w seed =
  let rounds = w.rounds seed and r = ref 0 in
  fun () ->
    let ops = rounds !r in
    incr r;
    ops

type live = {
  daemon : Proc.daemon option;
  conn : Loop.conn option;
  mutable rss_kb : int;  (** peak one-shot child RSS (compile_scale) *)
  mutable warm_passes : int;  (** warm-up passes until the caches settled *)
}

(* Run one operation as one-shot processes, one per action. *)
let one_shot ctx live op =
  let run action =
    match action with
    | Compile { source; backend; _ } ->
        let args =
          if op.file = probe_file then [ "-e"; source ]
          else [ Filename.concat ctx.dir op.file ]
        in
        let r =
          Proc.run_one_shot ctx.fgc
            ([ "run"; "--format=json"; "--backend=" ^ Backend.to_string backend ]
            @ args)
        in
        live.rss_kb <- max live.rss_kb r.Proc.maxrss_kb;
        let payload = String.trim r.Proc.stdout in
        let ok =
          (r.Proc.exit_code = 0 || r.Proc.exit_code = 1) && check_payload action payload
        in
        (r.Proc.wall_ns, if ok then "" else Printf.sprintf "exit %d %s" r.Proc.exit_code payload)
    | _ -> invalid_arg "one_shot: not a program"
  in
  let t0 = Spans.now_ns () in
  let runs = List.map run op.actions in
  let t1 = Spans.now_ns () in
  let bad = List.filter (( <> ) "") (List.map snd runs) in
  let n = List.length runs in
  {
    Loop.s_key = op.file;
    s_cls = op.cls;
    s_ms = float_of_int (List.fold_left (fun a (ns, _) -> a + ns) 0 runs) /. 1e6 /. float_of_int n;
    s_n = n;
    s_bad = List.length bad;
    s_reply = (match bad with [] -> "" | r :: _ -> r);
    s_t0 = t0;
    s_t1 = t1;
  }

let run_ops ?tr live ctx ops =
  match live.conn with
  | Some c -> Loop.run { c with Loop.tr } (List.map loop_op ops)
  | None -> { Loop.samples = List.map (one_shot ctx live) ops; retries = 0 }

let write_program_files ctx w seed =
  match w.kind with
  | Pool | Editor -> ()
  | One_shot ->
      List.iter
        (fun op ->
          match op.actions with
          | [ Compile { source; _ } ] when op.file <> probe_file ->
              let oc = open_out (Filename.concat ctx.dir op.file) in
              output_string oc source;
              close_out oc
          | _ -> ())
        (w.rounds seed 0 @ w.warm seed)

let daemon_stats live =
  match live.conn with
  | None -> None
  | Some c -> (
      match Json.of_string (Loop.call c (P.request ~id:(Loop.fresh_id ()) P.Stats)).P.r_payload with
      | Ok j -> Some j
      | Error _ -> None)

let unit_cache live = Option.bind (daemon_stats live) (Json.mem "unit_cache")

(* The size of each worker's unit cache, from the daemon's stats. *)
let worker_cache_sizes live =
  match Option.bind (unit_cache live) (Json.mem "workers") with
  | Some (Json.List ws) -> List.filter_map (Json.int_field "size") ws
  | _ -> []

(* The daemon's unit-cache totals, for the stretch's line on stderr. *)
let cache_totals live =
  match Option.bind (unit_cache live) (Json.mem "totals") with
  | Some t ->
      let f k = Option.value ~default:0 (Json.int_field k t) in
      Printf.sprintf "unit_cache hits=%d misses=%d evictions=%d" (f "hits") (f "misses")
        (f "evictions")
  | None -> "no unit cache"

(* Repeat the warm-up's compile requests until a whole pass leaves
   every worker's unit cache the same size as before and all workers
   hold the same number of units: every worker has checked every
   cacheable unit, so measured requests hit whichever worker takes
   them.  A daemon that does not settle fails the run. *)
let max_warm_passes = 64

let warm_all_workers live ctx ops =
  let compiles = List.filter (fun op -> op.file <> reads_doc_file) ops in
  let rec pass k prev acc =
    if k > max_warm_passes then
      failwith
        (Printf.sprintf "perfbench: worker unit caches did not settle in %d warm-up passes"
           max_warm_passes);
    let r = run_ops live ctx compiles in
    let sizes = worker_cache_sizes live in
    let acc = acc @ r.Loop.samples in
    match sizes with
    | s :: rest when sizes = prev && List.for_all (( = ) s) rest && s > 0 -> (acc, k)
    | _ -> pass (k + 1) sizes acc
  in
  pass 1 (worker_cache_sizes live) []

(* Set up once: inputs, daemon, warm-up.  Returns the live state and
   the warm-up's replies. *)
let setup ctx w =
  write_program_files ctx w ctx.seed;
  match w.kind with
  | One_shot ->
      let live = { daemon = None; conn = None; rss_kb = 0; warm_passes = 1 } in
      let r = run_ops live ctx (w.warm ctx.seed) in
      (live, r)
  | Pool | Editor ->
      let socket = Filename.concat ctx.dir (w.name ^ ".sock") in
      let d =
        Proc.start_daemon ~fgc:ctx.fgc ~socket
          ~log:(Filename.concat ctx.dir (w.name ^ ".log"))
      in
      let c = Loop.conn (Proc.connect socket) in
      let live = { daemon = Some d; conn = Some c; rss_kb = 0; warm_passes = 1 } in
      let warm = run_ops live ctx (w.warm ctx.seed) in
      if not w.warm_all_workers then (live, warm)
      else
        let more, passes = warm_all_workers live ctx (w.warm ctx.seed) in
        live.warm_passes <- 1 + passes;
        (live, { warm with Loop.samples = warm.Loop.samples @ more })

let teardown live =
  Option.iter (fun (c : Loop.conn) -> Unix.close c.Loop.fd) live.conn;
  Option.iter Proc.stop_daemon live.daemon

let attempts samples = List.fold_left (fun n s -> n + s.Loop.s_n) 0 samples
let failures samples = List.fold_left (fun n s -> n + s.Loop.s_bad) 0 samples

(* The distinct inputs whose replies did not match their reference,
   each with its first wrong reply. *)
let failing samples =
  List.filter_map
    (fun (key, replies) ->
      match List.filter (( <> ) "") replies with
      | [] -> None
      | r :: _ ->
          Some
            (Printf.sprintf "MISMATCH %s (%d times): %s" key
               (List.length (List.filter (( <> ) "") replies))
               (if String.length r > 300 then String.sub r 0 300 else r)))
    (Stats.group (List.map (fun s -> (s.Loop.s_key, s.Loop.s_reply)) samples))

let of_cls cls samples = List.filter (fun s -> s.Loop.s_cls = cls) samples

let keyed samples = List.map (fun s -> (s.Loop.s_key, s.Loop.s_ms)) samples

(* ------------------------------------------------------------------ *)
(* The end-to-end run                                                  *)

(* One measured stretch of whole rounds on a fresh set-up. *)
type stretch = {
  warm_samples : Loop.sample list;
  samples : Loop.sample list;  (** measured replies *)
  rates : float list;  (** per round: successful writes per second *)
  rss_kb : int;
  note : string;
}

(* A sample with its time scaled to the calibrated host speed. *)
let calibrated (s : Loop.sample) =
  { s with Loop.s_ms = s.Loop.s_ms *. Calib.scale ~t0:s.Loop.s_t0 ~t1:s.Loop.s_t1 }

(* Successful writes per second of the round's operation time. *)
let round_rate round =
  let ok = List.filter (fun s -> s.Loop.s_bad = 0) (of_cls Loop.Write round) in
  let ms = List.fold_left (fun a s -> a +. (s.Loop.s_ms *. float_of_int s.Loop.s_n)) 0. round in
  float_of_int (List.length ok) /. (ms /. 1000.)

(* Peak memory is read after a stretch's first [rss_rounds] rounds
   (at its end if it has fewer), so that it measures a fixed amount of
   work: the edit_long daemon grows by about 5 MB a round without
   levelling off, so read at the end it would measure how many rounds
   the host's speed let the run take. *)
let rss_rounds = 4

let peak_rss_kb live =
  match live.daemon with Some d -> Proc.vm_hwm_kb d | None -> live.rss_kb

(* Whole rounds for [seconds], one operation at a time with a
   calibration slice between operations when one is due.  Times are
   calibrated once the stretch is over, since each takes the slices
   up to a second after it. *)
let measure ctx w ~next ~seconds live warm =
  let rounds = ref [] and retries = ref 0 and rss_kb = ref None in
  let steal0 = Proc.steal_s () and slices0 = Calib.count () in
  let writes_n = ref 0 and reads_n = ref 0 in
  let enough () =
    !writes_n >= Stats.tail_samples w.tail_p
    && !reads_n >= Stats.tail_samples read_tail_p
  in
  let elapsed =
    take_rounds ~enough next ~seconds (fun ops ->
        let round =
          List.concat_map
            (fun op ->
              Calib.tick ();
              let r = run_ops live ctx [ op ] in
              retries := !retries + r.Loop.retries;
              r.Loop.samples)
            ops
        in
        writes_n := !writes_n + List.length (of_cls Loop.Write round);
        reads_n := !reads_n + List.length (of_cls Loop.Read round);
        rounds := round :: !rounds;
        if List.length !rounds = rss_rounds then rss_kb := Some (peak_rss_kb live))
  in
  Calib.burst ();
  let rounds = List.rev_map (List.map calibrated) !rounds in
  let samples = List.concat rounds in
  let rates = List.map round_rate rounds in
  let lat cls = List.map (fun s -> s.Loop.s_ms) (of_cls cls samples) in
  {
    warm_samples = warm.Loop.samples;
    samples;
    rates;
    rss_kb = (match !rss_kb with Some kb -> kb | None -> peak_rss_kb live);
    note =
      Printf.sprintf
        "stretch: window=%d workers=%d seconds=%.2f steal_s=%.2f calib_slices=%d \
         calib_slice_ms=%.3f warm_passes=%d writes=%d read_batches=%d (of %d) \
         retries=%d %s | ops_per_s=%.1f latency_p50_ms=%.4f read_latency_p50_ms=%.4f"
        window (List.length (worker_cache_sizes live)) elapsed
        (Proc.steal_s () -. steal0)
        (Calib.count () - slices0) (Calib.median_ms ~from:slices0)
        live.warm_passes !writes_n !reads_n
        (match of_cls Loop.Read samples with s :: _ -> s.Loop.s_n | [] -> 0)
        !retries (cache_totals live) (Stats.median rates) (Stats.median (lat Loop.Write))
        (Stats.median (lat Loop.Read));
  }

(* [max setup_reps w.stretches] timed set-ups; the last [w.stretches]
   of them are each measured for an equal share of [ctx.seconds], the
   others torn down at once.  The stretches take consecutive rounds of
   one seeded stream, and the metrics pool their samples and rounds;
   setup_s is the median over the set-ups, peak_rss_mb the median over
   the daemons. *)
let end_to_end ctx w =
  let setups = max setup_reps w.stretches in
  let next = round_source w ctx.seed in
  let runs =
    List.init setups (fun i ->
        Calib.burst ();
        let t0 = Spans.now_ns () in
        let live, warm = setup ctx w in
        let t1 = Spans.now_ns () in
        Fun.protect
          ~finally:(fun () -> teardown live)
          (fun () ->
            if i < setups - w.stretches then begin
              Calib.burst ();
              ((t0, t1), None)
            end
            else
              let seconds = ctx.seconds /. float_of_int w.stretches in
              ((t0, t1), Some (measure ctx w ~next ~seconds live warm))))
  in
  let setup_s (t0, t1) = float_of_int (t1 - t0) /. 1e9 *. Calib.scale ~t0 ~t1 in
  let stretches = List.filter_map snd runs in
  let measured = List.concat_map (fun (st : stretch) -> st.samples) stretches in
  let all = List.concat_map (fun (st : stretch) -> st.warm_samples) stretches @ measured in
  let writes = of_cls Loop.Write measured in
  let lat cls = List.map (fun s -> s.Loop.s_ms) (of_cls cls measured) in
  {
    attempted = attempts all;
    failed = failures all;
    metrics =
      [
        ("setup_s", Stats.median (List.map (fun (t, _) -> setup_s t) runs), "s");
        (* the median round's rate: a burst of load from outside that
           covers less than half of the run does not move it *)
        ( "ops_per_s",
          Stats.median (List.concat_map (fun (st : stretch) -> st.rates) stretches),
          "1/s" );
        ("latency_p50_ms", Stats.median (lat Loop.Write), "ms");
        ("latency_tail_ms", Stats.tail ~p:w.tail_p (lat Loop.Write), "ms");
        ("compile_geomean_ms", Stats.geomean_of_medians (keyed writes), "ms");
        ("read_latency_p50_ms", Stats.median (lat Loop.Read), "ms");
        ("read_latency_tail_ms", Stats.tail ~p:read_tail_p (lat Loop.Read), "ms");
        ( "peak_rss_mb",
          Stats.median
            (List.map (fun (st : stretch) -> float_of_int st.rss_kb /. 1024.) stretches),
          "MB" );
      ];
    notes =
      List.map (fun (st : stretch) -> st.note) stretches
      @ [
          Printf.sprintf "tails: latency_tail_ms=p%d of %d read_latency_tail_ms=p%d of %d"
            w.tail_p (List.length writes) read_tail_p
            (List.length (of_cls Loop.Read measured));
        ]
      @ failing all;
  }

(* ------------------------------------------------------------------ *)
(* The traced run: in-process replay                                   *)

module Ws = Fg_workspace.Workspace

type acc = {
  mutable programs : int;  (** program checks replayed (compile, open, edit) *)
  mutable composite : (string * float) list;  (** per program: file, ms *)
  mutable bytes : int;
  mutable edges_max : int;
  mutable units_at_max : int;
  mutable counters : T.snapshot;  (** summed around the decomposed checks *)
  mutable stencils : int;
  mutable shared : int;
  mutable beta_steps : int;
  mutable json_bytes : int;
  mutable edits : int;
  mutable rechecked : int;
  mutable queries : (query * int) list;
  mutable attempted : int;
  mutable failed : int;
}

type replay = {
  mutable tr : Spans.t option;
  cold : bool;  (** compile_scale: every program gets fresh sessions *)
  cache_a : Unit.cache;
  cache_b : Unit.cache;
  mutable sessions : ((char * bool * Backend.t) * Session.t) list;
  ws : Ws.t;
  mutable acc : acc;
}

let zero_counters = T.diff (T.snapshot ()) (T.snapshot ())

let fresh_acc () =
  {
    programs = 0;
    composite = [];
    bytes = 0;
    edges_max = 0;
    units_at_max = 0;
    counters = zero_counters;
    stencils = 0;
    shared = 0;
    beta_steps = 0;
    json_bytes = 0;
    edits = 0;
    rechecked = 0;
    queries = [];
    attempted = 0;
    failed = 0;
  }

let new_replay ?tr w =
  {
    tr;
    cold = w.kind = One_shot;
    cache_a = Unit.create_cache ();
    cache_b = Unit.create_cache ();
    sessions = [];
    ws = Ws.create ();
    acc = fresh_acc ();
  }

let add_counters (a : T.snapshot) (d : T.snapshot) =
  {
    a with
    T.model_lookups = a.T.model_lookups + d.T.model_lookups;
    resolve_hits = a.T.resolve_hits + d.T.resolve_hits;
    resolve_misses = a.T.resolve_misses + d.T.resolve_misses;
    cc_rebuilds = a.T.cc_rebuilds + d.T.cc_rebuilds;
    unit_hits = a.T.unit_hits + d.T.unit_hits;
    unit_misses = a.T.unit_misses + d.T.unit_misses;
    unit_evictions = a.T.unit_evictions + d.T.unit_evictions;
  }

(* Side [a] runs the composite, side [b] the layer by layer calls; each
   side has its own unit cache, like one daemon worker. *)
let session rp side ~prelude ~backend =
  let cfg =
    Session.Config.default
    |> Session.Config.with_backend backend
    |> if prelude then Session.Config.with_standard_prelude else Fun.id
  in
  let cache = if side = 'a' then rp.cache_a else rp.cache_b in
  if rp.cold then Session.of_config cfg
  else
    match List.assoc_opt (side, prelude, backend) rp.sessions with
    | Some s -> s
    | None ->
        let s = Session.of_config ~cache cfg in
        rp.sessions <- ((side, prelude, backend), s) :: rp.sessions;
        s

(* One program through the whole pipeline twice: once as the composite
   Session.run_full, once as the calls into each layer.  Returns the
   rendered run report. *)
let replay_program rp ~file ~source ~prelude ~backend =
  let acc = rp.acc and sp name f = Spans.with_span rp.tr name f in
  let sa = session rp 'a' ~prelude ~backend in
  let t0 = Spans.now_ns () in
  let report = sp "session.run_full" (fun () -> Session.run_full ~file sa source) in
  acc.composite <-
    (file, float_of_int (Spans.now_ns () - t0) /. 1e6) :: acc.composite;
  acc.programs <- acc.programs + 1;
  let sb = session rp 'b' ~prelude ~backend in
  (match sp "parser" (fun () -> Parser.exp_of_string ~file source) with
  | exception Fg_util.Diag.Error _ -> ()
  | ast -> (
      acc.bytes <- acc.bytes + String.length source;
      let decls, _ = Unit.split_spine ast in
      let deps =
        sp "declgraph" (fun () ->
            Declgraph.build ~global:false
              (Array.of_list (List.map Declgraph.info_of_decl decls)))
      in
      let edges = Array.fold_left (fun n d -> n + List.length d) 0 deps in
      if edges >= acc.edges_max then begin
        acc.edges_max <- edges;
        acc.units_at_max <- Array.length deps
      end;
      let before = T.snapshot () in
      let elaborated =
        sp "check" (fun () -> Fg_util.Diag.protect (fun () -> Session.elaborate ~file sb source))
      in
      acc.counters <- add_counters acc.counters (T.diff (T.snapshot ()) before);
      match elaborated with
      | Error _ -> ()
      | Ok triple -> (
          let th = sp "theorems" (fun () -> Theorems.report_of_elaboration triple) in
          ignore (sp "interp" (fun () -> Interp.run_program th.Theorems.elaborated));
          let _, steps = sp "eval" (fun () -> F.Eval.run th.Theorems.f_exp) in
          acc.beta_steps <- acc.beta_steps + steps;
          match Backend.specialize_mode backend with
          | None -> ()
          | Some mode ->
              sp "specialize" (fun () ->
                  let f_spec, st = F.Specialize.specialize ~mode th.Theorems.f_exp in
                  acc.stencils <- acc.stencils + st.F.Specialize.st_stencils;
                  acc.shared <- acc.shared + st.F.Specialize.st_shared;
                  (* the session's oracle on the specialized program *)
                  if F.Specialize.changed st then begin
                    ignore (F.Typecheck.typecheck f_spec);
                    ignore (F.Eval.run f_spec)
                  end))));
  let json =
    sp "jsonview" (fun () -> Json.to_string (Jsonview.json_of_run_report ~file report))
  in
  acc.json_bytes <- acc.json_bytes + String.length json;
  json

let ws_payload = function Ok s -> s | Error e -> e.Ws.ws_code

let replay_action rp ~file action =
  let acc = rp.acc and sp name f = Spans.with_span rp.tr name f in
  let ok =
    match action with
    | Compile { source; prelude; backend; _ } ->
        let json = replay_program rp ~file:file ~source ~prelude ~backend in
        check_payload action json
    | Open { source; _ } ->
        let json =
          replay_program rp ~file:file ~source ~prelude:false
            ~backend:Backend.Dict
        in
        let ws =
          sp "workspace.open" (fun () ->
              Ws.open_doc rp.ws ~name:file ~version:1 ~prelude:false
                ~global_models:false ~backend:Backend.Dict source)
        in
        check_payload action json && check_payload action (ws_payload ws)
    | Edit { version; offset; digit; source; _ } ->
        let json =
          replay_program rp ~file:file ~source ~prelude:false
            ~backend:Backend.Dict
        in
        let before = (Ws.cache_stats rp.ws).Unit.s_misses in
        let ws =
          sp "workspace.change" (fun () ->
              Ws.change_doc rp.ws ~name:file ~version
                (Ws.Edits [ { Ws.e_start = offset; e_len = 1; e_text = digit } ]))
        in
        acc.edits <- acc.edits + 1;
        acc.rechecked <-
          acc.rechecked + ((Ws.cache_stats rp.ws).Unit.s_misses - before);
        check_payload action json && check_payload action (ws_payload ws)
    | Close ->
        check_payload action
          (ws_payload (sp "workspace.close" (fun () -> Ws.close_doc rp.ws ~name:file)))
    | Query { kind; offset; _ } ->
        let f =
          match kind with
          | Hover -> Ws.hover
          | Definition -> Ws.definition
          | Completion -> Ws.completion
        in
        let n = Option.value ~default:0 (List.assoc_opt kind acc.queries) in
        acc.queries <- (kind, n + 1) :: List.remove_assoc kind acc.queries;
        check_payload action
          (ws_payload
             (sp ("workspace." ^ query_name kind) (fun () ->
                  f rp.ws ~name:file ~offset)))
  in
  acc.attempted <- acc.attempted + 1;
  if not ok then acc.failed <- acc.failed + 1

(* Each operation gets a fresh id, unique for the run like the daemon
   phase's wire ids. *)
let replay_ops rp ops =
  List.iter
    (fun op ->
      Spans.set_request_opt rp.tr (Loop.fresh_id ());
      Spans.with_span rp.tr "op" (fun () ->
          List.iter (replay_action rp ~file:op.file) op.actions))
    ops

(* The workload's warm-up, untimed and uncounted. *)
let replay_warm rp ctx w =
  let tr = rp.tr in
  rp.tr <- None;
  replay_ops rp (w.warm ctx.seed);
  rp.tr <- tr;
  rp.acc <- fresh_acc ()

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)

let per n total = if n = 0 then 0. else total /. float_of_int n

let num = function
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.

(* A latency histogram of the daemon's stats payload, by path. *)
let histogram stats path =
  List.fold_left (fun j k -> Option.bind j (Json.mem k)) stats path

let hist_ms h key = num (Option.bind h (Json.mem key))

(* The queue-wait tail is the daemon histogram's p95; the daemon phase
   runs until the histogram has the samples that needs. *)
let queue_wait_tail_p = 95

(* compile_scale file names are <family>_<n>_<backend>.fg *)
let family_and_size file =
  match List.rev (String.split_on_char '_' (Filename.remove_extension file)) with
  | _backend :: n :: rev_family ->
      Option.map
        (fun n -> (String.concat "_" (List.rev rev_family), n))
        (int_of_string_opt n)
  | _ -> None

let slopes composite =
  let medians =
    List.filter_map
      (fun (file, ms) ->
        Option.map (fun fn -> (fn, Stats.median ms)) (family_and_size file))
      (Stats.group composite)
  in
  List.map
    (fun family ->
      let points =
        List.filter_map
          (fun n ->
            match
              List.filter_map
                (fun ((f, n'), ms) -> if f = family && n' = n then Some ms else None)
                medians
            with
            | [] -> None
            | ms -> Some (float_of_int n, Stats.geomean ms))
          (List.assoc family Progs.ladders)
      in
      ( "scale." ^ family ^ ".slope",
        (if List.length points >= 2 then Stats.loglog_slope points else 0.) ))
    Progs.families

(* Sum and count of a daemon latency histogram, by path. *)
let hist_sum stats path =
  let h = histogram stats path in
  (hist_ms h "mean_ms" *. hist_ms h "count", hist_ms h "count")

(* The mean of a histogram's samples recorded between two stats
   payloads. *)
let phase_mean before after path =
  let s0, n0 = hist_sum before path and s1, n1 = hist_sum after path in
  if n1 > n0 then (s1 -. s0) /. (n1 -. n0) else 0.

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let traced ctx w =
  let tr = Spans.create () in
  let budget = ctx.seconds /. 3. in
  (* 1. the daemon (or one-shot) phase: codec, pool and transport *)
  let live, warm = setup ctx w in
  let samples, retries, before, after =
    Fun.protect
      ~finally:(fun () -> teardown live)
      (fun () ->
        match w.kind with
        | Pool | Editor ->
            let before = daemon_stats live in
            let samples = ref [] and retries = ref 0 in
            (* enough pool requests for the queue-wait tail *)
            let enough () =
              w.kind <> Pool
              || List.length (of_cls Loop.Write !samples)
                 >= Stats.tail_samples queue_wait_tail_p
            in
            ignore
              (take_rounds ~enough (round_source w ctx.seed) ~seconds:budget (fun ops ->
                   let r = run_ops ~tr live ctx ops in
                   samples := List.rev_append r.Loop.samples !samples;
                   retries := !retries + r.Loop.retries));
            (!samples, !retries, before, daemon_stats live)
        | One_shot ->
            let st = rng ctx.seed 7 in
            let r = run_ops live ctx (List.init 10 (fun _ -> probe_op st)) in
            (r.Loop.samples, 0, None, None))
  in
  (* 2. in-process replay, each operation once untraced and once traced
     (alternating which goes first), against two independent states *)
  let plain = new_replay w and rp = new_replay ~tr w in
  replay_warm plain ctx w;
  replay_warm rp ctx w;
  let t_plain = ref 0 and t_traced = ref 0 and n = ref 0 in
  let timed rp op =
    let t0 = Spans.now_ns () in
    replay_ops rp [ op ];
    Spans.now_ns () - t0
  in
  ignore
    (take_rounds (round_source w ctx.seed) ~seconds:(2. *. budget) (fun ops ->
         List.iter
           (fun op ->
             incr n;
             if !n mod 2 = 0 then begin
               t_plain := !t_plain + timed plain op;
               t_traced := !t_traced + timed rp op
             end
             else begin
               t_traced := !t_traced + timed rp op;
               t_plain := !t_plain + timed plain op
             end)
           ops));
  Spans.write_chrome tr (Filename.concat ctx.dir ("trace-" ^ w.name ^ ".json"));
  (* 3. per-layer metrics *)
  let acc = rp.acc in
  let np = acc.programs in
  let ms = Spans.self_ms tr in
  let parser = ms "parser" and declgraph = ms "declgraph" in
  (* Session.elaborate parses and builds the declaration graph itself;
     the check layer is what remains *)
  let check = Float.max 0. (ms "check" -. parser -. declgraph) in
  let layers =
    parser +. declgraph +. check +. ms "theorems" +. ms "interp" +. ms "eval"
    +. ms "specialize" +. ms "jsonview"
  in
  let composite = ms "session.run_full" in
  let c = acc.counters in
  let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  let queries k = Option.value ~default:0 (List.assoc_opt k acc.queries) in
  let codec name =
    let s = Spans.self_samples_ms tr name in
    per (List.length s) (List.fold_left ( +. ) 0. s)
  in
  let client_mean cls = mean (List.map (fun s -> s.Loop.s_ms) (of_cls cls samples)) in
  let latency = histogram after [ "latency" ] in
  let queue_wait = histogram after [ "queue_wait" ] in
  let pool v = if w.kind = Pool then v else 0. in
  (* client round trip minus the time the daemon (or, one-shot, the
     compiler in-process) spent on the same operations *)
  let transport =
    match w.kind with
    | One_shot ->
        let inproc =
          List.filter_map
            (fun (f, ms) -> if f = "probe.fg" then Some ms else None)
            acc.composite
        in
        client_mean Loop.Read -. mean inproc
    | Pool -> client_mean Loop.Write -. phase_mean before after [ "latency" ]
    | Editor ->
        client_mean Loop.Write -. phase_mean before after [ "workspace"; "change" ]
  in
  let attempted = attempts samples + acc.attempted in
  let failed = failures samples + acc.failed in
  let metrics =
    [
      ("parser.ms", per np parser, "ms");
      ("parser.bytes_per_ms", (if parser > 0. then float_of_int acc.bytes /. parser else 0.), "B/ms");
      ("declgraph.build_ms", per np declgraph, "ms");
      ("declgraph.edges", float_of_int acc.edges_max, "count");
      ("declgraph.units", float_of_int acc.units_at_max, "count");
      ("unit.hits", per np (float_of_int c.T.unit_hits), "count");
      ("unit.misses", per np (float_of_int c.T.unit_misses), "count");
      ("unit.evictions", per np (float_of_int c.T.unit_evictions), "count");
      ("unit.hit_ratio", ratio c.T.unit_hits c.T.unit_misses, "ratio");
      ("check.ms", per np check, "ms");
      ("check.model_lookups", per np (float_of_int c.T.model_lookups), "count");
      ("check.resolve_hit_ratio", ratio c.T.resolve_hits c.T.resolve_misses, "ratio");
      ("check.cc_rebuilds", per np (float_of_int c.T.cc_rebuilds), "count");
      ("specialize.ms", per np (ms "specialize"), "ms");
      ("specialize.stencils", per np (float_of_int acc.stencils), "count");
      ("specialize.shared", per np (float_of_int acc.shared), "count");
      ("theorems.ms", per np (ms "theorems"), "ms");
      ("eval.ms", per np (ms "eval"), "ms");
      ("eval.beta_steps", per np (float_of_int acc.beta_steps), "count");
      ("interp.ms", per np (ms "interp"), "ms");
      ("jsonview.ms", per np (ms "jsonview"), "ms");
      ("jsonview.bytes", per np (float_of_int acc.json_bytes), "B");
      ("protocol.encode_ms", codec "protocol.encode", "ms");
      ("protocol.decode_ms", codec "protocol.decode", "ms");
      ("pool.queue_wait_p50_ms", pool (hist_ms queue_wait "p50_ms"), "ms");
      ( "pool.queue_wait_tail_ms",
        pool (hist_ms queue_wait (Printf.sprintf "p%d_ms" queue_wait_tail_p)),
        "ms" );
      ( "pool.service_p50_ms",
        pool (Float.max 0. (hist_ms latency "p50_ms" -. hist_ms queue_wait "p50_ms")),
        "ms" );
      ("pool.overload_retries", float_of_int retries, "count");
      ("server.transport_ms", transport, "ms");
      ("workspace.change_ms", per acc.edits (ms "workspace.change"), "ms");
      ("workspace.rechecked_units", per acc.edits (float_of_int acc.rechecked), "count");
      ("workspace.hover_ms", per (queries Hover) (ms "workspace.hover"), "ms");
      ("workspace.completion_ms", per (queries Completion) (ms "workspace.completion"), "ms");
      ("session.run_ms", per np composite, "ms");
      ("session.coverage", (if composite > 0. then layers /. composite else 0.), "ratio");
    ]
    @ List.map
        (fun (name, v) -> (name, (if w.kind = One_shot then v else 0.), "ratio"))
        (slopes acc.composite)
    @ [
        ( "trace.overhead_frac",
          float_of_int !t_traced /. float_of_int !t_plain -. 1.,
          "ratio" );
        ("ops_failed_frac", per attempted (float_of_int failed), "ratio");
      ]
  in
  {
    attempted = attempted + attempts warm.Loop.samples;
    failed = failed + failures warm.Loop.samples;
    metrics;
    notes =
      [
        Printf.sprintf
          "daemon phase %d ops; replay %d ops (%d programs) untraced %d ms, \
           traced %d ms"
          (List.length samples) !n np (!t_plain / 1_000_000)
          (!t_traced / 1_000_000);
      ]
      @ failing (warm.Loop.samples @ samples);
  }
