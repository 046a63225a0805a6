(* The benchmark's own tests: its generators, its reference oracle and
   its statistics. *)

open Fg_core
open Fg_perfbench

let edges source =
  let decls, _ = Unit.split_spine (Parser.exp_of_string source) in
  Declgraph.build ~global:false
    (Array.of_list (List.map Declgraph.info_of_decl decls))
  |> Array.fold_left (fun n d -> n + List.length d) 0

(* Every binding of the dependent chain uses the previous one, so the
   declaration graph's dependency sets are transitive: n(n-1)/2 edges.
   A graph of direct edges only would have n-1. *)
let test_chain_edges () =
  let st = Random.State.make [| 1 |] in
  List.iter
    (fun n ->
      let src = Progs.chain_source (Progs.random_chain st n) in
      Alcotest.(check int) (Printf.sprintf "n=%d" n) (n * (n - 1) / 2) (edges src))
    [ 2; 10; 62 ];
  let src = Progs.chain_source (Progs.random_chain st 500) in
  Alcotest.(check int) "n=500" 124_750 (edges src)

let test_chain_layout () =
  let c = Progs.random_chain (Random.State.make [| 2 |]) 40 in
  let l = Progs.chain_layout c in
  let s = l.Progs.l_source in
  Array.iteri
    (fun k off ->
      Alcotest.(check char) "digit" (Char.chr (Char.code '0' + c.Progs.incs.(k))) s.[off];
      let r = Printf.sprintf "x%d " k in
      Alcotest.(check string) "reference" r (String.sub s l.Progs.l_ref.(k) (String.length r));
      Alcotest.(check string) "declaration" "let " (String.sub s l.Progs.l_decl.(k + 1) 4))
    l.Progs.l_digit

(* The reference value comes from the generator's parameters; the
   compiler's own result must agree with it. *)
let run source =
  let s = Session.of_config Session.Config.default in
  Fg_util.Json.to_string
    (Jsonview.json_of_run_report ~file:"t.fg" (Session.run_full ~file:"t.fg" s source))

let test_oracle () =
  let c = Progs.random_chain (Random.State.make [| 3 |]) 30 in
  let payload = run (Progs.chain_source c) in
  let v = Progs.chain_value c in
  Alcotest.(check bool) "right value" true
    (Progs.check_run (Progs.Value (Interp.FlInt v)) payload);
  Alcotest.(check bool) "wrong value" false
    (Progs.check_run (Progs.Value (Interp.FlInt (v + 1))) payload);
  Alcotest.(check bool) "expected failure" false
    (Progs.check_run (Progs.Fails Fg_util.Diag.Resolve) payload);
  let neg = Corpus.find "neg_no_model" in
  let payload = run neg.Corpus.source in
  Alcotest.(check bool) "negative entry" true
    (Progs.check_run (Progs.expect_of_corpus neg) payload);
  Alcotest.(check bool) "wrong phase" false
    (Progs.check_run (Progs.Fails Fg_util.Diag.Parser) payload);
  Alcotest.(check bool) "zipf variant" true
    (Progs.check_run (Progs.Value (Interp.FlBool true)) (run (Progs.zipf_source 7)));
  List.iter
    (fun (p : Progs.prog) ->
      if p.Progs.n = List.hd (List.assoc p.Progs.family Progs.ladders) then
        Alcotest.(check bool) p.Progs.family true
          (Progs.check_run p.Progs.expect (run p.Progs.source)))
    (Progs.scale_programs (Random.State.make [| 4 |]))

(* A reply that does not match its reference counts as a failed
   operation. *)
let test_mismatch_counts () =
  let compile value =
    Workloads.Compile
      {
        source = "40 + 2";
        prelude = false;
        backend = Backend.Dict;
        expect = Progs.Value (Interp.FlInt value);
      }
  in
  let op value = Workloads.single "t.fg" Loop.Write (compile value) in
  let rp = Workloads.new_replay Workloads.serve_corpus in
  Workloads.replay_ops rp [ op 42; op 43; op 42 ];
  Alcotest.(check int) "attempted" 3 rp.Workloads.acc.Workloads.attempted;
  Alcotest.(check int) "failed" 1 rp.Workloads.acc.Workloads.failed;
  (* every request of a batch is checked on its own *)
  let batch =
    { Workloads.file = "t.fg"; cls = Loop.Read; actions = [ compile 42; compile 41; compile 43 ] }
  in
  Workloads.replay_ops rp [ batch ];
  Alcotest.(check int) "batch attempted" 6 rp.Workloads.acc.Workloads.attempted;
  Alcotest.(check int) "batch failed" 3 rp.Workloads.acc.Workloads.failed

let test_seeded () =
  let ops seed = List.map (fun o -> o.Workloads.file) (Workloads.edit_long.Workloads.rounds seed 0) in
  Alcotest.(check (list string)) "same seed" (ops 5) (ops 5);
  let picks seed =
    let next = Progs.zipf_stream (Random.State.make [| seed |]) in
    List.init 50 (fun _ -> next ())
  in
  Alcotest.(check (list int)) "zipf stream" (picks 9) (picks 9);
  Alcotest.(check bool) "seed matters" true (picks 9 <> picks 10)

let test_stats () =
  let xs n = List.init n float_of_int in
  Alcotest.(check int) "p99 needs" 1000 (Stats.tail_samples 99);
  Alcotest.(check int) "p90 needs" 100 (Stats.tail_samples 90);
  Alcotest.(check int) "p95 needs" 200 (Stats.tail_samples 95);
  Alcotest.(check (float 0.)) "p99 of 1000" 989. (Stats.tail ~p:99 (xs 1000));
  Alcotest.(check (float 0.)) "p90 of 100" 89. (Stats.tail ~p:90 (xs 100));
  Alcotest.(check (float 0.)) "nearest rank" 899. (Stats.tail ~p:90 (xs 1000));
  (* too few samples is an error, not a lower percentile *)
  Alcotest.(check bool) "p99 of 999" true
    (match Stats.tail ~p:99 (xs 999) with _ -> false | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "p90 of 99" true
    (match Stats.tail ~p:90 (xs 99) with _ -> false | exception Invalid_argument _ -> true);
  Alcotest.(check (float 1e-9)) "slope" 2.
    (Stats.loglog_slope [ (1., 1.); (2., 4.); (4., 16.); (8., 64.) ]);
  Alcotest.(check (float 1e-9)) "geomean" 4. (Stats.geomean [ 2.; 8. ]);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

(* A time is scaled by the median slice within a second of it, widened
   to the nearest slices when the window holds too few. *)
let test_calib () =
  let s = 1_000_000_000 in
  (* one slice every 0.4 s: 1 ms for the first 4 s, 2 ms after *)
  for i = 0 to 19 do
    Calib.push (i * s * 2 / 5) (if i < 10 then 1. else 2.)
  done;
  Alcotest.(check (float 0.)) "slow host" 2. (Calib.slice_ms ~t0:(6 * s) ~t1:(7 * s));
  Alcotest.(check (float 0.)) "fast host" 1. (Calib.slice_ms ~t0:s ~t1:s);
  (* 5.8..7.6 s: the window holds 5 slices, all slow *)
  Alcotest.(check (float 0.)) "window" 2. (Calib.slice_ms ~t0:(7 * s) ~t1:(7 * s));
  (* far past the last slice: the five nearest *)
  Alcotest.(check (float 0.)) "nearest" 2. (Calib.slice_ms ~t0:(60 * s) ~t1:(61 * s));
  Alcotest.(check (float 1e-9)) "scale" (Calib.ref_ms /. 2.)
    (Calib.scale ~t0:(6 * s) ~t1:(7 * s))

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "dependent chain edges" `Quick test_chain_edges;
          Alcotest.test_case "dependent chain layout" `Quick test_chain_layout;
          Alcotest.test_case "seeded" `Quick test_seeded;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "reference values" `Quick test_oracle;
          Alcotest.test_case "mismatch counts as failed" `Quick test_mismatch_counts;
        ] );
      ("stats", [ Alcotest.test_case "tail, slope, means" `Quick test_stats ]);
      ("calib", [ Alcotest.test_case "window and scale" `Quick test_calib ]);
    ]
