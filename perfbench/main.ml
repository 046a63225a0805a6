(* The repository benchmark: one workload per invocation.

     perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   run.sh builds fgc and this program from source first; run it from
   the root of a checkout.  A human-readable summary goes to stderr;
   the last line of stdout is the JSON result. *)

open Fg_perfbench

(* The seed later performance claims must also hold on; never used
   while tuning a change. *)
let held_out_seed = 7919

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Float.of_string_opt v;
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs > 0. -> (w, s, secs, t)
  | _ -> usage ()

(* A JSON number with every digit the measurement has. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric"

let () =
  (* exit through at_exit, which stops and reaps every child; a daemon
     that dies mid-run is an error on the write, not a silent SIGPIPE *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let name, seed, seconds, trace = parse_args () in
  let w =
    match List.find_opt (fun w -> w.Workloads.name = name) Workloads.all with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S\n" name;
        exit 2
  in
  let fgc = Filename.concat "_build" "default/bin/fgc.exe" in
  if not (Sys.file_exists fgc) then begin
    prerr_endline "perfbench: fgc.exe is not built (run perfbench/run.sh)";
    exit 2
  end;
  let dir = Filename.concat "perfbench" "_run" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let ctx = { Workloads.fgc; dir; seed; seconds } in
  let nproc = Domain.recommended_domain_count () in
  (* one CPU for this client, the daemon and every one-shot child: see
     README.md, "One CPU" *)
  let cpu = Proc.pin_one_cpu () in
  Printf.eprintf
    "perfbench: workload=%s seed=%d held_out_seed=%d seconds=%g trace=%b \
     nproc=%d pinned_cpu=%d ocaml=%s\n%!"
    name seed held_out_seed seconds trace nproc cpu Sys.ocaml_version;
  let r =
    if trace then Workloads.traced ctx w else Workloads.end_to_end ctx w
  in
  List.iter (fun n -> Printf.eprintf "  %s\n" n) r.Workloads.notes;
  List.iter
    (fun (m, v, u) -> Printf.eprintf "  %-34s %14.4f %s\n" m v u)
    r.Workloads.metrics;
  Printf.eprintf "  attempted=%d failed=%d\n%!" r.Workloads.attempted
    r.Workloads.failed;
  let metrics =
    List.map
      (fun (m, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m (number v) u)
      r.Workloads.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.Workloads.failed = 0) r.Workloads.attempted r.Workloads.failed
    (String.concat ", " metrics)
