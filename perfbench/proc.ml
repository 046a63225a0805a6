(* Child processes: one-shot fgc runs and the fgc serve daemon.  Every
   child is registered until it has been waited for, so an aborted run
   still kills and reaps everything it started. *)

external wait4 : int -> int * int = "perfbench_wait4"

(* Pin this process, and every child started after, to one CPU; the
   CPU, or -1 when that is not possible.  See README.md. *)
external pin_one_cpu : unit -> int = "perfbench_pin_one_cpu"

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let reap_all () =
  Hashtbl.iter
    (fun pid () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait4 pid))
    live;
  Hashtbl.reset live

let () = at_exit reap_all

let spawn prog args ~stdout ~stderr =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout
      stderr
  in
  Hashtbl.replace live pid ();
  pid

let wait pid =
  let r = wait4 pid in
  Hashtbl.remove live pid;
  r

let read_all fd =
  let b = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes b chunk 0 k;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents b

type one_shot = {
  exit_code : int;
  stdout : string;
  wall_ns : int;
  maxrss_kb : int;
}

(* Run [prog args] to completion, capturing stdout; the wall time spans
   fork to reap. *)
let run_one_shot prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = Spans.now_ns () in
  let pid = spawn prog args ~stdout:wr ~stderr:devnull in
  Unix.close wr;
  Unix.close devnull;
  let out = read_all rd in
  Unix.close rd;
  let code, rss = wait pid in
  { exit_code = code; stdout = out; wall_ns = Spans.now_ns () - t0; maxrss_kb = rss }

(* CPU time the hypervisor gave to other guests while this machine's
   CPUs had work (the steal column of /proc/stat, in USER_HZ = 1/100 s
   ticks), in seconds; 0 where it cannot be read.  Reported next to
   each measurement: on a shared host it explains slow runs. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          float_of_int (Option.value ~default:0 (int_of_string_opt steal)) /. 100.
      | _ -> 0.)

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)

type daemon = { pid : int; socket : string }

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX socket);
    fd
  with e ->
    Unix.close fd;
    raise e

(* Start [fgc serve] with its defaults on a private unix socket and
   wait until it accepts connections. *)
let start_daemon ~fgc ~socket ~log =
  (try Sys.remove socket with Sys_error _ -> ());
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    spawn fgc [ "serve"; "--socket"; socket ] ~stdout:devnull ~stderr:logfd
  in
  Unix.close logfd;
  Unix.close devnull;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec ready () =
    match connect socket with
    | fd -> Unix.close fd
    | exception Unix.Unix_error _ ->
        if Unix.gettimeofday () > deadline then
          failwith ("fgc serve did not start; see " ^ log);
        Unix.sleepf 0.002;
        ready ()
  in
  ready ();
  { pid; socket }

(* The daemon's peak resident set size (VmHWM), in KiB. *)
let vm_hwm_kb d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> go ()
        | exception End_of_file -> 0
      in
      go ())

(* Graceful drain on SIGTERM, then reap. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (wait d.pid);
  try Sys.remove d.socket with Sys_error _ -> ()
