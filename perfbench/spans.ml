(* In-memory spans for the traced run.  Each span records its name,
   start, end, parent and the id of the operation it belongs to; spans
   stay in memory and are written once, as Chrome trace-event JSON,
   when the run ends.  A layer's self time is its duration minus the
   durations of its children (spans here nest strictly: one thread,
   children run inside their parent). *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  req : int;  (** the operation this span belongs to *)
  start_ns : int;
  mutable end_ns : int;
  mutable child_ns : int;  (** summed duration of direct children *)
}

type t = {
  mutable spans : span list;  (** finished spans, most recent first *)
  mutable stack : span list;  (** open spans, innermost first *)
  mutable next_id : int;
  mutable req : int;
}

let create () = { spans = []; stack = []; next_id = 1; req = 0 }

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* Start a new operation: later spans carry this id. *)
let set_request t req = t.req <- req

(* [with_span tr name f] runs [f], recording a span when tracing. *)
let with_span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
      let parent = match t.stack with p :: _ -> p.id | [] -> 0 in
      let s =
        {
          id = t.next_id;
          name;
          parent;
          req = t.req;
          start_ns = now_ns ();
          end_ns = 0;
          child_ns = 0;
        }
      in
      t.next_id <- t.next_id + 1;
      t.stack <- s :: t.stack;
      let finish () =
        s.end_ns <- now_ns ();
        t.stack <- List.tl t.stack;
        (match t.stack with
        | p :: _ -> p.child_ns <- p.child_ns + (s.end_ns - s.start_ns)
        | [] -> ());
        t.spans <- s :: t.spans
      in
      Fun.protect ~finally:finish f

let duration_ns s = s.end_ns - s.start_ns
let self_ns s = max 0 (duration_ns s - s.child_ns)

(* Summed self time per span name, in milliseconds. *)
let self_ms t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (float_of_int (self_ns s) /. 1e6) else acc)
    0. t.spans

(* Self times of every span named [name], in milliseconds. *)
let self_samples_ms t name =
  List.filter_map
    (fun s ->
      if s.name = name then Some (float_of_int (self_ns s) /. 1e6) else None)
    t.spans

let write_chrome t path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"req\": %d, \
         \"self_us\": %.3f}}"
        s.name
        (float_of_int s.start_ns /. 1e3)
        (float_of_int (duration_ns s) /. 1e3)
        s.id s.parent s.req
        (float_of_int (self_ns s) /. 1e3))
    (List.rev t.spans);
  output_string oc "]}\n";
  close_out oc

let set_request_opt tr req = Option.iter (fun t -> set_request t req) tr
