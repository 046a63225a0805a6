(* A closed-loop client over one daemon connection: one request in
   flight, the next sent when the reply has arrived.  An operation is
   one request, or a batch of requests sent one after another; it is
   timed from its first send to its last reply, overload retries
   included. *)

module P = Fg_server.Protocol
module Json = Fg_util.Json

type cls = Write | Read | Other

type part = {
  make : int -> P.request;  (** the request, given its wire id *)
  check : P.response -> bool;  (** does the reply match the reference? *)
}

type op = {
  key : string;  (** the input this operation belongs to *)
  cls : cls;
  parts : part list;  (** one request, or a batch *)
}

type sample = {
  s_key : string;
  s_cls : cls;
  s_ms : float;  (** the operation's time over its number of requests *)
  s_n : int;  (** requests *)
  s_bad : int;  (** requests whose reply did not match *)
  s_reply : string;  (** status and payload of the first wrong reply *)
  s_t0 : int;  (** start and end of the operation, ns *)
  s_t1 : int;
}

type conn = {
  fd : Unix.file_descr;
  dec : P.decoder;
  tr : Spans.t option;  (** codec spans, in the traced run *)
}

let conn fd = { fd; dec = P.decoder (); tr = None }

(* Operation ids, unique for the whole run: every request of an
   operation (its batch, its overload retries) carries the operation's
   id on the wire, and every span of it, daemon phase or in-process
   replay, is tagged with that id. *)
let last_id = ref 0

let fresh_id () =
  incr last_id;
  !last_id

let send c (req : P.request) =
  let frame =
    Spans.with_span c.tr "protocol.encode" (fun () ->
        P.frame_of_string (Json.to_string (P.request_to_json req)))
  in
  let rec write off =
    if off < Bytes.length frame then
      write (off + Unix.write c.fd frame off (Bytes.length frame - off))
  in
  write 0

let rec recv c : P.response =
  match P.next_frame c.dec with
  | `Frame s -> (
      let decoded =
        Spans.with_span c.tr "protocol.decode" (fun () ->
            Result.bind (Json.of_string s) P.response_of_json)
      in
      match decoded with Ok r -> r | Error e -> failwith ("bad response: " ^ e))
  | `Await ->
      if P.read_chunk c.dec c.fd then recv c
      else failwith "daemon closed the connection"
  | `Error e -> failwith ("bad frame: " ^ e)

(* One blocking request/reply. *)
let call c req =
  send c req;
  let r = recv c in
  if r.P.r_id <> req.P.id then
    failwith (Printf.sprintf "reply to id %d, sent %d" r.P.r_id req.P.id);
  r

let max_overload_retries = 64

type result = { samples : sample list; retries : int }

(* Run [ops] one after another.  Replies are checked after the last
   one, so checking takes no time from the measured loop. *)
let run c ops =
  let retries = ref 0 and backoff = ref (Fg_util.Prng.make 1) in
  let rec attempt id (p : part) k =
    let r = call c (p.make id) in
    if r.P.r_status = P.Overload && k < max_overload_retries then begin
      incr retries;
      let ms, rng = Fg_server.Client.backoff_ms !backoff ~attempt:k in
      backoff := rng;
      Unix.sleepf (float_of_int ms /. 1000.);
      attempt id p (k + 1)
    end
    else r
  in
  let timed =
    List.map
      (fun op ->
        let id = fresh_id () in
        Spans.set_request_opt c.tr id;
        let t0 = Spans.now_ns () in
        let replies = List.map (fun p -> attempt id p 0) op.parts in
        (op, t0, Spans.now_ns (), replies))
      ops
  in
  let sample (op, t0, t1, replies) =
    let n = List.length op.parts in
    let bad =
      List.filter (fun (p, r) -> not (p.check r)) (List.combine op.parts replies)
    in
    {
      s_key = op.key;
      s_cls = op.cls;
      s_ms = float_of_int (t1 - t0) /. 1e6 /. float_of_int n;
      s_n = n;
      s_bad = List.length bad;
      s_reply =
        (match bad with
        | [] -> ""
        | (_, r) :: _ -> P.status_name r.P.r_status ^ " " ^ r.P.r_payload);
      s_t0 = t0;
      s_t1 = t1;
    }
  in
  { samples = List.map sample timed; retries = !retries }
