(* In-process ops server: a minimal HTTP/1.1 endpoint over Unix sockets.

   Design constraints (see DESIGN.md "Ops server & continuous
   profiling"):

   - read-only: handlers only take snapshots of telemetry / journal
     state; they never mutate protocol state, so proof bytes, journals
     and state hashes are byte-identical with the server on or off;
   - dependency-free: plain [Unix] + [Thread], no HTTP framework;
   - single accept thread, one request per connection
     ([Connection: close]).  Scrape traffic (Prometheus, curl) is low
     rate; simplicity beats throughput here;
   - a client that has not sent its request header [receive_deadline_s]
     after it connected is answered 408 and dropped; one that has not
     taken its whole response [send_deadline_s] after the write began,
     or that resets mid-response (SIGPIPE is ignored), is one that
     left.

   The accept loop polls with [Unix.select] at 200 ms so [stop] can
   flip an atomic and join the thread without platform-dependent
   close-to-wake-accept behaviour. *)

module Telemetry = Zkdet_telemetry.Telemetry
module Json = Zkdet_telemetry.Json

type response = { status : int; content_type : string; body : string }

type handler = path:string -> query:(string * string) list -> response

type t = {
  sock : Unix.file_descr;
  port : int;
  stopped : bool Atomic.t;
  mutable thread : Thread.t option;
}

let text status body = { status; content_type = "text/plain; charset=utf-8"; body }
let json status body = { status; content_type = "application/json"; body }

let status_reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

(* ---- request parsing ---- *)

let percent_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> raise Exit
  in
  let i = ref 0 in
  (try
     while !i < n do
       (match s.[!i] with
       | '%' when !i + 2 < n ->
         Buffer.add_char b (Char.chr ((hex s.[!i + 1] * 16) + hex s.[!i + 2]));
         i := !i + 2
       | '+' -> Buffer.add_char b ' '
       | c -> Buffer.add_char b c);
       incr i
     done
   with Exit -> (* malformed escape: keep the raw tail *)
     Buffer.add_substring b s !i (n - !i));
  Buffer.contents b

let parse_query q =
  String.split_on_char '&' q
  |> List.filter_map (fun kv ->
         if kv = "" then None
         else
           match String.index_opt kv '=' with
           | None -> Some (percent_decode kv, "")
           | Some i ->
             Some
               ( percent_decode (String.sub kv 0 i),
                 percent_decode
                   (String.sub kv (i + 1) (String.length kv - i - 1)) ))

type request = { meth : string; path : string; query : (string * string) list }

let receive_deadline_s = 2.0

let terminator = "\r\n\r\n"

(* Read until the end of the header block (we ignore headers and any
   body: every supported route is a bodyless GET), or until the receive
   deadline.  [matched] counts the terminator's bytes that end what was
   read so far, so each read scans only its new bytes. *)
let read_request fd : (request, response) result =
  let deadline = Unix.gettimeofday () +. receive_deadline_s in
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 256 in
  let rec fill matched =
    if Buffer.length acc > 65536 then Error (text 400 "request too large\n")
    else
      (* a negative timeout would make select wait for ever *)
      match Unix.select [ fd ] [] [] (Float.max 0. (deadline -. Unix.gettimeofday ())) with
      | [], _, _ -> Error (text 408 "request timeout\n")
      | _ :: _, _, _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 ->
          if Buffer.length acc = 0 then Error (text 400 "empty request\n")
          else Ok (Buffer.contents acc)
        | n ->
          Buffer.add_subbytes acc buf 0 n;
          let rec scan i matched =
            if matched = 4 then Ok (Buffer.contents acc)
            else if i = n then fill matched
            else
              let c = Bytes.get buf i in
              scan (i + 1)
                (if c = terminator.[matched] then matched + 1
                 else if c = '\r' then 1
                 else 0)
          in
          scan 0 matched
        | exception Unix.Unix_error _ -> Error (text 400 "read error\n"))
      | exception Unix.Unix_error _ -> Error (text 408 "request timeout\n")
  in
  match fill 0 with
  | Error e -> Error e
  | Ok raw -> (
    let first_line =
      match String.index_opt raw '\r' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    match String.split_on_char ' ' first_line with
    | [ meth; target; _version ] ->
      let path, query =
        match String.index_opt target '?' with
        | None -> (target, [])
        | Some i ->
          ( String.sub target 0 i,
            parse_query
              (String.sub target (i + 1) (String.length target - i - 1)) )
      in
      Ok { meth; path = percent_decode path; query }
    | _ -> Error (text 400 "malformed request line\n"))

let send_deadline_s = 2.0

(* Write on a non-blocking fd, waiting in [select] on what remains of the
   send deadline: a client that stops reading a response larger than the
   socket buffers holds the accept thread for at most the deadline. Its
   passing raises as a failed write does, so the client is one that
   left. *)
let write_response fd (r : response) =
  let deadline = Unix.gettimeofday () +. send_deadline_s in
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
      r.status (status_reason r.status) r.content_type
      (String.length r.body)
  in
  Unix.set_nonblock fd;
  let writable () =
    let wait = deadline -. Unix.gettimeofday () in
    (* a negative timeout would make select wait for ever *)
    wait > 0. && match Unix.select [] [ fd ] [] wait with _, [], _ -> false | _ -> true
  in
  let rec write_all s off =
    let left = String.length s - off in
    if left > 0 then begin
      if not (writable ()) then raise (Unix.Unix_error (Unix.ETIMEDOUT, "write", ""));
      let n =
        try Unix.single_write_substring fd s off left
        with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
      in
      write_all s (off + n)
    end
  in
  write_all head 0;
  write_all r.body 0

(* ---- built-in routes ---- *)

let process_gc_prometheus () =
  let g = Gc.quick_stat () in
  let b = Buffer.create 512 in
  let gauge name help v =
    Telemetry.Report.prom_family b name ~typ:`Gauge ~help [ ("", [], v) ]
  in
  gauge "zkdet_process_minor_words"
    "Process-lifetime minor-heap words allocated."
    (Printf.sprintf "%.0f" g.Gc.minor_words);
  gauge "zkdet_process_major_words"
    "Process-lifetime major-heap words allocated."
    (Printf.sprintf "%.0f" g.Gc.major_words);
  gauge "zkdet_process_heap_words" "Current major heap size in words."
    (string_of_int g.Gc.heap_words);
  gauge "zkdet_process_minor_collections" "Minor collections since start."
    (string_of_int g.Gc.minor_collections);
  gauge "zkdet_process_major_collections" "Major collections since start."
    (string_of_int g.Gc.major_collections);
  gauge "zkdet_process_compactions" "Heap compactions since start."
    (string_of_int g.Gc.compactions);
  Buffer.contents b

let routes ?(extra = fun () -> "") () : handler =
 fun ~path ~query ->
  match path with
  | "/healthz" -> text 200 "ok\n"
  | "/metrics" ->
    let report = Telemetry.Report.to_prometheus (Telemetry.snapshot ()) in
    let windows = Telemetry.window_to_prometheus () in
    text 200 (report ^ windows ^ process_gc_prometheus () ^ extra ())
  | "/spans" ->
    json 200
      (Json.to_string (Telemetry.Report.to_json (Telemetry.snapshot ())))
  | "/flame" -> (
    let spans = (Telemetry.snapshot ()).Telemetry.Report.spans in
    match List.assoc_opt "fmt" query with
    | None | Some "collapsed" -> text 200 (Flame.collapsed spans)
    | Some "speedscope" -> json 200 (Json.to_string (Flame.speedscope spans))
    | Some other ->
      text 400
        (Printf.sprintf
           "unknown fmt %S (expected \"collapsed\" or \"speedscope\")\n" other))
  | _ -> text 404 "not found\n"

(* ---- server lifecycle ---- *)

let handle_connection handler fd =
  (* A failed write (EPIPE, ECONNRESET, the send deadline) is a client
     that left. *)
  let respond resp = try write_response fd resp with Unix.Unix_error _ -> () in
  (match read_request fd with
  | Error resp -> respond resp
  | Ok req ->
    respond
      (if req.meth <> "GET" then text 405 "only GET is supported\n"
       else
         try handler ~path:req.path ~query:req.query
         with exn ->
           text 500 (Printf.sprintf "handler error: %s\n" (Printexc.to_string exn))));
  try Unix.close fd with _ -> ()

let accept_loop t handler =
  while not (Atomic.get t.stopped) do
    match Unix.select [ t.sock ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept t.sock with
      | fd, _ -> handle_connection handler fd
      | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  done

let start ?(host = "127.0.0.1") ~port handler =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen sock 16
   with exn ->
     (try Unix.close sock with _ -> ());
     raise exn);
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t = { sock; port; stopped = Atomic.make false; thread = None } in
  t.thread <- Some (Thread.create (fun () -> accept_loop t handler) ());
  t

let port t = t.port

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    (match t.thread with Some th -> Thread.join th | None -> ());
    try Unix.close t.sock with _ -> ()
  end
