(* Ops-server layer: HTTP surface over live telemetry, flamegraph export
   goldens, incremental journal tailing, and — the property the whole
   design stands on — byte-identical journals and state hashes with the
   server on or off. *)

module Telemetry = Zkdet_telemetry.Telemetry
module Report = Zkdet_telemetry.Telemetry.Report
module Json = Zkdet_telemetry.Json
module Ops = Zkdet_ops.Ops
module Flame = Zkdet_ops.Flame
module Obs = Zkdet_obs.Obs
module Event = Zkdet_obs.Event
module Journal = Zkdet_obs.Journal
module Audit = Zkdet_obs.Audit
module Scenario = Zkdet_core.Scenario
module Chain = Zkdet_chain.Chain

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* ---- flamegraph export goldens ---- *)

let span ?(children = []) name total_ns : Report.span =
  {
    Report.span_name = name;
    calls = 1;
    total_ns;
    minor_words = 0.;
    major_words = 0.;
    minor_gcs = 0;
    major_gcs = 0;
    children;
  }

(* Fixed tree: root(1000)[a(600)[b(250)], c(100)].  Self times must be
   root 300, a 350, b 250, c 100 — stacking them reproduces each parent's
   total, which is the invariant flamegraph tooling expects. *)
let golden_tree =
  [
    span "root" 1000
      ~children:
        [ span "a" 600 ~children:[ span "b" 250 ]; span "c" 100 ];
  ]

let flame_collapsed_golden () =
  Alcotest.(check string)
    "collapsed stacks"
    "root 300\nroot;a 350\nroot;a;b 250\nroot;c 100\n"
    (Flame.collapsed golden_tree)

let flame_sanitizes_names () =
  let t = [ span "we ird;na me" 10 ] in
  Alcotest.(check string) "separators rewritten" "we_ird_na_me 10\n"
    (Flame.collapsed t)

let flame_speedscope_golden () =
  let j = Flame.speedscope ~name:"golden" golden_tree in
  let txt = Json.to_string j in
  match Json.parse txt with
  | Error e -> Alcotest.failf "speedscope output unparseable: %s" e
  | Ok (Json.Obj fields) ->
    (match List.assoc_opt "$schema" fields with
    | Some (Json.String s) ->
      Alcotest.(check string) "schema url"
        "https://www.speedscope.app/file-format-schema.json" s
    | _ -> Alcotest.fail "$schema missing");
    let profile =
      match List.assoc_opt "profiles" fields with
      | Some (Json.List [ Json.Obj p ]) -> p
      | _ -> Alcotest.fail "expected exactly one profile"
    in
    (match List.assoc_opt "unit" profile with
    | Some (Json.String u) -> Alcotest.(check string) "unit" "nanoseconds" u
    | _ -> Alcotest.fail "unit missing");
    let weights =
      match List.assoc_opt "weights" profile with
      | Some (Json.List ws) ->
        List.map (function Json.Int w -> w | _ -> Alcotest.fail "bad weight") ws
      | _ -> Alcotest.fail "weights missing"
    in
    Alcotest.(check (list int)) "weights are self times" [ 300; 350; 250; 100 ]
      weights;
    (match List.assoc_opt "endValue" profile with
    | Some (Json.Int e) -> Alcotest.(check int) "endValue = total self" 1000 e
    | _ -> Alcotest.fail "endValue missing");
    (match List.assoc_opt "shared" fields with
    | Some (Json.Obj [ ("frames", Json.List frames) ]) ->
      Alcotest.(check int) "one frame per distinct name" 4 (List.length frames)
    | _ -> Alcotest.fail "shared.frames missing")
  | Ok _ -> Alcotest.fail "speedscope output is not an object"

(* ---- HTTP surface ---- *)

(* Minimal blocking HTTP client; returns (status, body). *)
let http_request port ~meth path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\n\r\n" meth path
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let b = Buffer.create 4096 in
      let buf = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes b buf 0 n;
          drain ()
      in
      drain ();
      let raw = Buffer.contents b in
      let status =
        match String.split_on_char ' ' raw with
        | _ :: code :: _ -> int_of_string code
        | _ -> Alcotest.failf "malformed response %S" raw
      in
      let body =
        let rec find i =
          if i + 3 >= String.length raw then
            Alcotest.failf "no header terminator in %S" raw
          else if String.sub raw i 4 = "\r\n\r\n" then
            String.sub raw (i + 4) (String.length raw - i - 4)
          else find (i + 1)
        in
        find 0
      in
      (status, body))

let http_get port path = http_request port ~meth:"GET" path

let with_server ?extra f =
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Telemetry.set_window_enabled true;
  let server = Ops.start ~port:0 (Ops.routes ?extra ()) in
  Fun.protect
    ~finally:(fun () ->
      Ops.stop server;
      Telemetry.set_window_enabled false;
      Telemetry.set_enabled false)
    (fun () -> f (Ops.port server))

let record_some_telemetry () =
  Telemetry.with_span "ops.test.outer" (fun () ->
      Telemetry.with_span "ops.test.inner" (fun () ->
          Telemetry.count "ops.test.counter" 7));
  for i = 1 to 20 do
    Telemetry.observe "ops.test.lat" (float_of_int i)
  done

let test_healthz () =
  with_server @@ fun port ->
  let status, body = http_get port "/healthz" in
  Alcotest.(check int) "status" 200 status;
  Alcotest.(check string) "body" "ok\n" body

let test_metrics_live_and_conformant () =
  with_server @@ fun port ->
  record_some_telemetry ();
  let status, body = http_get port "/metrics" in
  Alcotest.(check int) "status" 200 status;
  let fams =
    try Test_util.Prom.parse body
    with Failure m -> Alcotest.failf "/metrics not conformant: %s" m
  in
  let has n = Test_util.Prom.find fams n <> None in
  Alcotest.(check bool) "live counter family" true (has "zkdet_ops_test_counter");
  Alcotest.(check bool) "span GC family" true (has "zkdet_span_minor_words");
  Alcotest.(check bool) "rolling window rate" true (has "zkdet_window_rate");
  Alcotest.(check bool) "process GC gauge" true (has "zkdet_process_minor_words")

let test_spans_and_flame_endpoints () =
  with_server @@ fun port ->
  record_some_telemetry ();
  let status, body = http_get port "/spans" in
  Alcotest.(check int) "spans status" 200 status;
  (match Json.parse body with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "/spans not JSON: %s" e);
  let status, body = http_get port "/flame" in
  Alcotest.(check int) "flame status" 200 status;
  Alcotest.(check bool) "collapsed stack present" true
    (String.length body > 0
    && List.exists
         (fun line ->
           String.length line >= 14 && String.sub line 0 14 = "ops.test.outer")
         (String.split_on_char '\n' body));
  let status, body = http_get port "/flame?fmt=speedscope" in
  Alcotest.(check int) "speedscope status" 200 status;
  (match Json.parse body with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "/flame speedscope not JSON: %s" e);
  let status, _ = http_get port "/flame?fmt=bogus" in
  Alcotest.(check int) "unknown fmt rejected" 400 status

let test_errors_and_extra () =
  let extra () =
    "# HELP zkdet_extra_gauge Test injection.\n\
     # TYPE zkdet_extra_gauge gauge\n\
     zkdet_extra_gauge 7\n"
  in
  with_server ~extra @@ fun port ->
  let status, _ = http_get port "/nope" in
  Alcotest.(check int) "unknown path" 404 status;
  let status, _ = http_request port ~meth:"POST" "/metrics" in
  Alcotest.(check int) "non-GET rejected" 405 status;
  let status, body = http_get port "/metrics" in
  Alcotest.(check int) "metrics ok" 200 status;
  let fams =
    try Test_util.Prom.parse body
    with Failure m -> Alcotest.failf "/metrics not conformant: %s" m
  in
  match Test_util.Prom.find fams "zkdet_extra_gauge" with
  | Some f ->
    (match f.Test_util.Prom.f_samples with
    | [ s ] -> Alcotest.(check (float 0.0)) "extra value" 7.0 s.Test_util.Prom.s_value
    | _ -> Alcotest.fail "extra gauge sample count")
  | None -> Alcotest.fail "extra () not appended to /metrics"

(* ---- misbehaving clients ---- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* Run [f] on a thread; whether it returned within [secs], and the
   thread, which the caller joins once whatever blocks [f] is gone. *)
let returns_within secs f =
  let finished = Atomic.make false in
  let th = Thread.create (fun () -> f (); Atomic.set finished true) () in
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get finished)) && Unix.gettimeofday () -. t0 < secs do
    Thread.delay 0.05
  done;
  (Atomic.get finished, th)

(* A connection that never sends its request holds the single accept
   thread for at most the receive deadline: a concurrent scrape is
   answered after it, and [Ops.stop] returns. *)
let test_idle_client () =
  let server = Ops.start ~port:0 (Ops.routes ()) in
  let port = Ops.port server in
  let bound = Ops.receive_deadline_s +. 1.5 in
  let idle = connect port in
  Thread.delay 0.3;
  let status = ref 0 in
  let answered, scrape =
    returns_within bound (fun () -> status := fst (http_get port "/healthz"))
  in
  let idle' = connect port in
  Thread.delay 0.3;
  let stopped, stop = returns_within bound (fun () -> Ops.stop server) in
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ idle; idle' ];
  Thread.join scrape;
  Thread.join stop;
  Alcotest.(check bool) "scrape answered within the deadline" true answered;
  Alcotest.(check int) "scrape status" 200 !status;
  Alcotest.(check bool) "stop returned within the deadline" true stopped

(* A client that sends its request and never reads a response larger
   than the socket buffers holds the single accept thread for at most the
   send deadline: a concurrent scrape is answered after it, and
   [Ops.stop] returns.  Closing the clients at the end frees a server
   that has no deadline, so the checks fail there instead of hanging. *)
let test_unread_response () =
  let big = String.make (64 lsl 20) 'x' in
  let handler ~path ~query =
    if path = "/big" then Ops.text 200 big else Ops.routes () ~path ~query
  in
  let server = Ops.start ~port:0 handler in
  let port = Ops.port server in
  let bound = Ops.send_deadline_s +. 1.0 in
  let unread () =
    let fd = connect port in
    let req = "GET /big HTTP/1.1\r\nHost: localhost\r\n\r\n" in
    ignore (Unix.write_substring fd req 0 (String.length req));
    Thread.delay 0.3;
    fd
  in
  let first = unread () in
  let status = ref 0 in
  let answered, scrape =
    returns_within bound (fun () -> status := fst (http_get port "/healthz"))
  in
  let second = unread () in
  let stopped, stop = returns_within bound (fun () -> Ops.stop server) in
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ first; second ];
  Thread.join scrape;
  Thread.join stop;
  Alcotest.(check bool) "scrape answered within the deadline" true answered;
  Alcotest.(check int) "scrape status" 200 !status;
  Alcotest.(check bool) "stop returned within the deadline" true stopped

(* A client that resets its connection, right after sending its
   request or before sending anything, makes the server's read or write
   fail: the client left, and the server goes on to answer the next one.
   A write after the read saw the reset raises SIGPIPE, which must not
   kill the process. *)
let test_reset_client () =
  with_server @@ fun port ->
  let req = "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n" in
  List.iter
    (fun sent ->
      let fd = connect port in
      ignore (Unix.write_substring fd sent 0 (String.length sent));
      (* linger 0: close sends a reset *)
      Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
      Unix.close fd;
      Thread.delay 0.3)
    [ req; ""; req; "" ];
  let status, body = http_get port "/healthz" in
  Alcotest.(check int) "next request answered" 200 status;
  Alcotest.(check string) "body" "ok\n" body

(* Read what the server sends until it closes; the status code, or 0 for
   no response. *)
let read_status fd =
  let b = Buffer.create 256 and buf = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b buf 0 n;
      drain ()
    | exception Unix.Unix_error _ -> ()
  in
  drain ();
  match String.split_on_char ' ' (Buffer.contents b) with
  | _ :: code :: _ -> int_of_string code
  | _ -> 0

(* A half-open client sends its request line and headers, then shuts
   down its sending side before the blank line: the end of its stream
   ends the request, which is answered at once rather than at the
   receive deadline, and the server goes on serving. *)
let test_half_open_client () =
  with_server @@ fun port ->
  let fd = connect port in
  let partial = "GET /healthz HTTP/1.1\r\nHost: localhost\r\n" in
  ignore (Unix.write_substring fd partial 0 (String.length partial));
  let t0 = Unix.gettimeofday () in
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let status = read_status fd in
  let elapsed = Unix.gettimeofday () -. t0 in
  Unix.close fd;
  Alcotest.(check int) "half-open request answered" 200 status;
  Alcotest.(check bool)
    (Printf.sprintf "answered in %.3f s, well inside the %.1f s deadline" elapsed
       Ops.receive_deadline_s)
    true
    (elapsed < Ops.receive_deadline_s /. 4.);
  let status, body = http_get port "/healthz" in
  Alcotest.(check int) "next request answered" 200 status;
  Alcotest.(check string) "body" "ok\n" body

(* A client that sends half a request line and closes gets a 400 it never
   reads; the next scrape is unaffected. *)
let test_truncated_request_line () =
  with_server @@ fun port ->
  let fd = connect port in
  let half = "GET /metr" in
  ignore (Unix.write_substring fd half 0 (String.length half));
  Unix.close fd;
  Thread.delay 0.2;
  let status, body = http_get port "/metrics" in
  Alcotest.(check int) "next scrape answered" 200 status;
  ignore (Test_util.Prom.parse body)

(* The process's open descriptors, where /proc/self/fd lists them. *)
let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

(* 1000 back-to-back scrapes are all answered, and the server closes
   every connection it accepted: the descriptor count ends where it
   started. *)
let test_back_to_back_scrapes () =
  with_server @@ fun port ->
  record_some_telemetry ();
  let before = open_fds () in
  let failures = ref 0 in
  for _ = 1 to 1000 do
    if fst (http_get port "/metrics") <> 200 then incr failures
  done;
  Alcotest.(check int) "scrapes not answered 200" 0 !failures;
  match (before, open_fds ()) with
  | Some b, Some a -> Alcotest.(check int) "open descriptors" b a
  | _ -> ()

(* ---- journal tail reader ---- *)

let hex16 i = Printf.sprintf "%016x" i

let test_tail_progressive () =
  let path = tmp "ops_tail.zjnl" in
  let w = Journal.create_writer path in
  let append i ev = Journal.append w ~trace_id:(hex16 1) ~span_id:(hex16 i) ~parent:None ev in
  append 0 (Event.Trace_begin { label = "t" });
  let t = Journal.create_tail path in
  (match Journal.poll_tail t with
  | Ok [ e ] -> Alcotest.(check int) "first record" 0 e.Journal.seq
  | Ok es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)
  | Error e -> Alcotest.failf "poll failed: %s" (Journal.error_to_string e));
  append 1 (Event.Proof_verified { system = "plonk"; ok = true });
  append 2 (Event.Trace_end { label = "t"; ok = true });
  (match Journal.poll_tail t with
  | Ok [ a; b ] ->
    Alcotest.(check int) "second record" 1 a.Journal.seq;
    Alcotest.(check int) "third record" 2 b.Journal.seq
  | Ok es -> Alcotest.failf "expected 2 new entries, got %d" (List.length es)
  | Error e -> Alcotest.failf "poll failed: %s" (Journal.error_to_string e));
  (match Journal.poll_tail t with
  | Ok [] -> ()
  | Ok es -> Alcotest.failf "expected no new entries, got %d" (List.length es)
  | Error e -> Alcotest.failf "poll failed: %s" (Journal.error_to_string e));
  Journal.close_writer w;
  Alcotest.(check int) "consumed everything" 3 (Journal.tail_seq t)

let test_tail_partial_frame () =
  (* A frame split across polls is a wait, not an error. *)
  let src = tmp "ops_tail_src.zjnl" in
  let w = Journal.create_writer src in
  let append i ev = Journal.append w ~trace_id:(hex16 2) ~span_id:(hex16 i) ~parent:None ev in
  append 0 (Event.Trace_begin { label = "p" });
  append 1 (Event.Trace_end { label = "p"; ok = true });
  Journal.close_writer w;
  let full = read_file src in
  let cut = String.length full - 7 in
  let dst = tmp "ops_tail_cut.zjnl" in
  write_file dst (String.sub full 0 cut);
  let t = Journal.create_tail dst in
  (match Journal.poll_tail t with
  | Ok [ e ] -> Alcotest.(check int) "complete prefix consumed" 0 e.Journal.seq
  | Ok es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)
  | Error e ->
    Alcotest.failf "partial frame treated as error: %s"
      (Journal.error_to_string e));
  write_file dst full;
  match Journal.poll_tail t with
  | Ok [ e ] -> Alcotest.(check int) "finished frame consumed" 1 e.Journal.seq
  | Ok es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)
  | Error e -> Alcotest.failf "poll failed: %s" (Journal.error_to_string e)

let test_tail_tamper () =
  let src = tmp "ops_tail_tamper.zjnl" in
  let w = Journal.create_writer src in
  Journal.append w ~trace_id:(hex16 3) ~span_id:(hex16 0) ~parent:None
    (Event.Trace_begin { label = "x" });
  Journal.append w ~trace_id:(hex16 3) ~span_id:(hex16 0) ~parent:None
    (Event.Trace_end { label = "x"; ok = true });
  Journal.close_writer w;
  let bytes = Bytes.of_string (read_file src) in
  (* Flip the last byte: it sits inside the final record's chain hash. *)
  let last = Bytes.length bytes - 1 in
  Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 1));
  write_file src (Bytes.to_string bytes);
  let t = Journal.create_tail src in
  match Journal.poll_tail t with
  | Error (Journal.Hash_mismatch _) -> ()
  | Error e ->
    Alcotest.failf "expected Hash_mismatch, got %s" (Journal.error_to_string e)
  | Ok _ -> Alcotest.fail "tampered journal accepted"

(* ---- partial audit + incremental stats ---- *)

let test_audit_partial_and_stats () =
  let path = tmp "ops_partial.zjnl" in
  Obs.set_journal_path (Some path);
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_journal_path None) @@ fun () ->
  (* A run cut mid-trace: begin without end. *)
  Obs.with_trace "half" (fun () ->
      Obs.emit (Event.Proof_verified { system = "plonk"; ok = true }));
  Obs.close ();
  let entries =
    match Journal.read_file path with
    | Ok es -> es
    | Error e -> Alcotest.failf "journal: %s" (Journal.error_to_string e)
  in
  (* Chop off the trailing Trace_end to simulate a live tail mid-trace. *)
  let truncated = List.filteri (fun i _ -> i < List.length entries - 1) entries in
  let strict = Audit.run truncated in
  Alcotest.(check bool) "strict audit flags the unterminated trace" false
    strict.Audit.ok;
  let relaxed = Audit.run ~partial:true truncated in
  Alcotest.(check bool) "partial audit tolerates it" true relaxed.Audit.ok;
  let stats = List.fold_left Audit.stats_add Audit.empty_stats entries in
  Alcotest.(check int) "entries counted" (List.length entries)
    stats.Audit.st_entries;
  Alcotest.(check int) "last seq" (List.length entries - 1)
    stats.Audit.st_last_seq;
  Alcotest.(check int) "traces begun" 1 stats.Audit.st_traces_begun;
  Alcotest.(check int) "traces ended" 1 stats.Audit.st_traces_ended;
  Alcotest.(check int) "proofs verified" 1 stats.Audit.st_proofs_verified

(* ---- the determinism argument ---- *)

(* Journal bytes and the final state hash must be byte-identical whether
   the ops server (and its rolling windows) is running or not: the
   server only reads snapshots. *)
let test_serve_determinism () =
  let run name serve =
    let path = tmp name in
    Obs.set_journal_path (Some path);
    Obs.reset ();
    Fun.protect ~finally:(fun () -> Obs.set_journal_path None) @@ fun () ->
    let cfg =
      {
        Scenario.Config.default with
        Scenario.Config.seed = 11;
        accounts = 16;
        datasets = 8;
        blocks = 3;
        txs_per_block = 8;
        work = 4;
        serve;
      }
    in
    let o = Scenario.load cfg in
    Obs.close ();
    (read_file path, Chain.state_hash o.Scenario.load_chain)
  in
  let ja, ha = run "ops_det_off.zjnl" None in
  let jb, hb = run "ops_det_on.zjnl" (Some 0) in
  Alcotest.(check bool) "journal bytes identical with server on" true
    (String.equal ja jb);
  Alcotest.(check string) "state hash identical with server on" ha hb

let () =
  Alcotest.run "ops"
    [ ( "flame",
        [ Alcotest.test_case "collapsed golden" `Quick flame_collapsed_golden;
          Alcotest.test_case "frame name sanitization" `Quick
            flame_sanitizes_names;
          Alcotest.test_case "speedscope golden" `Quick flame_speedscope_golden
        ] );
      ( "http",
        [ Alcotest.test_case "healthz" `Quick test_healthz;
          Alcotest.test_case "metrics live and conformant" `Quick
            test_metrics_live_and_conformant;
          Alcotest.test_case "spans and flame endpoints" `Quick
            test_spans_and_flame_endpoints;
          Alcotest.test_case "errors and extra gauges" `Quick
            test_errors_and_extra;
          Alcotest.test_case "idle client blocks no scrape or stop" `Quick
            test_idle_client;
          Alcotest.test_case "reset client leaves the server up" `Quick
            test_reset_client;
          Alcotest.test_case "unread reply blocks no scrape or stop" `Quick
            test_unread_response;
          Alcotest.test_case "half-open client answered at once" `Quick
            test_half_open_client;
          Alcotest.test_case "half a request line, then close" `Quick
            test_truncated_request_line;
          Alcotest.test_case "1000 scrapes leak no descriptor" `Quick
            test_back_to_back_scrapes ] );
      ( "tail",
        [ Alcotest.test_case "progressive consumption" `Quick
            test_tail_progressive;
          Alcotest.test_case "partial frame is a wait" `Quick
            test_tail_partial_frame;
          Alcotest.test_case "tamper breaks the chain" `Quick test_tail_tamper
        ] );
      ( "audit",
        [ Alcotest.test_case "partial mode and incremental stats" `Quick
            test_audit_partial_and_stats ] );
      ( "determinism",
        [ Alcotest.test_case "journal identical with server on or off" `Quick
            test_serve_determinism ] ) ]
