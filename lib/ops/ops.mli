(** Minimal in-process HTTP/1.1 ops server (plain [Unix] + [Thread], no
    external dependencies).

    The server is strictly read-only: handlers take snapshots of live
    telemetry and never mutate protocol state, so journals, proof bytes
    and state hashes are byte-identical whether the server runs or not.
    One accept thread serves one request per connection
    ([Connection: close]); scrape traffic is low-rate by construction.
    A client that does not send its request holds that thread for at most
    {!receive_deadline_s}, one that does not read its response for at
    most {!send_deadline_s}, and one that resets mid-response is dropped:
    the server ignores SIGPIPE. *)

type response = { status : int; content_type : string; body : string }

type handler = path:string -> query:(string * string) list -> response
(** [query] is the decoded [k=v] list from the request target.  Any
    exception raised by a handler is converted to a 500 response. *)

type t

val receive_deadline_s : float
(** Seconds a connection has to send its request header, after which it
    is answered 408 and closed. *)

val send_deadline_s : float
(** Seconds a response may take to send, from its first byte; a client
    that has not taken it all by then is dropped. *)

val start : ?host:string -> port:int -> handler -> t
(** Bind [host:port] (default host 127.0.0.1; port 0 picks a free port —
    read it back with {!port}), spawn the accept thread and return the
    running server.  Sets SIGPIPE to ignored for the process.  Raises
    [Unix.Unix_error] if the bind fails. *)

val port : t -> int
(** The actually-bound port. *)

val stop : t -> unit
(** Signal the accept loop, join the thread and close the listen socket.
    Idempotent. *)

val routes : ?extra:(unit -> string) -> unit -> handler
(** The standard route table:
    - [GET /healthz] — ["ok\n"];
    - [GET /metrics] — Prometheus text: deterministic snapshot families,
      rolling-window gauges, process GC gauges, then [extra ()]
      (journal-derived gauges in [zkdet serve]; defaults to empty);
    - [GET /spans] — the span/counter/histogram report as JSON;
    - [GET /flame?fmt=collapsed|speedscope] — flamegraph export of the
      current span tree (default [collapsed]).

    Unknown paths return 404; non-GET methods 405. *)

val text : int -> string -> response
(** Plain-text response with the given status. *)

val json : int -> string -> response
(** [application/json] response with the given status. *)
