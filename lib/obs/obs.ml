(* Deterministic trace-context runtime.

   One exchange = one trace; each instrumented layer (protocol step,
   chain tx, proof system, storage) opens spans under the ambient trace
   and emits typed {!Event.t}s.  When [ZKDET_JOURNAL=path] is set (or
   {!set_journal_path} is called) every event is appended to a
   hash-chained ZJNL journal; otherwise emission is a no-op costing one
   atomic load.

   Identity is derived from process-local counters hashed with SHA-256 —
   never from wall clocks, PIDs or [Random.self_init] — so two runs of
   the same seeded scenario produce byte-identical journals at any
   [ZKDET_DOMAINS] count.  {!reset} rewinds the counters (tests run
   several scenarios per process and want each journal to start from
   trace 0).

   Events are emitted from the initial domain only: journal order is its
   program order, which is what makes journals deterministic.  Every
   entry that takes the state lock (all of them, while journaling is
   on) raises [Invalid_argument] on any other domain, so a stray
   emission from a worker fails loudly instead of interleaving.  The
   lock itself guards against threads of the initial domain. *)

module Sha256 = Zkdet_hash.Sha256

module Trace_ctx = struct
  type t = { trace_id : string; span_id : string; parent : string option }
end

let enabled = Atomic.make false

type state = {
  mutable stack : Trace_ctx.t list;  (** innermost span first *)
  mutable trace_count : int;
  mutable span_count : int;
  mutable writer : Journal.writer option;
  mutable path : string option;
}

let state =
  { stack = []; trace_count = 0; span_count = 0; writer = None; path = None }

let lock = Mutex.create ()

let with_lock f =
  if not (Domain.is_main_domain ()) then
    invalid_arg "Obs: journal events are emitted from the initial domain only";
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* First 16 hex chars of SHA-256: short enough to read in a timeline,
   long enough that ids never collide within a journal. *)
let short_hash (s : string) : string = String.sub (Sha256.digest_hex s) 0 16

let fresh_trace_id label =
  let n = state.trace_count in
  state.trace_count <- n + 1;
  short_hash (Printf.sprintf "trace/%d/%s" n label)

let fresh_span_id ~trace_id name =
  let n = state.span_count in
  state.span_count <- n + 1;
  short_hash (Printf.sprintf "span/%s/%d/%s" trace_id n name)

let write_event (ctx : Trace_ctx.t) (event : Event.t) =
  match state.writer with
  | None -> ()
  | Some w ->
      Journal.append w ~trace_id:ctx.trace_id ~span_id:ctx.span_id
        ~parent:ctx.parent event

(* An event emitted outside any [with_trace] still needs an identity:
   open an ambient trace lazily and leave it on the stack.  Callers hold
   the lock. *)
let ambient_ctx () : Trace_ctx.t =
  match state.stack with
  | ctx :: _ -> ctx
  | [] ->
      let trace_id = fresh_trace_id "ambient" in
      let span_id = fresh_span_id ~trace_id "ambient" in
      let ctx = { Trace_ctx.trace_id; span_id; parent = None } in
      state.stack <- [ ctx ];
      write_event ctx (Event.Trace_begin { label = "ambient" });
      ctx

let emit (event : Event.t) : unit =
  if Atomic.get enabled then
    with_lock (fun () -> write_event (ambient_ctx ()) event)

let current () : Trace_ctx.t option =
  if Atomic.get enabled then Some (with_lock ambient_ctx) else None

let with_trace (label : string) (f : unit -> 'a) : 'a =
  if not (Atomic.get enabled) then f ()
  else begin
    let ctx =
      with_lock (fun () ->
          let trace_id = fresh_trace_id label in
          let span_id = fresh_span_id ~trace_id label in
          let ctx = { Trace_ctx.trace_id; span_id; parent = None } in
          state.stack <- ctx :: state.stack;
          write_event ctx (Event.Trace_begin { label });
          ctx)
    in
    let finish ok =
      with_lock (fun () ->
          write_event ctx (Event.Trace_end { label; ok });
          state.stack <-
            (match state.stack with c :: rest when c == ctx -> rest | s -> s))
    in
    match f () with
    | v ->
        finish true;
        v
    | exception e ->
        finish false;
        raise e
  end

let with_span (name : string) (f : unit -> 'a) : 'a =
  if not (Atomic.get enabled) then f ()
  else begin
    let ctx =
      with_lock (fun () ->
          let parent = ambient_ctx () in
          let span_id = fresh_span_id ~trace_id:parent.trace_id name in
          let ctx =
            {
              Trace_ctx.trace_id = parent.trace_id;
              span_id;
              parent = Some parent.span_id;
            }
          in
          state.stack <- ctx :: state.stack;
          write_event ctx (Event.Span_begin { name });
          ctx)
    in
    Fun.protect
      ~finally:(fun () ->
        with_lock (fun () ->
            write_event ctx (Event.Span_end { name });
            state.stack <-
              (match state.stack with
              | c :: rest when c == ctx -> rest
              | s -> s)))
      f
  end

let close_journal_locked () =
  match state.writer with
  | None -> ()
  | Some w ->
      Journal.close_writer w;
      state.writer <- None

let set_journal_path (path : string option) : unit =
  with_lock (fun () ->
      close_journal_locked ();
      state.path <- path;
      match path with
      | None -> Atomic.set enabled false
      | Some p ->
          state.writer <- Some (Journal.create_writer p);
          Atomic.set enabled true)

let is_enabled () : bool = Atomic.get enabled

(* Rewind counters and restart the journal file (if any): the next trace
   is trace 0 again.  Used between runs when asserting byte-identical
   journals. *)
let reset () : unit =
  with_lock (fun () ->
      state.stack <- [];
      state.trace_count <- 0;
      state.span_count <- 0;
      match state.path with
      | None -> close_journal_locked ()
      | Some p ->
          close_journal_locked ();
          state.writer <- Some (Journal.create_writer p))

(* Flush + close the journal, keeping emission enabled-ness untouched for
   a later [set_journal_path]. *)
let close () : unit = with_lock close_journal_locked

let () =
  match Sys.getenv_opt "ZKDET_JOURNAL" with
  | Some path when String.length path > 0 -> set_journal_path (Some path)
  | _ -> ()
