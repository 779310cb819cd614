(* Domain-safe spans, counters and histograms.

   Design constraints (see DESIGN.md "Telemetry"):

   - The disabled path must be near-free: one atomic load and a branch,
     no allocation.  Telemetry calls stay compiled into every hot kernel.
   - Instrumentation must never perturb proof bytes: recording is purely
     observational, and aggregation is deterministic (merged totals are
     identical at any ZKDET_DOMAINS because work decomposition in
     Zkdet_parallel is pool-size independent and merge order is sorted).
   - Each domain records into its own buffers (via Domain.DLS), so hot
     kernels on worker domains never contend on a lock.  Buffers are
     merged when a snapshot is taken, which callers do from quiesced
     orchestration code (bench harness, CLI, tests). *)

external monotonic_ns : unit -> int = "zkdet_telemetry_monotonic_ns" [@@noalloc]

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* ---- per-domain state ---- *)

type node = {
  node_name : string;
  mutable calls : int;
  mutable total_ns : int;
  (* GC/allocation attribution: [Gc.quick_stat] deltas over the span body,
     including children (like [total_ns]; self = total - sum of children).
     Words are floats because that is how the runtime reports them. *)
  mutable minor_words : float;
  mutable major_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  children : (string, node) Hashtbl.t;
}

(* Fixed power-of-two buckets shared by every histogram: bucket [i]
   counts samples in (2^(i-21), 2^(i-20)], i.e. boundaries from ~1e-6 up
   to ~4e12 with the last bucket open-ended.  Fixed boundaries keep the
   merge trivially deterministic (elementwise sum, any domain count) and
   the quantile estimate reproducible, at the cost of <= 2x resolution —
   fine for timing/size distributions spanning orders of magnitude. *)
let num_buckets = 64

(* Index of the bucket whose upper bound is the smallest 2^k >= v.
   frexp (not log2) so the answer is exact on every platform. *)
let bucket_of_sample v =
  if v <= 0. then 0
  else begin
    let m, ex = Float.frexp v in
    (* v = m * 2^ex with 0.5 <= m < 1, so ceil(log2 v) is ex, or ex-1
       when v is an exact power of two. *)
    let e = if m = 0.5 then ex - 1 else ex in
    let i = e + 20 in
    if i < 0 then 0 else if i >= num_buckets then num_buckets - 1 else i
  end

let bucket_upper i =
  if i >= num_buckets - 1 then Float.infinity
  else Float.ldexp 1.0 (i - 20)

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array; (* length [num_buckets] *)
}

(* Upper bound of the bucket holding the sample of rank ceil(q*n),
   clamped to the observed [min, max] so tiny sample counts still give
   sane numbers. *)
let hist_quantile (h : hist) (q : float) : float =
  if h.h_count = 0 then 0.
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.h_count)) in
      if r < 1 then 1 else if r > h.h_count then h.h_count else r
    in
    let rec go i acc =
      if i >= num_buckets then h.h_max
      else
        let acc = acc + h.h_buckets.(i) in
        if acc >= rank then Float.min h.h_max (Float.max h.h_min (bucket_upper i))
        else go (i + 1) acc
    in
    go 0 0
  end

(* ---- rolling time windows ----

   Ring of [window_slots] one-second slots over every counter/histogram,
   recorded only when [window_flag] is on (the live ops server turns it
   on).  Each slot is keyed by its absolute epoch (monotonic_ns / 1e9) so
   stale slots are lazily recycled; a snapshot merges the slots still
   inside the horizon across all domains.  Window data is wall-clock
   bound and therefore nondeterministic by design — it never feeds
   [snapshot] or any persisted artifact. *)

let window_slots = 60
let window_slot_ns = 1_000_000_000

type wslot = {
  mutable s_epoch : int; (* absolute slot index; -1 = never used *)
  mutable s_count : int; (* counter increments landing in this slot *)
  mutable s_samples : int; (* histogram samples landing in this slot *)
  mutable s_sum : float;
  mutable s_min : float;
  mutable s_max : float;
  s_buckets : int array; (* length [num_buckets] *)
}

type window = {
  mutable w_first_epoch : int; (* first epoch ever recorded; -1 = none *)
  w_ring : wslot array; (* indexed by epoch mod window_slots *)
}

let window_flag = Atomic.make false
let set_window_enabled b = Atomic.set window_flag b

let fresh_window () =
  {
    w_first_epoch = -1;
    w_ring =
      Array.init window_slots (fun _ ->
          {
            s_epoch = -1;
            s_count = 0;
            s_samples = 0;
            s_sum = 0.;
            s_min = Float.infinity;
            s_max = Float.neg_infinity;
            s_buckets = Array.make num_buckets 0;
          });
  }

type dstate = {
  root : node; (* per-domain span tree; the root itself is not a span *)
  mutable stack : node list; (* innermost span first; [] = at root *)
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  windows : (string, window) Hashtbl.t;
}

let fresh_node name =
  {
    node_name = name;
    calls = 0;
    total_ns = 0;
    minor_words = 0.;
    major_words = 0.;
    minor_gcs = 0;
    major_gcs = 0;
    children = Hashtbl.create 4;
  }

let registry : dstate list ref = ref []
let registry_mutex = Mutex.create ()

let dls_key =
  Domain.DLS.new_key (fun () ->
      let ds =
        {
          root = fresh_node "";
          stack = [];
          counters = Hashtbl.create 16;
          hists = Hashtbl.create 8;
          windows = Hashtbl.create 8;
        }
      in
      Mutex.lock registry_mutex;
      registry := ds :: !registry;
      Mutex.unlock registry_mutex;
      ds)

let dstate () = Domain.DLS.get dls_key

let reset () =
  Mutex.lock registry_mutex;
  let all = !registry in
  Mutex.unlock registry_mutex;
  List.iter
    (fun ds ->
      let root = ds.root in
      root.calls <- 0;
      root.total_ns <- 0;
      root.minor_words <- 0.;
      root.major_words <- 0.;
      root.minor_gcs <- 0;
      root.major_gcs <- 0;
      Hashtbl.reset root.children;
      ds.stack <- [];
      Hashtbl.reset ds.counters;
      Hashtbl.reset ds.hists;
      Hashtbl.reset ds.windows)
    all

(* ---- recording ---- *)

let current_parent ds =
  match ds.stack with node :: _ -> node | [] -> ds.root

let with_span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let ds = dstate () in
    let parent = current_parent ds in
    let node =
      match Hashtbl.find_opt parent.children name with
      | Some n -> n
      | None ->
        let n = fresh_node name in
        Hashtbl.add parent.children name n;
        n
    in
    ds.stack <- node :: ds.stack;
    (* [Gc.minor_words ()] reads the live allocation pointer; the
       [quick_stat] minor figure only refreshes at collection
       boundaries on OCaml 5, which would zero out short spans. *)
    let mw0 = Gc.minor_words () in
    let g0 = Gc.quick_stat () in
    let t0 = monotonic_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dt = monotonic_ns () - t0 in
        let g1 = Gc.quick_stat () in
        let mw1 = Gc.minor_words () in
        node.calls <- node.calls + 1;
        node.total_ns <- node.total_ns + dt;
        node.minor_words <- node.minor_words +. (mw1 -. mw0);
        node.major_words <- node.major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
        node.minor_gcs <- node.minor_gcs + (g1.Gc.minor_collections - g0.Gc.minor_collections);
        node.major_gcs <- node.major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections);
        match ds.stack with
        | _ :: rest -> ds.stack <- rest
        | [] -> ())
      f
  end

(* Find/rotate the slot for [name] covering the current second. *)
let window_slot ds name =
  let w =
    match Hashtbl.find_opt ds.windows name with
    | Some w -> w
    | None ->
      let w = fresh_window () in
      Hashtbl.add ds.windows name w;
      w
  in
  let epoch = monotonic_ns () / window_slot_ns in
  if w.w_first_epoch < 0 then w.w_first_epoch <- epoch;
  let s = w.w_ring.(epoch mod window_slots) in
  if s.s_epoch <> epoch then begin
    s.s_epoch <- epoch;
    s.s_count <- 0;
    s.s_samples <- 0;
    s.s_sum <- 0.;
    s.s_min <- Float.infinity;
    s.s_max <- Float.neg_infinity;
    Array.fill s.s_buckets 0 num_buckets 0
  end;
  s

let count name n =
  if Atomic.get enabled_flag then begin
    let ds = dstate () in
    (match Hashtbl.find_opt ds.counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add ds.counters name (ref n));
    if Atomic.get window_flag then begin
      let s = window_slot ds name in
      s.s_count <- s.s_count + n
    end
  end

let observe name v =
  if Atomic.get enabled_flag then begin
    let ds = dstate () in
    (match Hashtbl.find_opt ds.hists name with
    | Some h ->
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      let i = bucket_of_sample v in
      h.h_buckets.(i) <- h.h_buckets.(i) + 1
    | None ->
      let h =
        {
          h_count = 1;
          h_sum = v;
          h_min = v;
          h_max = v;
          h_buckets = Array.make num_buckets 0;
        }
      in
      h.h_buckets.(bucket_of_sample v) <- 1;
      Hashtbl.add ds.hists name h);
    if Atomic.get window_flag then begin
      let s = window_slot ds name in
      s.s_samples <- s.s_samples + 1;
      s.s_sum <- s.s_sum +. v;
      if v < s.s_min then s.s_min <- v;
      if v > s.s_max then s.s_max <- v;
      let i = bucket_of_sample v in
      s.s_buckets.(i) <- s.s_buckets.(i) + 1
    end
  end

(* ---- merged reports ---- *)

module Report = struct
  type span = {
    span_name : string;
    calls : int;
    total_ns : int;
    minor_words : float;
    major_words : float;
    minor_gcs : int;
    major_gcs : int;
    children : span list;
  }

  type counter = { counter_name : string; total : int }

  type histogram = {
    hist_name : string;
    samples : int;
    sum : float;
    min : float;
    max : float;
    p50 : float;
    p95 : float;
    p99 : float;
    p999 : float;
    buckets : int array; (* per-bucket counts, length [num_buckets] *)
  }

  type t = { spans : span list; counters : counter list; histograms : histogram list }

  let empty = { spans = []; counters = []; histograms = [] }

  let rec find_span (spans : span list) (path : string list) : span option =
    match path with
    | [] -> None
    | [ name ] -> List.find_opt (fun s -> s.span_name = name) spans
    | name :: rest -> (
      match List.find_opt (fun s -> s.span_name = name) spans with
      | Some s -> find_span s.children rest
      | None -> None)

  let find_counter (t : t) name =
    List.find_opt (fun c -> c.counter_name = name) t.counters
    |> Option.map (fun c -> c.total)

  let ns_to_ms ns = float_of_int ns /. 1e6

  (* -- human-readable summary tree -- *)

  let pp fmt (t : t) =
    let open Format in
    fprintf fmt "telemetry summary@.";
    if t.spans = [] && t.counters = [] && t.histograms = [] then
      fprintf fmt "  (no data recorded)@."
    else begin
      if t.spans <> [] then begin
        fprintf fmt "  spans:%40s %10s %12s %12s %10s %7s@." "" "calls" "total"
          "self" "alloc" "gcs";
        let rec walk depth (s : span) =
          let child_ns =
            List.fold_left (fun acc c -> acc + c.total_ns) 0 s.children
          in
          let label = String.make (2 * depth) ' ' ^ s.span_name in
          (* alloc = minor-heap words allocated inside the span (children
             included), scaled to MB; gcs = collections triggered there. *)
          fprintf fmt "    %-44s %10d %10.2fms %10.2fms %8.1fMB %7d@." label
            s.calls
            (ns_to_ms s.total_ns)
            (ns_to_ms (s.total_ns - child_ns))
            (s.minor_words *. float_of_int (Sys.word_size / 8) /. 1e6)
            (s.minor_gcs + s.major_gcs);
          List.iter (walk (depth + 1)) s.children
        in
        List.iter (walk 0) t.spans
      end;
      if t.counters <> [] then begin
        fprintf fmt "  counters:@.";
        List.iter
          (fun (c : counter) -> fprintf fmt "    %-44s %14d@." c.counter_name c.total)
          t.counters
      end;
      if t.histograms <> [] then begin
        fprintf fmt "  histograms:%35s %8s %10s %10s %10s %10s %10s %10s@." ""
          "n" "mean" "min" "p50" "p95" "p99" "max";
        List.iter
          (fun (h : histogram) ->
            fprintf fmt "    %-44s %8d %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f@."
              h.hist_name h.samples
              (h.sum /. float_of_int (max 1 h.samples))
              h.min h.p50 h.p95 h.p99 h.max)
          t.histograms
      end
    end

  (* -- JSON forms -- *)

  let rec span_to_json (s : span) : Json.t =
    Json.Obj
      [
        ("name", Json.String s.span_name);
        ("calls", Json.Int s.calls);
        ("total_ns", Json.Int s.total_ns);
        ("minor_words", Json.Float s.minor_words);
        ("major_words", Json.Float s.major_words);
        ("minor_gcs", Json.Int s.minor_gcs);
        ("major_gcs", Json.Int s.major_gcs);
        ("children", Json.List (List.map span_to_json s.children));
      ]

  let counter_to_json (c : counter) : Json.t =
    Json.Obj [ ("name", Json.String c.counter_name); ("total", Json.Int c.total) ]

  let histogram_to_json (h : histogram) : Json.t =
    Json.Obj
      [
        ("name", Json.String h.hist_name);
        ("samples", Json.Int h.samples);
        ("sum", Json.Float h.sum);
        ("min", Json.Float h.min);
        ("max", Json.Float h.max);
        ("p50", Json.Float h.p50);
        ("p95", Json.Float h.p95);
        ("p99", Json.Float h.p99);
        ("p999", Json.Float h.p999);
        ( "buckets",
          Json.List (Array.to_list (Array.map (fun n -> Json.Int n) h.buckets))
        );
      ]

  let to_json (t : t) : Json.t =
    Json.Obj
      [
        ("spans", Json.List (List.map span_to_json t.spans));
        ("counters", Json.List (List.map counter_to_json t.counters));
        ("histograms", Json.List (List.map histogram_to_json t.histograms));
      ]

  (* -- JSONL trace sink --

     One self-describing record per line.  Span records carry their full
     path so the tree can be rebuilt from a flat stream:

       {"type":"meta","format":"zkdet-trace","version":1}
       {"type":"span","path":["plonk.prove","round3"],"calls":1,"total_ns":...}
       {"type":"counter","name":"curve.msm.points","total":...}
       {"type":"histogram","name":"fft.points","samples":...,...}  *)

  let to_jsonl (t : t) : string list =
    let lines = ref [] in
    let emit j = lines := Json.to_string j :: !lines in
    emit
      (Json.Obj
         [
           ("type", Json.String "meta");
           ("format", Json.String "zkdet-trace");
           ("version", Json.Int 1);
         ]);
    let rec walk rev_path (s : span) =
      let path = List.rev (s.span_name :: rev_path) in
      emit
        (Json.Obj
           [
             ("type", Json.String "span");
             ("path", Json.List (List.map (fun p -> Json.String p) path));
             ("calls", Json.Int s.calls);
             ("total_ns", Json.Int s.total_ns);
             ("minor_words", Json.Float s.minor_words);
             ("major_words", Json.Float s.major_words);
             ("minor_gcs", Json.Int s.minor_gcs);
             ("major_gcs", Json.Int s.major_gcs);
           ]);
      List.iter (walk (s.span_name :: rev_path)) s.children
    in
    List.iter (walk []) t.spans;
    List.iter
      (fun (c : counter) ->
        emit
          (Json.Obj
             [
               ("type", Json.String "counter");
               ("name", Json.String c.counter_name);
               ("total", Json.Int c.total);
             ]))
      t.counters;
    List.iter
      (fun (h : histogram) ->
        emit
          (Json.Obj
             [
               ("type", Json.String "histogram");
               ("name", Json.String h.hist_name);
               ("samples", Json.Int h.samples);
               ("sum", Json.Float h.sum);
               ("min", Json.Float h.min);
               ("max", Json.Float h.max);
               ("p50", Json.Float h.p50);
               ("p95", Json.Float h.p95);
               ("p99", Json.Float h.p99);
               ("p999", Json.Float h.p999);
               ( "buckets",
                 Json.List
                   (Array.to_list (Array.map (fun n -> Json.Int n) h.buckets))
               );
             ]))
      t.histograms;
    List.rev !lines

  (* Rebuild a report from JSONL lines (inverse of [to_jsonl]). *)
  let of_jsonl (lines : string list) : (t, string) result =
    let ( let* ) = Result.bind in
    let field j name =
      match Json.member name j with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" name)
    in
    let int_field j name =
      let* v = field j name in
      match Json.to_int_opt v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "field %S is not an int" name)
    in
    let float_field j name =
      let* v = field j name in
      match Json.to_float_opt v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "field %S is not a number" name)
    in
    let string_field j name =
      let* v = field j name in
      match Json.to_string_opt v with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "field %S is not a string" name)
    in
    (* Mutable span-tree builder mirroring the recording structures. *)
    let root = fresh_node "" in
    let counters = ref [] and hists = ref [] in
    let insert_span path calls total_ns (mw, jw, mg, jg) =
      let rec go (node : node) = function
        | [] -> Error "span record with empty path"
        | [ name ] ->
          let n =
            match Hashtbl.find_opt node.children name with
            | Some n -> n
            | None ->
              let n = fresh_node name in
              Hashtbl.add node.children name n;
              n
          in
          n.calls <- calls;
          n.total_ns <- total_ns;
          n.minor_words <- mw;
          n.major_words <- jw;
          n.minor_gcs <- mg;
          n.major_gcs <- jg;
          Ok ()
        | name :: rest -> (
          match Hashtbl.find_opt node.children name with
          | Some n -> go n rest
          | None ->
            (* parent not seen yet: create a placeholder *)
            let n = fresh_node name in
            Hashtbl.add node.children name n;
            go n rest)
      in
      go root path
    in
    let parse_line i line =
      if String.trim line = "" then Ok ()
      else
        let* j =
          match Json.parse line with
          | Ok j -> Ok j
          | Error e -> Error (Printf.sprintf "line %d: %s" (i + 1) e)
        in
        let* kind = string_field j "type" in
        match kind with
        | "meta" ->
          let* fmt = string_field j "format" in
          if fmt = "zkdet-trace" then Ok ()
          else Error (Printf.sprintf "line %d: unknown trace format %S" (i + 1) fmt)
        | "span" ->
          let* path_json = field j "path" in
          let* path =
            match Json.to_list_opt path_json with
            | Some items ->
              List.fold_right
                (fun item acc ->
                  let* acc = acc in
                  match Json.to_string_opt item with
                  | Some s -> Ok (s :: acc)
                  | None -> Error "non-string span path element")
                items (Ok [])
            | None -> Error "span path is not a list"
          in
          let* calls = int_field j "calls" in
          let* total_ns = int_field j "total_ns" in
          (* GC attribution appeared in trace format revision 3; older
             traces parse with zeroed deltas. *)
          let opt_float name default =
            match Json.member name j with
            | Some v -> Option.value (Json.to_float_opt v) ~default
            | None -> default
          in
          let opt_int name default =
            match Json.member name j with
            | Some v -> Option.value (Json.to_int_opt v) ~default
            | None -> default
          in
          insert_span path calls total_ns
            ( opt_float "minor_words" 0.,
              opt_float "major_words" 0.,
              opt_int "minor_gcs" 0,
              opt_int "major_gcs" 0 )
        | "counter" ->
          let* name = string_field j "name" in
          let* total = int_field j "total" in
          counters := { counter_name = name; total } :: !counters;
          Ok ()
        | "histogram" ->
          let* name = string_field j "name" in
          let* samples = int_field j "samples" in
          let* sum = float_field j "sum" in
          let* min = float_field j "min" in
          let* max = float_field j "max" in
          (* Quantiles appeared in trace format revision 2 (p99.9 and raw
             buckets in revision 3); older traces fall back to the max /
             zeroed buckets so they still round-trip. *)
          let opt_float name default =
            match Json.member name j with
            | Some v -> Option.value (Json.to_float_opt v) ~default
            | None -> default
          in
          let p50 = opt_float "p50" max in
          let p95 = opt_float "p95" max in
          let p99 = opt_float "p99" max in
          let p999 = opt_float "p999" max in
          let buckets =
            match Json.member "buckets" j with
            | Some v -> (
              match Json.to_list_opt v with
              | Some items ->
                let a = Array.make num_buckets 0 in
                List.iteri
                  (fun i item ->
                    if i < num_buckets then
                      a.(i) <- Option.value (Json.to_int_opt item) ~default:0)
                  items;
                a
              | None -> Array.make num_buckets 0)
            | None -> Array.make num_buckets 0
          in
          hists :=
            { hist_name = name; samples; sum; min; max; p50; p95; p99; p999; buckets }
            :: !hists;
          Ok ()
        | other -> Error (Printf.sprintf "line %d: unknown record type %S" (i + 1) other)
    in
    let rec all i = function
      | [] -> Ok ()
      | line :: rest ->
        let* () = parse_line i line in
        all (i + 1) rest
    in
    let* () = all 0 lines in
    let rec freeze (node : node) : span =
      Hashtbl.fold (fun _ child acc -> freeze child :: acc) node.children []
      |> List.sort (fun (a : span) (b : span) -> compare a.span_name b.span_name)
      |> fun children ->
      {
        span_name = node.node_name;
        calls = node.calls;
        total_ns = node.total_ns;
        minor_words = node.minor_words;
        major_words = node.major_words;
        minor_gcs = node.minor_gcs;
        major_gcs = node.major_gcs;
        children;
      }
    in
    let top = freeze root in
    Ok { spans = top.children; counters = List.rev !counters; histograms = List.rev !hists }

  (* -- Prometheus text exposition --

     One flat dump of the whole report in the text format scrapers and
     promtool understand.  Metric names are sanitized to
     [a-zA-Z0-9_:], span tree position goes into a {path="a/b"} label,
     histogram quantiles into {quantile="0.5"} as for a summary. *)

  let prom_name name =
    let b = Bytes.of_string name in
    Bytes.iteri
      (fun i c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
        | _ -> Bytes.set b i '_')
      b;
    let s = Bytes.to_string b in
    match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s

  let prom_label_value v =
    let b = Buffer.create (String.length v + 2) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      v;
    Buffer.contents b

  let prom_float f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f

  let to_prometheus (t : t) : string =
    let b = Buffer.create 4096 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
    if t.spans <> [] then begin
      (* One family per per-span quantity; the tree position is the
         {path="a/b"} label. *)
      let span_family name mtype help value =
        line "# HELP %s %s" name help;
        line "# TYPE %s %s" name mtype;
        let rec walk rev_path (s : span) =
          let path = String.concat "/" (List.rev (s.span_name :: rev_path)) in
          line "%s{path=\"%s\"} %s" name (prom_label_value path) (value s);
          List.iter (walk (s.span_name :: rev_path)) s.children
        in
        List.iter (walk []) t.spans
      in
      span_family "zkdet_span_total_ns" "counter"
        "Cumulative wall time per span path." (fun s ->
          string_of_int s.total_ns);
      span_family "zkdet_span_calls" "counter"
        "Number of times each span path was entered." (fun s ->
          string_of_int s.calls);
      span_family "zkdet_span_minor_words" "counter"
        "Minor-heap words allocated inside each span path (children included)."
        (fun s -> prom_float s.minor_words);
      span_family "zkdet_span_major_words" "counter"
        "Major-heap words allocated or promoted inside each span path."
        (fun s -> prom_float s.major_words);
      span_family "zkdet_span_minor_collections" "counter"
        "Minor collections triggered inside each span path." (fun s ->
          string_of_int s.minor_gcs);
      span_family "zkdet_span_major_collections" "counter"
        "Major collection slices triggered inside each span path." (fun s ->
          string_of_int s.major_gcs)
    end;
    List.iter
      (fun (c : counter) ->
        let n = prom_name ("zkdet_" ^ c.counter_name) in
        line "# HELP %s Monotonic total of the %s counter." n
          (prom_label_value c.counter_name);
        line "# TYPE %s counter" n;
        line "%s %d" n c.total)
      t.counters;
    List.iter
      (fun (h : histogram) ->
        let n = prom_name ("zkdet_" ^ h.hist_name) in
        (* Summary family: quantile estimates from the fixed buckets. *)
        line "# HELP %s Quantile summary of the %s histogram." n
          (prom_label_value h.hist_name);
        line "# TYPE %s summary" n;
        line "%s{quantile=\"0.5\"} %s" n (prom_float h.p50);
        line "%s{quantile=\"0.95\"} %s" n (prom_float h.p95);
        line "%s{quantile=\"0.99\"} %s" n (prom_float h.p99);
        line "%s{quantile=\"0.999\"} %s" n (prom_float h.p999);
        line "%s_sum %s" n (prom_float h.sum);
        line "%s_count %d" n h.samples;
        (* Histogram family: cumulative power-of-two buckets.  A sibling
           name (_buckets) because one exposition family cannot be both a
           summary and a histogram. *)
        let bn = n ^ "_buckets" in
        line "# HELP %s Cumulative power-of-two buckets of the %s histogram."
          bn (prom_label_value h.hist_name);
        line "# TYPE %s histogram" bn;
        let cum = ref 0 in
        Array.iteri
          (fun i c ->
            cum := !cum + c;
            if c > 0 && i < num_buckets - 1 then
              line "%s_bucket{le=\"%s\"} %d" bn (prom_float (bucket_upper i))
                !cum)
          h.buckets;
        line "%s_bucket{le=\"+Inf\"} %d" bn h.samples;
        line "%s_sum %s" bn (prom_float h.sum);
        line "%s_count %d" bn h.samples;
        line "# HELP %s_min Smallest sample observed." n;
        line "# TYPE %s_min gauge" n;
        line "%s_min %s" n (prom_float h.min);
        line "# HELP %s_max Largest sample observed." n;
        line "# TYPE %s_max gauge" n;
        line "%s_max %s" n (prom_float h.max))
      t.histograms;
    Buffer.contents b
end

(* Merge all per-domain buffers into one deterministic report.  Children
   are sorted by name so the result does not depend on domain count or
   scheduling; callers invoke this from quiesced code. *)
let snapshot () : Report.t =
  Mutex.lock registry_mutex;
  let all = !registry in
  Mutex.unlock registry_mutex;
  let rec merge_nodes (nodes : node list) : Report.span list =
    (* group children of all [nodes] by name *)
    let names = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun node ->
        Hashtbl.iter
          (fun name child ->
            match Hashtbl.find_opt names name with
            | Some group -> Hashtbl.replace names name (child :: group)
            | None ->
              order := name :: !order;
              Hashtbl.add names name [ child ])
          node.children)
      nodes;
    List.sort compare !order
    |> List.map (fun name ->
           let group = Hashtbl.find names name in
           let calls = List.fold_left (fun acc n -> acc + n.calls) 0 group in
           let total_ns = List.fold_left (fun acc n -> acc + n.total_ns) 0 group in
           let minor_words =
             List.fold_left (fun acc n -> acc +. n.minor_words) 0. group
           in
           let major_words =
             List.fold_left (fun acc n -> acc +. n.major_words) 0. group
           in
           let minor_gcs = List.fold_left (fun acc n -> acc + n.minor_gcs) 0 group in
           let major_gcs = List.fold_left (fun acc n -> acc + n.major_gcs) 0 group in
           {
             Report.span_name = name;
             calls;
             total_ns;
             minor_words;
             major_words;
             minor_gcs;
             major_gcs;
             children = merge_nodes group;
           })
  in
  let spans = merge_nodes (List.map (fun ds -> ds.root) all) in
  let counter_tbl = Hashtbl.create 16 in
  List.iter
    (fun ds ->
      Hashtbl.iter
        (fun name r ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt counter_tbl name) in
          Hashtbl.replace counter_tbl name (prev + !r))
        ds.counters)
    all;
  let counters =
    Hashtbl.fold
      (fun name total acc -> { Report.counter_name = name; total } :: acc)
      counter_tbl []
    |> List.sort (fun a b -> compare a.Report.counter_name b.Report.counter_name)
  in
  let hist_tbl : (string, hist) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ds ->
      Hashtbl.iter
        (fun name (h : hist) ->
          match Hashtbl.find_opt hist_tbl name with
          | Some acc ->
            acc.h_count <- acc.h_count + h.h_count;
            acc.h_sum <- acc.h_sum +. h.h_sum;
            if h.h_min < acc.h_min then acc.h_min <- h.h_min;
            if h.h_max > acc.h_max then acc.h_max <- h.h_max;
            Array.iteri
              (fun i n -> acc.h_buckets.(i) <- acc.h_buckets.(i) + n)
              h.h_buckets
          | None ->
            Hashtbl.add hist_tbl name
              {
                h_count = h.h_count;
                h_sum = h.h_sum;
                h_min = h.h_min;
                h_max = h.h_max;
                h_buckets = Array.copy h.h_buckets;
              })
        ds.hists)
    all;
  let histograms =
    Hashtbl.fold
      (fun name (h : hist) acc ->
        {
          Report.hist_name = name;
          samples = h.h_count;
          sum = h.h_sum;
          min = h.h_min;
          max = h.h_max;
          p50 = hist_quantile h 0.50;
          p95 = hist_quantile h 0.95;
          p99 = hist_quantile h 0.99;
          p999 = hist_quantile h 0.999;
          buckets = Array.copy h.h_buckets;
        }
        :: acc)
      hist_tbl []
    |> List.sort (fun a b -> compare a.Report.hist_name b.Report.hist_name)
  in
  { Report.spans; counters; histograms }

(* ---- rolling-window snapshot ---- *)

type window_stat = {
  w_name : string;
  w_seconds : float; (* seconds of the horizon actually covered *)
  w_count : int; (* counter increments inside the window *)
  w_samples : int; (* histogram samples inside the window *)
  w_rate : float; (* (count + samples) per covered second *)
  w_sum : float;
  w_min : float; (* 0 when no samples *)
  w_max : float;
  w_p50 : float;
  w_p95 : float;
  w_p99 : float;
  w_p999 : float;
}

(* Merge the live slots of every domain's ring for each metric name.
   Slots older than the horizon (or from the future, impossible) are
   skipped; the covered-seconds denominator counts from the first epoch
   the metric ever recorded so a freshly started run is not diluted by
   empty history. *)
let window_snapshot () : window_stat list =
  Mutex.lock registry_mutex;
  let all = !registry in
  Mutex.unlock registry_mutex;
  let now_epoch = monotonic_ns () / window_slot_ns in
  let oldest = now_epoch - window_slots + 1 in
  let acc :
      (string, hist * int ref * int ref (* count, first_epoch *)) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun ds ->
      Hashtbl.iter
        (fun name (w : window) ->
          let h, count, first =
            match Hashtbl.find_opt acc name with
            | Some entry -> entry
            | None ->
              let entry =
                ( {
                    h_count = 0;
                    h_sum = 0.;
                    h_min = Float.infinity;
                    h_max = Float.neg_infinity;
                    h_buckets = Array.make num_buckets 0;
                  },
                  ref 0,
                  ref max_int )
              in
              Hashtbl.add acc name entry;
              entry
          in
          if w.w_first_epoch >= 0 && w.w_first_epoch < !first then
            first := w.w_first_epoch;
          Array.iter
            (fun (s : wslot) ->
              if s.s_epoch >= oldest && s.s_epoch <= now_epoch then begin
                count := !count + s.s_count;
                h.h_count <- h.h_count + s.s_samples;
                h.h_sum <- h.h_sum +. s.s_sum;
                if s.s_min < h.h_min then h.h_min <- s.s_min;
                if s.s_max > h.h_max then h.h_max <- s.s_max;
                Array.iteri
                  (fun i n -> h.h_buckets.(i) <- h.h_buckets.(i) + n)
                  s.s_buckets
              end)
            w.w_ring)
        ds.windows)
    all;
  Hashtbl.fold
    (fun name (h, count, first) stats ->
      let covered =
        if !first = max_int then 1
        else min window_slots (now_epoch - max !first oldest + 1)
      in
      let seconds = float_of_int (max 1 covered) in
      let events = !count + h.h_count in
      {
        w_name = name;
        w_seconds = seconds;
        w_count = !count;
        w_samples = h.h_count;
        w_rate = float_of_int events /. seconds;
        w_sum = h.h_sum;
        w_min = (if h.h_count = 0 then 0. else h.h_min);
        w_max = (if h.h_count = 0 then 0. else h.h_max);
        w_p50 = hist_quantile h 0.50;
        w_p95 = hist_quantile h 0.95;
        w_p99 = hist_quantile h 0.99;
        w_p999 = hist_quantile h 0.999;
      }
      :: stats)
    acc []
  |> List.sort (fun a b -> compare a.w_name b.w_name)

(* Rolling-window families for the live /metrics endpoint.  Gauges, not
   counters: each scrape sees the trailing-horizon value. *)
let window_to_prometheus () : string =
  let stats = window_snapshot () in
  if stats = [] then ""
  else begin
    let b = Buffer.create 1024 in
    let line fmt =
      Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt
    in
    let window_label = Printf.sprintf "%ds" window_slots in
    line "# HELP zkdet_window_rate Events per second over the trailing window.";
    line "# TYPE zkdet_window_rate gauge";
    List.iter
      (fun w ->
        line "zkdet_window_rate{name=\"%s\",window=\"%s\"} %s"
          (Report.prom_label_value w.w_name)
          window_label (Report.prom_float w.w_rate))
      stats;
    line "# HELP zkdet_window_events Events recorded inside the trailing window.";
    line "# TYPE zkdet_window_events gauge";
    List.iter
      (fun w ->
        line "zkdet_window_events{name=\"%s\",window=\"%s\"} %d"
          (Report.prom_label_value w.w_name)
          window_label (w.w_count + w.w_samples))
      stats;
    let sampled = List.filter (fun w -> w.w_samples > 0) stats in
    if sampled <> [] then begin
      line
        "# HELP zkdet_window_quantile Quantile estimates over the trailing \
         window (histogram metrics only).";
      line "# TYPE zkdet_window_quantile gauge";
      List.iter
        (fun w ->
          List.iter
            (fun (q, v) ->
              line "zkdet_window_quantile{name=\"%s\",quantile=\"%s\",window=\"%s\"} %s"
                (Report.prom_label_value w.w_name)
                q window_label (Report.prom_float v))
            [
              ("0.5", w.w_p50);
              ("0.95", w.w_p95);
              ("0.99", w.w_p99);
              ("0.999", w.w_p999);
            ])
        sampled
    end;
    Buffer.contents b
  end

let print_summary ?(oc = stdout) () =
  let fmt = Format.formatter_of_out_channel oc in
  Report.pp fmt (snapshot ());
  Format.pp_print_flush fmt ()

(* ---- environment / sinks ---- *)

let trace_path_ref = ref None
let trace_mutex = Mutex.create ()

let trace_path () =
  Mutex.lock trace_mutex;
  let p = !trace_path_ref in
  Mutex.unlock trace_mutex;
  p

let set_trace_path p =
  Mutex.lock trace_mutex;
  trace_path_ref := p;
  Mutex.unlock trace_mutex;
  if p <> None then set_enabled true

let write_trace ?path () : (string, string) result =
  let path = match path with Some p -> Some p | None -> trace_path () in
  match path with
  | None -> Error "no trace path configured (set ZKDET_TRACE or pass ~path)"
  | Some path -> (
    let lines = Report.to_jsonl (snapshot ()) in
    try
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) lines);
      Ok path
    with Sys_error e -> Error e)

(* Write the trace if (and only if) a path is configured; used by the
   bench harness and CLI on exit. *)
let maybe_write_trace () =
  match trace_path () with
  | None -> ()
  | Some _ -> (
    match write_trace () with
    | Ok path -> Printf.eprintf "telemetry: trace written to %s\n%!" path
    | Error e -> Printf.eprintf "telemetry: failed to write trace: %s\n%!" e)

let truthy = function
  | "" | "0" | "false" | "no" -> false
  | _ -> true

(* Pick up env configuration at load time so any executable linking the
   instrumented libraries honors ZKDET_PROFILE / ZKDET_TRACE. *)
let () =
  (match Sys.getenv_opt "ZKDET_PROFILE" with
  | Some v when truthy v -> set_enabled true
  | _ -> ());
  match Sys.getenv_opt "ZKDET_TRACE" with
  | Some path when path <> "" -> set_trace_path (Some path)
  | _ -> ()
