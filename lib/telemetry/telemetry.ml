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

(* The binding of [key] in [tbl], adding [make key] on a miss. *)
let find_or_add tbl key make =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = make key in
    Hashtbl.add tbl key v;
    v

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

(* The one mutable histogram: the per-domain recorder, every window slot
   and both merges (snapshot, window snapshot) use it. *)
type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array; (* length [num_buckets] *)
}

let hist_create () =
  {
    h_count = 0;
    h_sum = 0.;
    h_min = Float.infinity;
    h_max = Float.neg_infinity;
    h_buckets = Array.make num_buckets 0;
  }

let hist_reset h =
  h.h_count <- 0;
  h.h_sum <- 0.;
  h.h_min <- Float.infinity;
  h.h_max <- Float.neg_infinity;
  Array.fill h.h_buckets 0 num_buckets 0

let hist_add h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let i = bucket_of_sample v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1

let hist_merge ~into h =
  into.h_count <- into.h_count + h.h_count;
  into.h_sum <- into.h_sum +. h.h_sum;
  if h.h_min < into.h_min then into.h_min <- h.h_min;
  if h.h_max > into.h_max then into.h_max <- h.h_max;
  Array.iteri (fun i n -> into.h_buckets.(i) <- into.h_buckets.(i) + n) h.h_buckets

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
  s_hist : hist; (* histogram samples landing in this slot *)
}

type window = {
  mutable w_first_epoch : int; (* first epoch ever recorded; -1 = none *)
  w_ring : wslot array; (* indexed by epoch mod window_slots *)
}

let window_flag = Atomic.make false
let set_window_enabled b = Atomic.set window_flag b

let fresh_window _ =
  {
    w_first_epoch = -1;
    w_ring =
      Array.init window_slots (fun _ ->
          { s_epoch = -1; s_count = 0; s_hist = hist_create () });
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

let all_dstates () =
  Mutex.lock registry_mutex;
  let all = !registry in
  Mutex.unlock registry_mutex;
  all

(* The root itself never records (it is not a span), so clearing its
   children clears the tree. *)
let reset () =
  List.iter
    (fun ds ->
      Hashtbl.reset ds.root.children;
      ds.stack <- [];
      Hashtbl.reset ds.counters;
      Hashtbl.reset ds.hists;
      Hashtbl.reset ds.windows)
    (all_dstates ())

(* ---- recording ---- *)

let current_parent ds =
  match ds.stack with node :: _ -> node | [] -> ds.root

let with_span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let ds = dstate () in
    let node = find_or_add (current_parent ds).children name fresh_node in
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
  let w = find_or_add ds.windows name fresh_window in
  let epoch = monotonic_ns () / window_slot_ns in
  if w.w_first_epoch < 0 then w.w_first_epoch <- epoch;
  let s = w.w_ring.(epoch mod window_slots) in
  if s.s_epoch <> epoch then begin
    s.s_epoch <- epoch;
    s.s_count <- 0;
    hist_reset s.s_hist
  end;
  s

let count name n =
  if Atomic.get enabled_flag then begin
    let ds = dstate () in
    let r = find_or_add ds.counters name (fun _ -> ref 0) in
    r := !r + n;
    if Atomic.get window_flag then begin
      let s = window_slot ds name in
      s.s_count <- s.s_count + n
    end
  end

let observe name v =
  if Atomic.get enabled_flag then begin
    let ds = dstate () in
    hist_add (find_or_add ds.hists name (fun _ -> hist_create ())) v;
    if Atomic.get window_flag then hist_add (window_slot ds name).s_hist v
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

  (* Upper bound of the bucket holding the sample of rank ceil(q*n),
     clamped to the observed [min, max] so tiny sample counts still give
     sane numbers. *)
  let quantile (h : histogram) (q : float) : float =
    if h.samples = 0 then 0.
    else begin
      let rank =
        let r = int_of_float (Float.ceil (q *. float_of_int h.samples)) in
        if r < 1 then 1 else if r > h.samples then h.samples else r
      in
      let rec go i acc =
        if i >= num_buckets then h.max
        else
          let acc = acc + h.buckets.(i) in
          if acc >= rank then Float.min h.max (Float.max h.min (bucket_upper i))
          else go (i + 1) acc
      in
      go 0 0
    end

  (* The quantiles every encoder writes: JSON key, Prometheus label, q. *)
  let quantiles =
    [ ("p50", "0.5", 0.50); ("p95", "0.95", 0.95); ("p99", "0.99", 0.99);
      ("p999", "0.999", 0.999) ]

  (* Freeze a merged [hist]; an empty one reports min = max = 0. *)
  let of_hist name (h : hist) : histogram =
    let none = h.h_count = 0 in
    {
      hist_name = name;
      samples = h.h_count;
      sum = h.h_sum;
      min = (if none then 0. else h.h_min);
      max = (if none then 0. else h.h_max);
      buckets = h.h_buckets;
    }

  (* Merge the children of [nodes] by name into one sorted span list.
     [snapshot] passes every domain's root; [of_jsonl] the one tree it
     rebuilt. *)
  let rec merge_nodes (nodes : node list) : span list =
    let groups = Hashtbl.create 16 in
    List.iter
      (fun (node : node) ->
        Hashtbl.iter
          (fun name child ->
            let g = find_or_add groups name (fun _ -> ref []) in
            g := child :: !g)
          node.children)
      nodes;
    Hashtbl.fold (fun name g acc -> (name, !g) :: acc) groups []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (name, group) ->
           let sum f = List.fold_left (fun acc n -> acc + f n) 0 group in
           let sumf f = List.fold_left (fun acc n -> acc +. f n) 0. group in
           {
             span_name = name;
             calls = sum (fun (n : node) -> n.calls);
             total_ns = sum (fun (n : node) -> n.total_ns);
             minor_words = sumf (fun (n : node) -> n.minor_words);
             major_words = sumf (fun (n : node) -> n.major_words);
             minor_gcs = sum (fun (n : node) -> n.minor_gcs);
             major_gcs = sum (fun (n : node) -> n.major_gcs);
             children = merge_nodes group;
           })

  (* Every span with its root-to-node name path, in preorder. *)
  let preorder (spans : span list) : (string list * span) list =
    let rec walk rev_path (s : span) =
      let rev_path = s.span_name :: rev_path in
      (List.rev rev_path, s) :: List.concat_map (walk rev_path) s.children
    in
    List.concat_map (walk []) spans

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
              h.min (quantile h 0.50) (quantile h 0.95) (quantile h 0.99) h.max)
          t.histograms
      end
    end

  (* -- JSON forms: one field list per record feeds both -- *)

  let span_fields (s : span) =
    [
      ("calls", Json.Int s.calls);
      ("total_ns", Json.Int s.total_ns);
      ("minor_words", Json.Float s.minor_words);
      ("major_words", Json.Float s.major_words);
      ("minor_gcs", Json.Int s.minor_gcs);
      ("major_gcs", Json.Int s.major_gcs);
    ]

  let counter_fields (c : counter) =
    [ ("name", Json.String c.counter_name); ("total", Json.Int c.total) ]

  let histogram_fields (h : histogram) =
    [
      ("name", Json.String h.hist_name);
      ("samples", Json.Int h.samples);
      ("sum", Json.Float h.sum);
      ("min", Json.Float h.min);
      ("max", Json.Float h.max);
    ]
    @ List.map (fun (key, _, q) -> (key, Json.Float (quantile h q))) quantiles
    @ [ ("buckets", Json.List (List.map (fun n -> Json.Int n) (Array.to_list h.buckets))) ]

  let rec span_to_json (s : span) : Json.t =
    Json.Obj
      ((("name", Json.String s.span_name) :: span_fields s)
      @ [ ("children", Json.List (List.map span_to_json s.children)) ])

  let to_json (t : t) : Json.t =
    Json.Obj
      [
        ("spans", Json.List (List.map span_to_json t.spans));
        ( "counters",
          Json.List (List.map (fun c -> Json.Obj (counter_fields c)) t.counters) );
        ( "histograms",
          Json.List (List.map (fun h -> Json.Obj (histogram_fields h)) t.histograms) );
      ]

  (* -- JSONL trace sink --

     One self-describing record per line.  Span records carry their full
     path so the tree can be rebuilt from a flat stream:

       {"type":"meta","format":"zkdet-trace","version":1}
       {"type":"span","path":["plonk.prove","round3"],"calls":1,"total_ns":...}
       {"type":"counter","name":"curve.msm.points","total":...}
       {"type":"histogram","name":"fft.points","samples":...,...}  *)

  let to_jsonl (t : t) : string list =
    let record kind fields =
      Json.to_string (Json.Obj (("type", Json.String kind) :: fields))
    in
    (record "meta" [ ("format", Json.String "zkdet-trace"); ("version", Json.Int 1) ]
    :: List.map
         (fun (path, s) ->
           record "span"
             (("path", Json.List (List.map (fun p -> Json.String p) path))
             :: span_fields s))
         (preorder t.spans))
    @ List.map (fun c -> record "counter" (counter_fields c)) t.counters
    @ List.map (fun h -> record "histogram" (histogram_fields h)) t.histograms

  (* Rebuild a report from JSONL lines.  Accepts exactly what [to_jsonl]
     writes: every field is required, a histogram's 64 buckets must sum
     to its samples, and its written quantiles are recomputed from them,
     not read. *)
  let of_jsonl (lines : string list) : (t, string) result =
    let ( let* ) = Result.bind in
    let field conv what j name =
      match Json.member name j with
      | None -> Error (Printf.sprintf "missing field %S" name)
      | Some v -> (
        match conv v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "field %S is not %s" name what))
    in
    let int j = field Json.to_int_opt "an int" j in
    let float j = field Json.to_float_opt "a number" j in
    let string j = field Json.to_string_opt "a string" j in
    let items conv what j name =
      let* l = field Json.to_list_opt "a list" j name in
      List.fold_right
        (fun item acc ->
          let* acc = acc in
          match conv item with
          | Some x -> Ok (x :: acc)
          | None -> Error (Printf.sprintf "field %S holds a non-%s" name what))
        l (Ok [])
    in
    let root = fresh_node "" in
    let counters = ref [] and hists = ref [] in
    let record j =
      let* kind = string j "type" in
      match kind with
      | "meta" ->
        let* format = string j "format" in
        let* version = int j "version" in
        if format <> "zkdet-trace" then
          Error (Printf.sprintf "unknown trace format %S" format)
        else if version <> 1 then Error (Printf.sprintf "unknown trace version %d" version)
        else Ok ()
      | "span" ->
        let* path = items Json.to_string_opt "string" j "path" in
        let* calls = int j "calls" in
        let* total_ns = int j "total_ns" in
        let* minor_words = float j "minor_words" in
        let* major_words = float j "major_words" in
        let* minor_gcs = int j "minor_gcs" in
        let* major_gcs = int j "major_gcs" in
        if path = [] then Error "span record with an empty path"
        else begin
          let n =
            List.fold_left (fun (n : node) name -> find_or_add n.children name fresh_node)
              root path
          in
          n.calls <- calls;
          n.total_ns <- total_ns;
          n.minor_words <- minor_words;
          n.major_words <- major_words;
          n.minor_gcs <- minor_gcs;
          n.major_gcs <- major_gcs;
          Ok ()
        end
      | "counter" ->
        let* counter_name = string j "name" in
        let* total = int j "total" in
        counters := { counter_name; total } :: !counters;
        Ok ()
      | "histogram" ->
        let* hist_name = string j "name" in
        let* samples = int j "samples" in
        let* sum = float j "sum" in
        let* min = float j "min" in
        let* max = float j "max" in
        let* () =
          List.fold_left
            (fun acc (key, _, _) ->
              let* () = acc in
              Result.map ignore (float j key))
            (Ok ()) quantiles
        in
        let* buckets = items Json.to_int_opt "int" j "buckets" in
        if List.length buckets <> num_buckets then
          Error (Printf.sprintf "histogram %S has %d buckets, not %d" hist_name
                   (List.length buckets) num_buckets)
        else if List.fold_left ( + ) 0 buckets <> samples then
          Error (Printf.sprintf "histogram %S: buckets do not sum to samples" hist_name)
        else begin
          hists :=
            { hist_name; samples; sum; min; max; buckets = Array.of_list buckets }
            :: !hists;
          Ok ()
        end
      | other -> Error (Printf.sprintf "unknown record type %S" other)
    in
    let* () =
      List.fold_left
        (fun acc (i, line) ->
          let* () = acc in
          Result.map_error (Printf.sprintf "line %d: %s" (i + 1))
            (Result.bind (Json.parse line) record))
        (Ok ())
        (List.mapi (fun i line -> (i, line)) lines)
    in
    Ok { spans = merge_nodes [ root ]; counters = List.rev !counters;
         histograms = List.rev !hists }

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

  let prom_family b name ~typ ~help samples =
    let name = prom_name name in
    let typ =
      match typ with
      | `Counter -> "counter"
      | `Gauge -> "gauge"
      | `Summary -> "summary"
      | `Histogram -> "histogram"
    in
    Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n" name (prom_label_value help) name typ;
    List.iter
      (fun (suffix, labels, value) ->
        let labels =
          if labels = [] then ""
          else
            "{"
            ^ String.concat ","
                (List.map (fun (k, v) -> k ^ "=\"" ^ prom_label_value v ^ "\"") labels)
            ^ "}"
        in
        Printf.bprintf b "%s%s%s %s\n" name suffix labels value)
      samples

  let to_prometheus (t : t) : string =
    let b = Buffer.create 4096 in
    (* One family per per-span quantity; the tree position is the
       {path="a/b"} label. *)
    let spans = preorder t.spans in
    let span_family name help value =
      if spans <> [] then
        prom_family b name ~typ:`Counter ~help
          (List.map
             (fun (path, s) -> ("", [ ("path", String.concat "/" path) ], value s))
             spans)
    in
    span_family "zkdet_span_total_ns" "Cumulative wall time per span path." (fun s ->
        string_of_int s.total_ns);
    span_family "zkdet_span_calls" "Number of times each span path was entered." (fun s ->
        string_of_int s.calls);
    span_family "zkdet_span_minor_words"
      "Minor-heap words allocated inside each span path (children included)." (fun s ->
        prom_float s.minor_words);
    span_family "zkdet_span_major_words"
      "Major-heap words allocated or promoted inside each span path." (fun s ->
        prom_float s.major_words);
    span_family "zkdet_span_minor_collections"
      "Minor collections triggered inside each span path." (fun s ->
        string_of_int s.minor_gcs);
    span_family "zkdet_span_major_collections"
      "Major collection slices triggered inside each span path." (fun s ->
        string_of_int s.major_gcs);
    List.iter
      (fun (c : counter) ->
        prom_family b ("zkdet_" ^ c.counter_name) ~typ:`Counter
          ~help:(Printf.sprintf "Monotonic total of the %s counter." c.counter_name)
          [ ("", [], string_of_int c.total) ])
      t.counters;
    List.iter
      (fun (h : histogram) ->
        let n = "zkdet_" ^ h.hist_name in
        let sum_count =
          [ ("_sum", [], prom_float h.sum); ("_count", [], string_of_int h.samples) ]
        in
        (* Summary family: quantile estimates from the fixed buckets. *)
        prom_family b n ~typ:`Summary
          ~help:(Printf.sprintf "Quantile summary of the %s histogram." h.hist_name)
          (List.map
             (fun (_, label, q) ->
               ("", [ ("quantile", label) ], prom_float (quantile h q)))
             quantiles
          @ sum_count);
        (* Histogram family: cumulative power-of-two buckets.  A sibling
           name (_buckets) because one exposition family cannot be both a
           summary and a histogram. *)
        let cum = ref 0 and le = ref [] in
        Array.iteri
          (fun i c ->
            cum := !cum + c;
            if c > 0 && i < num_buckets - 1 then
              le :=
                ("_bucket", [ ("le", prom_float (bucket_upper i)) ], string_of_int !cum)
                :: !le)
          h.buckets;
        prom_family b (n ^ "_buckets") ~typ:`Histogram
          ~help:
            (Printf.sprintf "Cumulative power-of-two buckets of the %s histogram."
               h.hist_name)
          (List.rev_append !le
             (("_bucket", [ ("le", "+Inf") ], string_of_int h.samples) :: sum_count));
        prom_family b (n ^ "_min") ~typ:`Gauge ~help:"Smallest sample observed."
          [ ("", [], prom_float h.min) ];
        prom_family b (n ^ "_max") ~typ:`Gauge ~help:"Largest sample observed."
          [ ("", [], prom_float h.max) ])
      t.histograms;
    Buffer.contents b
end

(* Merge all per-domain buffers into one deterministic report.  Children
   are sorted by name so the result does not depend on domain count or
   scheduling; callers invoke this from quiesced code. *)
let snapshot () : Report.t =
  let all = all_dstates () in
  let spans = Report.merge_nodes (List.map (fun ds -> ds.root) all) in
  let counter_tbl = Hashtbl.create 16 and hist_tbl = Hashtbl.create 8 in
  List.iter
    (fun ds ->
      Hashtbl.iter
        (fun name r ->
          let acc = find_or_add counter_tbl name (fun _ -> ref 0) in
          acc := !acc + !r)
        ds.counters;
      Hashtbl.iter
        (fun name h ->
          hist_merge ~into:(find_or_add hist_tbl name (fun _ -> hist_create ())) h)
        ds.hists)
    all;
  let sorted tbl f =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map f
  in
  {
    Report.spans;
    counters =
      sorted counter_tbl (fun (name, r) -> { Report.counter_name = name; total = !r });
    histograms = sorted hist_tbl (fun (name, h) -> Report.of_hist name h);
  }

(* ---- rolling-window snapshot ---- *)

type window_stat = {
  w_name : string;
  w_seconds : float; (* seconds of the horizon actually covered *)
  w_count : int; (* counter increments inside the window *)
  w_rate : float; (* (count + samples) per covered second *)
  w_hist : Report.histogram; (* histogram samples inside the window *)
}

(* Merge the live slots of every domain's ring for each metric name.
   Slots older than the horizon (or from the future, impossible) are
   skipped; the covered-seconds denominator counts from the first epoch
   the metric ever recorded so a freshly started run is not diluted by
   empty history. *)
let window_snapshot () : window_stat list =
  let now_epoch = monotonic_ns () / window_slot_ns in
  let oldest = now_epoch - window_slots + 1 in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun ds ->
      Hashtbl.iter
        (fun name (w : window) ->
          let h, count, first =
            find_or_add acc name (fun _ -> (hist_create (), ref 0, ref max_int))
          in
          if w.w_first_epoch >= 0 && w.w_first_epoch < !first then
            first := w.w_first_epoch;
          Array.iter
            (fun (s : wslot) ->
              if s.s_epoch >= oldest && s.s_epoch <= now_epoch then begin
                count := !count + s.s_count;
                hist_merge ~into:h s.s_hist
              end)
            w.w_ring)
        ds.windows)
    (all_dstates ());
  Hashtbl.fold
    (fun name (h, count, first) stats ->
      let covered =
        if !first = max_int then 1
        else min window_slots (now_epoch - max !first oldest + 1)
      in
      let seconds = float_of_int (max 1 covered) in
      {
        w_name = name;
        w_seconds = seconds;
        w_count = !count;
        w_rate = float_of_int (!count + h.h_count) /. seconds;
        w_hist = Report.of_hist name h;
      }
      :: stats)
    acc []
  |> List.sort (fun a b -> compare a.w_name b.w_name)

(* Rolling-window families for the live /metrics endpoint.  Gauges, not
   counters: each scrape sees the trailing-horizon value. *)
let window_to_prometheus () : string =
  match window_snapshot () with
  | [] -> ""
  | stats ->
    let b = Buffer.create 1024 in
    let labels w extra =
      (("name", w.w_name) :: extra) @ [ ("window", Printf.sprintf "%ds" window_slots) ]
    in
    Report.prom_family b "zkdet_window_rate" ~typ:`Gauge
      ~help:"Events per second over the trailing window."
      (List.map (fun w -> ("", labels w [], Report.prom_float w.w_rate)) stats);
    Report.prom_family b "zkdet_window_events" ~typ:`Gauge
      ~help:"Events recorded inside the trailing window."
      (List.map
         (fun w -> ("", labels w [], string_of_int (w.w_count + w.w_hist.Report.samples)))
         stats);
    let sampled = List.filter (fun w -> w.w_hist.Report.samples > 0) stats in
    if sampled <> [] then
      Report.prom_family b "zkdet_window_quantile" ~typ:`Gauge
        ~help:"Quantile estimates over the trailing window (histogram metrics only)."
        (List.concat_map
           (fun w ->
             List.map
               (fun (_, label, q) ->
                 ( "",
                   labels w [ ("quantile", label) ],
                   Report.prom_float (Report.quantile w.w_hist q) ))
               Report.quantiles)
           sampled);
    Buffer.contents b

let print_summary ?(oc = stdout) () =
  let fmt = Format.formatter_of_out_channel oc in
  Report.pp fmt (snapshot ());
  Format.pp_print_flush fmt ()

(* ---- environment / sinks ---- *)

let write_trace ~path : (unit, string) result =
  let lines = Report.to_jsonl (snapshot ()) in
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    Ok ()
  with Sys_error e -> Error e

let truthy = function
  | "" | "0" | "false" | "no" -> false
  | _ -> true

(* Read the environment once, at load time, so every executable linking
   the instrumented libraries honours ZKDET_PROFILE and ZKDET_TRACE; the
   trace is written when the program exits. *)
let () =
  (match Sys.getenv_opt "ZKDET_PROFILE" with
  | Some v when truthy v -> set_enabled true
  | _ -> ());
  match Sys.getenv_opt "ZKDET_TRACE" with
  | Some path when path <> "" ->
    set_enabled true;
    at_exit (fun () ->
        match write_trace ~path with
        | Ok () -> Printf.eprintf "telemetry: trace written to %s\n%!" path
        | Error e -> Printf.eprintf "telemetry: failed to write trace: %s\n%!" e)
  | _ -> ()
