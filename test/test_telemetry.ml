(* Telemetry invariants (DESIGN.md): the disabled path records nothing,
   span trees nest and aggregate per (parent, name), per-domain buffers
   merge to the same totals at any pool size, the JSONL trace round-trips,
   and — the property everything else leans on — proof bytes are identical
   with telemetry on or off, at any domain count. *)

module Telemetry = Zkdet_telemetry.Telemetry
module Report = Zkdet_telemetry.Telemetry.Report
module Json = Zkdet_telemetry.Json
module Pool = Zkdet_parallel.Pool
module Fr = Zkdet_field.Bn254.Fr
module Cs = Zkdet_plonk.Cs
module Backend = Zkdet_plonk.Backend
module Preprocess = Zkdet_plonk.Preprocess
module Prover = Zkdet_plonk.Prover
module Srs = Zkdet_kzg.Srs

let with_recording f =
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f

let disabled_noop () =
  Telemetry.set_enabled false;
  Telemetry.reset ();
  Telemetry.count "ghost" 3;
  Telemetry.observe "ghost.h" 1.0;
  Telemetry.with_span "ghost.span" (fun () -> ());
  let r = Telemetry.snapshot () in
  Alcotest.(check bool) "no spans" true (r.Report.spans = []);
  Alcotest.(check bool) "no counters" true (r.Report.counters = []);
  Alcotest.(check bool) "no histograms" true (r.Report.histograms = [])

let span_nesting () =
  with_recording @@ fun () ->
  Telemetry.with_span "outer" (fun () ->
      Telemetry.with_span "b" (fun () -> ignore (Sys.opaque_identity 1));
      Telemetry.with_span "a" (fun () -> ignore (Sys.opaque_identity 2));
      Telemetry.with_span "b" (fun () -> ignore (Sys.opaque_identity 3)));
  let r = Telemetry.snapshot () in
  (match r.Report.spans with
  | [ outer ] ->
    Alcotest.(check string) "root name" "outer" outer.Report.span_name;
    Alcotest.(check int) "root calls" 1 outer.Report.calls;
    Alcotest.(check (list string))
      "children sorted by name" [ "a"; "b" ]
      (List.map (fun (s : Report.span) -> s.Report.span_name)
         outer.Report.children);
    let b = List.nth outer.Report.children 1 in
    Alcotest.(check int) "re-entered span accumulates" 2 b.Report.calls;
    let child_total =
      List.fold_left
        (fun acc (s : Report.span) -> acc + s.Report.total_ns)
        0 outer.Report.children
    in
    Alcotest.(check bool) "parent covers children" true
      (outer.Report.total_ns >= child_total)
  | spans ->
    Alcotest.failf "expected exactly one root span, got %d" (List.length spans));
  match Report.find_span (Telemetry.snapshot ()).Report.spans [ "outer"; "a" ] with
  | Some s -> Alcotest.(check int) "find_span path" 1 s.Report.calls
  | None -> Alcotest.fail "find_span missed outer/a"

let counters_and_histograms () =
  with_recording @@ fun () ->
  Telemetry.count "c" 2;
  Telemetry.count "c" 3;
  Telemetry.count "d" 1;
  List.iter (Telemetry.observe "h") [ 1.5; 0.5; 2.0 ];
  let r = Telemetry.snapshot () in
  Alcotest.(check (option int)) "counter sums" (Some 5) (Report.find_counter r "c");
  Alcotest.(check (option int)) "second counter" (Some 1) (Report.find_counter r "d");
  Alcotest.(check (option int)) "absent counter" None (Report.find_counter r "nope");
  match r.Report.histograms with
  | [ h ] ->
    Alcotest.(check string) "hist name" "h" h.Report.hist_name;
    Alcotest.(check int) "samples" 3 h.Report.samples;
    Alcotest.(check (float 1e-9)) "sum" 4.0 h.Report.sum;
    Alcotest.(check (float 1e-9)) "min" 0.5 h.Report.min;
    Alcotest.(check (float 1e-9)) "max" 2.0 h.Report.max
  | hs -> Alcotest.failf "expected one histogram, got %d" (List.length hs)

(* The merge property the prover's determinism argument relies on: counts
   recorded inside pool workers sum to the same totals at any pool size. *)
let counter_merge_across_domains () =
  with_recording @@ fun () ->
  let workload () =
    Pool.parallel_for 0 100 (fun i ->
        Telemetry.count "work.items" 1;
        Telemetry.observe "work.val" (float_of_int i))
  in
  let totals d =
    Telemetry.reset ();
    Pool.with_domains d workload;
    let r = Telemetry.snapshot () in
    let h =
      List.find
        (fun (h : Report.histogram) -> h.Report.hist_name = "work.val")
        r.Report.histograms
    in
    ( Report.find_counter r "work.items",
      (h.Report.samples, h.Report.sum, h.Report.min, h.Report.max),
      List.map
        (fun (c : Report.counter) -> (c.Report.counter_name, c.Report.total))
        r.Report.counters )
  in
  let c1, h1, all1 = totals 1 in
  let c4, h4, all4 = totals 4 in
  Alcotest.(check (option int)) "items counted once each" (Some 100) c1;
  Alcotest.(check (option int)) "same at 4 domains" c1 c4;
  let hist =
    Alcotest.(pair (pair int (float 1e-9)) (pair (float 1e-9) (float 1e-9)))
  in
  let quad (a, b, c, d) = ((a, b), (c, d)) in
  Alcotest.check hist "histogram identical across domain counts" (quad h1)
    (quad h4);
  Alcotest.(check (list (pair string int)))
    "every counter (incl. pool.*) identical across domain counts" all1 all4

let jsonl_roundtrip () =
  with_recording @@ fun () ->
  Telemetry.with_span "phase" (fun () ->
      Telemetry.with_span "step" (fun () -> Telemetry.count "inner" 7));
  Telemetry.count "outer.counter" 41;
  Telemetry.observe "sizes" 128.0;
  Telemetry.observe "sizes" 256.0;
  let r = Telemetry.snapshot () in
  let lines = Report.to_jsonl r in
  Alcotest.(check bool) "has lines" true (List.length lines > 1);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unparseable trace line %S: %s" line e)
    lines;
  match Report.of_jsonl lines with
  | Error e -> Alcotest.failf "of_jsonl failed: %s" e
  | Ok r' ->
    Alcotest.(check bool) "round-trips structurally" true (r = r')

let write_trace_file () =
  with_recording @@ fun () ->
  Telemetry.with_span "traced" (fun () -> Telemetry.count "traced.n" 2);
  let path = Filename.temp_file "zkdet_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (match Telemetry.write_trace ~path () with
  | Ok p -> Alcotest.(check string) "returns the path" path p
  | Error e -> Alcotest.failf "write_trace failed: %s" e);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  match Report.of_jsonl (List.rev !lines) with
  | Ok r ->
    Alcotest.(check (option int)) "counter survives the file" (Some 2)
      (Report.find_counter r "traced.n")
  | Error e -> Alcotest.failf "trace file invalid: %s" e

(* GC attribution: a span that allocates heavily must report nonzero
   minor words; a nested non-allocating span must stay close to zero. *)
let gc_attribution () =
  with_recording @@ fun () ->
  Telemetry.with_span "alloc" (fun () ->
      let keep = ref [] in
      for i = 0 to 9_999 do
        keep := string_of_int i :: !keep
      done;
      ignore (Sys.opaque_identity !keep));
  let r = Telemetry.snapshot () in
  match Report.find_span r.Report.spans [ "alloc" ] with
  | None -> Alcotest.fail "alloc span missing"
  | Some s ->
    Alcotest.(check bool) "minor words attributed" true
      (s.Report.minor_words > 10_000.0);
    Alcotest.(check bool) "gc counters sane" true
      (s.Report.minor_gcs >= 0 && s.Report.major_gcs >= 0)

let p999_ordering () =
  with_recording @@ fun () ->
  for i = 1 to 1000 do
    Telemetry.observe "lat" (float_of_int i)
  done;
  let r = Telemetry.snapshot () in
  match r.Report.histograms with
  | [ h ] ->
    Alcotest.(check bool) "quantiles ordered" true
      (h.Report.p50 <= h.Report.p95
      && h.Report.p95 <= h.Report.p99
      && h.Report.p99 <= h.Report.p999
      && h.Report.p999 <= h.Report.max);
    Alcotest.(check int) "bucket array length" Telemetry.num_buckets
      (Array.length h.Report.buckets);
    Alcotest.(check int) "buckets sum to samples" h.Report.samples
      (Array.fold_left ( + ) 0 h.Report.buckets)
  | hs -> Alcotest.failf "expected one histogram, got %d" (List.length hs)

(* Satellite: strict Prometheus-conformance gate over to_prometheus, using
   the unforgiving parser in Test_util.Prom.  Metric names with hostile
   characters must sanitize; label values must escape; every histogram
   must expose cumulative le-buckets ending in +Inf. *)
let prometheus_conformance () =
  with_recording @@ fun () ->
  Telemetry.with_span "outer phase" (fun () ->
      Telemetry.with_span "inner\"quoted\\path" (fun () ->
          Telemetry.count "weird-counter.name" 2));
  Telemetry.count "plain_counter" 41;
  for i = 0 to 99 do
    Telemetry.observe "sizes.bytes" (float_of_int (i * 17))
  done;
  let text = Report.to_prometheus (Telemetry.snapshot ()) in
  let fams =
    try Test_util.Prom.parse text
    with Failure m -> Alcotest.failf "not conformant: %s" m
  in
  let find n =
    match Test_util.Prom.find fams n with
    | Some f -> f
    | None -> Alcotest.failf "family %s missing" n
  in
  let counter = find "zkdet_plain_counter" in
  Alcotest.(check bool) "counter typed" true
    (counter.Test_util.Prom.f_type = Test_util.Prom.Counter);
  (match counter.Test_util.Prom.f_samples with
  | [ s ] ->
    Alcotest.(check (float 0.0)) "counter value" 41.0 s.Test_util.Prom.s_value
  | _ -> Alcotest.fail "counter sample count");
  let summary = find "zkdet_sizes_bytes" in
  Alcotest.(check bool) "histogram exposed as summary" true
    (summary.Test_util.Prom.f_type = Test_util.Prom.Summary);
  let hist = find "zkdet_sizes_bytes_buckets" in
  Alcotest.(check bool) "sibling le-bucket family" true
    (hist.Test_util.Prom.f_type = Test_util.Prom.Histogram);
  (* The escaped span path must round-trip through the parser's unescape:
     the raw label value contains the quote and backslash again. *)
  let spans = find "zkdet_span_calls" in
  let paths =
    List.filter_map
      (fun s -> List.assoc_opt "path" s.Test_util.Prom.s_labels)
      spans.Test_util.Prom.f_samples
  in
  Alcotest.(check bool) "hostile span path escaped and recovered" true
    (List.exists
       (fun p ->
         p = "outer phase/inner\"quoted\\path")
       paths);
  (* All four GC span families are present and typed. *)
  List.iter
    (fun n ->
      ignore (find n))
    [ "zkdet_span_minor_words"; "zkdet_span_major_words";
      "zkdet_span_minor_collections"; "zkdet_span_major_collections" ]

(* Rolling windows: recording with windows enabled makes the trailing-60s
   aggregation visible (and typed) without touching the snapshot. *)
let rolling_windows () =
  with_recording @@ fun () ->
  Telemetry.set_window_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_window_enabled false)
  @@ fun () ->
  Telemetry.count "win.counter" 5;
  for i = 1 to 50 do
    Telemetry.observe "win.lat" (float_of_int i)
  done;
  let stats = Telemetry.window_snapshot () in
  let stat n =
    match List.find_opt (fun s -> s.Telemetry.w_name = n) stats with
    | Some s -> s
    | None -> Alcotest.failf "window stat %s missing" n
  in
  let c = stat "win.counter" in
  Alcotest.(check int) "counter increments visible" 5 c.Telemetry.w_count;
  Alcotest.(check bool) "rate positive" true (c.Telemetry.w_rate > 0.0);
  let l = stat "win.lat" in
  Alcotest.(check int) "samples visible" 50 l.Telemetry.w_samples;
  Alcotest.(check bool) "window quantiles ordered" true
    (l.Telemetry.w_p50 <= l.Telemetry.w_p99
    && l.Telemetry.w_p99 <= l.Telemetry.w_max);
  (* The window exposition is itself conformant Prometheus text. *)
  let text = Telemetry.window_to_prometheus () in
  (try ignore (Test_util.Prom.parse text)
   with Failure m -> Alcotest.failf "window exposition not conformant: %s" m);
  (* Windows never leak into the deterministic snapshot: the snapshot has
     the same counters whether windows were on or off. *)
  let r = Telemetry.snapshot () in
  Alcotest.(check (option int)) "snapshot unchanged by windows" (Some 5)
    (Report.find_counter r "win.counter")

(* Windows off (the default): recording must leave the window layer empty. *)
let windows_off_by_default () =
  with_recording @@ fun () ->
  Telemetry.count "silent" 3;
  Alcotest.(check bool) "no window stats" true
    (Telemetry.window_snapshot () = []);
  Alcotest.(check string) "no window exposition" ""
    (Telemetry.window_to_prometheus ())

(* Proofs must be byte-identical with telemetry on or off and at any
   domain count: spans wrap the prover's rounds without touching its
   randomness stream, and counting happens outside the field kernels. *)
let proof_bytes_invariant () =
  let cs = Cs.create () in
  let pub = Cs.public_input cs (Fr.of_int 7) in
  let acc = ref (Cs.constant cs Fr.zero) in
  for _ = 1 to 60 do
    acc := Cs.add_const cs !acc Fr.one
  done;
  ignore pub;
  let compiled = Cs.compile cs in
  let pk = Backend.setup ~st:(Random.State.make [| 1 |]) compiled in
  let prove () =
    Backend.proof_to_bytes
      (Backend.prove ~st:(Random.State.make [| 42 |]) pk compiled)
  in
  Telemetry.set_enabled false;
  let bytes_off = prove () in
  let bytes_on =
    with_recording (fun () ->
        let b = prove () in
        let r = Telemetry.snapshot () in
        Alcotest.(check bool) "prover spans recorded" true
          (Report.find_span r.Report.spans [ "plonk.prove" ] <> None);
        b)
  in
  Alcotest.(check bool) "identical with telemetry on vs off" true
    (String.equal bytes_off bytes_on);
  let bytes_par =
    with_recording (fun () -> Pool.with_domains 4 prove)
  in
  Alcotest.(check bool) "identical at 4 domains with telemetry on" true
    (String.equal bytes_off bytes_par)

(* Every commitment of the preprocessor and the prover goes through
   [Kzg.commit_batch], so each MSM is timed under a [kzg.commit_batch]
   span, not as self time of the step that asked for it. *)
let commitments_under_kzg_spans () =
  let cs = Cs.create () in
  let x = Cs.fresh cs (Fr.of_int 3) in
  let pub = Cs.public_input cs (Fr.of_int 9) in
  Cs.assert_equal cs (Cs.mul cs x x) pub;
  let compiled = Cs.compile cs in
  let srs =
    Srs.unsafe_generate ~st:(Random.State.make [| 5 |])
      ~size:(Preprocess.padded_size compiled + 8) ()
  in
  with_recording @@ fun () ->
  let pk = Preprocess.setup srs compiled in
  ignore (Prover.prove ~st:(Random.State.make [| 6 |]) pk compiled);
  let spans = (Telemetry.snapshot ()).Report.spans in
  List.iter
    (fun path ->
      Alcotest.(check bool) (String.concat " > " path) true
        (Report.find_span spans path <> None))
    [ [ "plonk.preprocess"; "kzg.commit_batch" ];
      [ "plonk.prove"; "round2.permutation"; "kzg.commit_batch" ] ]

let () =
  Alcotest.run "telemetry"
    [ ( "recording",
        [ Alcotest.test_case "disabled path records nothing" `Quick disabled_noop;
          Alcotest.test_case "span nesting and aggregation" `Quick span_nesting;
          Alcotest.test_case "counters and histograms" `Quick
            counters_and_histograms;
          Alcotest.test_case "merge identical across domain counts" `Quick
            counter_merge_across_domains ] );
      ( "trace",
        [ Alcotest.test_case "JSONL round-trip" `Quick jsonl_roundtrip;
          Alcotest.test_case "write_trace file round-trip" `Quick
            write_trace_file ] );
      ( "profiling",
        [ Alcotest.test_case "GC allocation attribution" `Quick gc_attribution;
          Alcotest.test_case "p999 ordering and raw buckets" `Quick
            p999_ordering ] );
      ( "prometheus",
        [ Alcotest.test_case "strict exposition conformance" `Quick
            prometheus_conformance ] );
      ( "windows",
        [ Alcotest.test_case "rolling window aggregation" `Quick rolling_windows;
          Alcotest.test_case "off by default" `Quick windows_off_by_default ] );
      ( "determinism",
        [ Alcotest.test_case "proof bytes invariant under telemetry" `Quick
            proof_bytes_invariant ] );
      ( "spans",
        [ Alcotest.test_case "every commitment under a kzg span" `Quick
            commitments_under_kzg_spans ] ) ]
