(* Telemetry invariants (DESIGN.md): the disabled path records nothing,
   span trees nest and aggregate per (parent, name), per-domain buffers
   merge to the same totals at any pool size, every encoder writes pinned
   bytes, the JSONL reader is the writer's strict inverse, and — the
   property everything else leans on — proof bytes are identical with
   telemetry on or off, at any domain count. *)

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
module Gen = Zkdet_proptest.Gen

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

(* ---- encodings ---- *)

let span ?(children = []) name calls total_ns minor_words major_words minor_gcs
    major_gcs : Report.span =
  { Report.span_name = name; calls; total_ns; minor_words; major_words;
    minor_gcs; major_gcs; children }

let buckets l =
  let a = Array.make Telemetry.num_buckets 0 in
  List.iter (fun (i, n) -> a.(i) <- n) l;
  a

(* Nested spans (one name with a space, a quote and a backslash), two
   counters, a histogram over four buckets and a one-sample one. *)
let golden : Report.t =
  {
    Report.spans =
      [ span "prove" 2 5_000_000 2_500_000.5 64. 1 0
          ~children:
            [ span "round \"1\" \\ a" 2 3_000_000 800. 0. 0 0;
              span "round2" 2 1_000_000 100.25 0. 0 0
                ~children:[ span "kzg.commit" 4 600_000 50. 0. 0 0 ] ];
        span "verify" 1 250_000 12.75 0. 0 0 ];
    counters =
      [ { Report.counter_name = "chain.txs"; total = 12 };
        { Report.counter_name = "curve.msm.points"; total = 4096 } ];
    histograms =
      [ { Report.hist_name = "fft.points"; samples = 5; sum = 8492.; min = 300.;
          max = 4096.; buckets = buckets [ (29, 1); (30, 2); (31, 1); (32, 1) ] };
        { Report.hist_name = "verify.ms"; samples = 1; sum = 0.75; min = 0.75;
          max = 0.75; buckets = buckets [ (20, 1) ] } ];
  }

(* The exact text each encoder writes for [golden]. *)

let zeros n = String.concat "," (List.init n (fun _ -> "0"))
let fft_buckets = "[" ^ zeros 29 ^ ",1,2,1,1," ^ zeros 31 ^ "]"
let verify_buckets = "[" ^ zeros 20 ^ ",1," ^ zeros 43 ^ "]"

let golden_jsonl =
  [
    {|{"type":"meta","format":"zkdet-trace","version":1}|};
    {|{"type":"span","path":["prove"],"calls":2,"total_ns":5000000,|}
    ^ {|"minor_words":2500000.5,"major_words":64.0,"minor_gcs":1,|}
    ^ {|"major_gcs":0}|};
    {|{"type":"span","path":["prove","round \"1\" \\ a"],"calls":2,|}
    ^ {|"total_ns":3000000,"minor_words":800.0,"major_words":0.0,|}
    ^ {|"minor_gcs":0,"major_gcs":0}|};
    {|{"type":"span","path":["prove","round2"],"calls":2,|}
    ^ {|"total_ns":1000000,"minor_words":100.25,"major_words":0.0,|}
    ^ {|"minor_gcs":0,"major_gcs":0}|};
    {|{"type":"span","path":["prove","round2","kzg.commit"],|}
    ^ {|"calls":4,"total_ns":600000,"minor_words":50.0,|}
    ^ {|"major_words":0.0,"minor_gcs":0,"major_gcs":0}|};
    {|{"type":"span","path":["verify"],"calls":1,"total_ns":250000,|}
    ^ {|"minor_words":12.75,"major_words":0.0,"minor_gcs":0,|}
    ^ {|"major_gcs":0}|};
    {|{"type":"counter","name":"chain.txs","total":12}|};
    {|{"type":"counter","name":"curve.msm.points","total":4096}|};
    {|{"type":"histogram","name":"fft.points","samples":5,|}
    ^ {|"sum":8492.0,"min":300.0,"max":4096.0,"p50":1024.0,|}
    ^ {|"p95":4096.0,"p99":4096.0,"p999":4096.0,"buckets":|}
    ^ fft_buckets
    ^ {|}|};
    {|{"type":"histogram","name":"verify.ms","samples":1,"sum":0.75,|}
    ^ {|"min":0.75,"max":0.75,"p50":0.75,"p95":0.75,"p99":0.75,|}
    ^ {|"p999":0.75,"buckets":|}
    ^ verify_buckets
    ^ {|}|};
  ]

let golden_json =
  {|{"spans":[{"name":"prove","calls":2,"total_ns":5000000,|}
  ^ {|"minor_words":2500000.5,"major_words":64.0,"minor_gcs":1,|}
  ^ {|"major_gcs":0,"children":[{"name":"round \"1\" \\ a",|}
  ^ {|"calls":2,"total_ns":3000000,"minor_words":800.0,|}
  ^ {|"major_words":0.0,"minor_gcs":0,"major_gcs":0,"children":[]},|}
  ^ {|{"name":"round2","calls":2,"total_ns":1000000,|}
  ^ {|"minor_words":100.25,"major_words":0.0,"minor_gcs":0,|}
  ^ {|"major_gcs":0,"children":[{"name":"kzg.commit","calls":4,|}
  ^ {|"total_ns":600000,"minor_words":50.0,"major_words":0.0,|}
  ^ {|"minor_gcs":0,"major_gcs":0,"children":[]}]}]},|}
  ^ {|{"name":"verify","calls":1,"total_ns":250000,|}
  ^ {|"minor_words":12.75,"major_words":0.0,"minor_gcs":0,|}
  ^ {|"major_gcs":0,"children":[]}],"counters":[{"name":"chain.txs",|}
  ^ {|"total":12},{"name":"curve.msm.points","total":4096}],|}
  ^ {|"histograms":[{"name":"fft.points","samples":5,"sum":8492.0,|}
  ^ {|"min":300.0,"max":4096.0,"p50":1024.0,"p95":4096.0,|}
  ^ {|"p99":4096.0,"p999":4096.0,"buckets":|}
  ^ fft_buckets
  ^ {|},{"name":"verify.ms","samples":1,"sum":0.75,"min":0.75,|}
  ^ {|"max":0.75,"p50":0.75,"p95":0.75,"p99":0.75,"p999":0.75,|}
  ^ {|"buckets":|}
  ^ verify_buckets
  ^ {|}]}|}

let golden_prometheus =
  String.concat "\n"
    [
      {|# HELP zkdet_span_total_ns Cumulative wall time per span path.|};
      {|# TYPE zkdet_span_total_ns counter|};
      {|zkdet_span_total_ns{path="prove"} 5000000|};
      {|zkdet_span_total_ns{path="prove/round \"1\" \\ a"} 3000000|};
      {|zkdet_span_total_ns{path="prove/round2"} 1000000|};
      {|zkdet_span_total_ns{path="prove/round2/kzg.commit"} 600000|};
      {|zkdet_span_total_ns{path="verify"} 250000|};
      {|# HELP zkdet_span_calls Number of times each span path was entered.|};
      {|# TYPE zkdet_span_calls counter|};
      {|zkdet_span_calls{path="prove"} 2|};
      {|zkdet_span_calls{path="prove/round \"1\" \\ a"} 2|};
      {|zkdet_span_calls{path="prove/round2"} 2|};
      {|zkdet_span_calls{path="prove/round2/kzg.commit"} 4|};
      {|zkdet_span_calls{path="verify"} 1|};
      {|# HELP zkdet_span_minor_words Minor-heap words allocated inside each span path (children included).|};
      {|# TYPE zkdet_span_minor_words counter|};
      {|zkdet_span_minor_words{path="prove"} 2500000.5|};
      {|zkdet_span_minor_words{path="prove/round \"1\" \\ a"} 800|};
      {|zkdet_span_minor_words{path="prove/round2"} 100.25|};
      {|zkdet_span_minor_words{path="prove/round2/kzg.commit"} 50|};
      {|zkdet_span_minor_words{path="verify"} 12.75|};
      {|# HELP zkdet_span_major_words Major-heap words allocated or promoted inside each span path.|};
      {|# TYPE zkdet_span_major_words counter|};
      {|zkdet_span_major_words{path="prove"} 64|};
      {|zkdet_span_major_words{path="prove/round \"1\" \\ a"} 0|};
      {|zkdet_span_major_words{path="prove/round2"} 0|};
      {|zkdet_span_major_words{path="prove/round2/kzg.commit"} 0|};
      {|zkdet_span_major_words{path="verify"} 0|};
      {|# HELP zkdet_span_minor_collections Minor collections triggered inside each span path.|};
      {|# TYPE zkdet_span_minor_collections counter|};
      {|zkdet_span_minor_collections{path="prove"} 1|};
      {|zkdet_span_minor_collections{path="prove/round \"1\" \\ a"} 0|};
      {|zkdet_span_minor_collections{path="prove/round2"} 0|};
      {|zkdet_span_minor_collections{path="prove/round2/kzg.commit"} 0|};
      {|zkdet_span_minor_collections{path="verify"} 0|};
      {|# HELP zkdet_span_major_collections Major collection slices triggered inside each span path.|};
      {|# TYPE zkdet_span_major_collections counter|};
      {|zkdet_span_major_collections{path="prove"} 0|};
      {|zkdet_span_major_collections{path="prove/round \"1\" \\ a"} 0|};
      {|zkdet_span_major_collections{path="prove/round2"} 0|};
      {|zkdet_span_major_collections{path="prove/round2/kzg.commit"} 0|};
      {|zkdet_span_major_collections{path="verify"} 0|};
      {|# HELP zkdet_chain_txs Monotonic total of the chain.txs counter.|};
      {|# TYPE zkdet_chain_txs counter|};
      {|zkdet_chain_txs 12|};
      {|# HELP zkdet_curve_msm_points Monotonic total of the curve.msm.points counter.|};
      {|# TYPE zkdet_curve_msm_points counter|};
      {|zkdet_curve_msm_points 4096|};
      {|# HELP zkdet_fft_points Quantile summary of the fft.points histogram.|};
      {|# TYPE zkdet_fft_points summary|};
      {|zkdet_fft_points{quantile="0.5"} 1024|};
      {|zkdet_fft_points{quantile="0.95"} 4096|};
      {|zkdet_fft_points{quantile="0.99"} 4096|};
      {|zkdet_fft_points{quantile="0.999"} 4096|};
      {|zkdet_fft_points_sum 8492|};
      {|zkdet_fft_points_count 5|};
      {|# HELP zkdet_fft_points_buckets Cumulative power-of-two buckets of the fft.points histogram.|};
      {|# TYPE zkdet_fft_points_buckets histogram|};
      {|zkdet_fft_points_buckets_bucket{le="512"} 1|};
      {|zkdet_fft_points_buckets_bucket{le="1024"} 3|};
      {|zkdet_fft_points_buckets_bucket{le="2048"} 4|};
      {|zkdet_fft_points_buckets_bucket{le="4096"} 5|};
      {|zkdet_fft_points_buckets_bucket{le="+Inf"} 5|};
      {|zkdet_fft_points_buckets_sum 8492|};
      {|zkdet_fft_points_buckets_count 5|};
      {|# HELP zkdet_fft_points_min Smallest sample observed.|};
      {|# TYPE zkdet_fft_points_min gauge|};
      {|zkdet_fft_points_min 300|};
      {|# HELP zkdet_fft_points_max Largest sample observed.|};
      {|# TYPE zkdet_fft_points_max gauge|};
      {|zkdet_fft_points_max 4096|};
      {|# HELP zkdet_verify_ms Quantile summary of the verify.ms histogram.|};
      {|# TYPE zkdet_verify_ms summary|};
      {|zkdet_verify_ms{quantile="0.5"} 0.75|};
      {|zkdet_verify_ms{quantile="0.95"} 0.75|};
      {|zkdet_verify_ms{quantile="0.99"} 0.75|};
      {|zkdet_verify_ms{quantile="0.999"} 0.75|};
      {|zkdet_verify_ms_sum 0.75|};
      {|zkdet_verify_ms_count 1|};
      {|# HELP zkdet_verify_ms_buckets Cumulative power-of-two buckets of the verify.ms histogram.|};
      {|# TYPE zkdet_verify_ms_buckets histogram|};
      {|zkdet_verify_ms_buckets_bucket{le="1"} 1|};
      {|zkdet_verify_ms_buckets_bucket{le="+Inf"} 1|};
      {|zkdet_verify_ms_buckets_sum 0.75|};
      {|zkdet_verify_ms_buckets_count 1|};
      {|# HELP zkdet_verify_ms_min Smallest sample observed.|};
      {|# TYPE zkdet_verify_ms_min gauge|};
      {|zkdet_verify_ms_min 0.75|};
      {|# HELP zkdet_verify_ms_max Largest sample observed.|};
      {|# TYPE zkdet_verify_ms_max gauge|};
      {|zkdet_verify_ms_max 0.75|};
      "" ]

let golden_pp =
  String.concat "\n"
    [
      {|telemetry summary|};
      {|  spans:                                              calls        total         self      alloc     gcs|};
      {|    prove                                                 2       5.00ms       1.00ms     20.0MB       1|};
      {|      round "1" \ a                                       2       3.00ms       3.00ms      0.0MB       0|};
      {|      round2                                              2       1.00ms       0.40ms      0.0MB       0|};
      {|        kzg.commit                                        4       0.60ms       0.60ms      0.0MB       0|};
      {|    verify                                                1       0.25ms       0.25ms      0.0MB       0|};
      {|  counters:|};
      {|    chain.txs                                                12|};
      {|    curve.msm.points                                       4096|};
      {|  histograms:                                           n       mean        min        p50        p95        p99        max|};
      {|    fft.points                                          5    1698.40     300.00    1024.00    4096.00    4096.00    4096.00|};
      {|    verify.ms                                           1       0.75       0.75       0.75       0.75       0.75       0.75|};
      "" ]

let golden_encodings () =
  Alcotest.(check (list string)) "to_jsonl" golden_jsonl (Report.to_jsonl golden);
  Alcotest.(check string) "to_json" golden_json (Json.to_string (Report.to_json golden));
  Alcotest.(check string) "to_prometheus" golden_prometheus (Report.to_prometheus golden);
  Alcotest.(check string) "pp" golden_pp (Format.asprintf "%a" Report.pp golden)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* [of_jsonl] accepts exactly what [to_jsonl] writes: dropping any field
   of any record is an error naming the field, and a histogram must hold
   64 buckets that sum to its samples. *)
let strict_reader () =
  let lines = Report.to_jsonl golden in
  let fields line =
    match Json.parse line with
    | Ok (Json.Obj fs) -> fs
    | _ -> Alcotest.failf "unparseable trace line %S" line
  in
  let replace i fs =
    List.mapi (fun j l -> if j = i then Json.to_string (Json.Obj fs) else l) lines
  in
  List.iteri
    (fun i line ->
      List.iter
        (fun (key, _) ->
          match Report.of_jsonl (replace i (List.remove_assoc key (fields line))) with
          | Ok _ -> Alcotest.failf "line %d accepted without %S" (i + 1) key
          | Error e ->
            if not (contains e (Printf.sprintf "%S" key)) then
              Alcotest.failf "dropping %S from line %d: error %S does not name it" key
                (i + 1) e)
        (fields line))
    lines;
  let fft = List.length lines - 2 in
  let rejects what edit =
    match Report.of_jsonl (replace fft (List.map edit (fields (List.nth lines fft)))) with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  let with_buckets f = function
    | "buckets", Json.List l -> ("buckets", Json.List (f l))
    | kv -> kv
  in
  rejects "63 buckets" (with_buckets List.tl);
  rejects "65 buckets" (with_buckets (fun l -> Json.Int 0 :: l));
  rejects "buckets summing past samples" (with_buckets (fun l -> Json.Int 1 :: List.tl l))

(* Canonical reports: names sorted and unique at every level, finite
   floats, buckets summing to samples. *)
let gen_report : Report.t Gen.t =
  let names =
    Gen.map (List.sort_uniq compare)
      (Gen.list_size (Gen.int_range 0 3)
         (Gen.oneof_const [ "a"; "b c"; "q\"uote"; "back\\slash"; "plonk.prove"; "z" ]))
  in
  let rec all = function
    | [] -> Gen.return []
    | g :: gs -> Gen.map2 (fun x xs -> x :: xs) g (all gs)
  in
  let nat = Gen.int_range 0 1_000_000_000 in
  let float =
    Gen.oneof
      [ Gen.float_range (-1e18) 1e18; Gen.float_range 0. 1.;
        Gen.map float_of_int (Gen.int_range (-1000) 1000) ]
  in
  let rec spans depth =
    if depth = 0 then Gen.return []
    else
      Gen.bind names (fun ns ->
          all
            (List.map
               (fun name ->
                 Gen.map3
                   (fun (calls, total_ns) (mw, jw, (mg, jg)) children ->
                     span name calls total_ns mw jw mg jg ~children)
                   (Gen.pair nat nat)
                   (Gen.triple float float (Gen.pair nat nat))
                   (spans (depth - 1)))
               ns))
  in
  let counter name = Gen.map (fun total -> { Report.counter_name = name; total }) nat in
  let histogram name =
    Gen.map3
      (fun buckets sum (a, b) ->
        { Report.hist_name = name; samples = Array.fold_left ( + ) 0 buckets; sum;
          min = Float.min a b; max = Float.max a b; buckets })
      (Gen.array_size (Gen.return Telemetry.num_buckets)
         (Gen.frequency [ (6, Gen.return 0); (1, Gen.int_range 0 1000) ]))
      float (Gen.pair float float)
  in
  Gen.map3
    (fun spans counters histograms -> { Report.spans; counters; histograms })
    (spans 3)
    (Gen.bind names (fun ns -> all (List.map counter ns)))
    (Gen.bind names (fun ns -> all (List.map histogram ns)))

(* [to_jsonl] then [of_jsonl] is the identity on canonical reports, and
   every quantile written is [Report.quantile] of the histogram read. *)
let jsonl_roundtrip =
  Test_util.prop "JSONL round-trip"
    (fun r -> String.concat "\n" (Report.to_jsonl r))
    gen_report
    (fun r ->
      let lines = Report.to_jsonl r in
      match Report.of_jsonl lines with
      | Error _ -> false
      | Ok r' ->
        r' = r
        && List.for_all
             (fun line ->
               match Json.parse line with
               | Ok j when Json.member "type" j = Some (Json.String "histogram") ->
                 let h =
                   List.find
                     (fun (h : Report.histogram) ->
                       Json.member "name" j = Some (Json.String h.Report.hist_name))
                     r'.Report.histograms
                 in
                 List.for_all
                   (fun (key, q) ->
                     Json.member key j = Some (Json.Float (Report.quantile h q)))
                   [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99); ("p999", 0.999) ]
               | _ -> true)
             lines)

(* Integral floats of every magnitude are written so that they parse back
   as the same [Json.Float], never as an [Int]. *)
let integral_floats () =
  List.iter
    (fun f ->
      let text = Json.to_string (Json.Float f) in
      match Json.parse text with
      | Ok (Json.Float g) when Float.equal f g -> ()
      | Ok _ -> Alcotest.failf "%h written as %s reads back as another value" f text
      | Error e -> Alcotest.failf "%h written as %s does not parse: %s" f text e)
    [ 1000116930931734.; -1e16; 9007199254740992.; 1e15 -. 1.; 1e17; -0.; 3. ]

let write_trace_file () =
  with_recording @@ fun () ->
  Telemetry.with_span "traced" (fun () -> Telemetry.count "traced.n" 2);
  let path = Filename.temp_file "zkdet_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (match Telemetry.write_trace ~path with
  | Ok () -> ()
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
    let q = Report.quantile h in
    Alcotest.(check bool) "quantiles ordered" true
      (q 0.5 <= q 0.95 && q 0.95 <= q 0.99 && q 0.99 <= q 0.999
      && q 0.999 <= h.Report.max);
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
  let h = l.Telemetry.w_hist in
  Alcotest.(check int) "samples visible" 50 h.Report.samples;
  Alcotest.(check bool) "window quantiles ordered" true
    (Report.quantile h 0.5 <= Report.quantile h 0.99
    && Report.quantile h 0.99 <= h.Report.max);
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
        [ jsonl_roundtrip;
          Alcotest.test_case "integral floats stay floats" `Quick
            integral_floats;
          Alcotest.test_case "write_trace file round-trip" `Quick
            write_trace_file;
          Alcotest.test_case "golden encodings" `Quick golden_encodings;
          Alcotest.test_case "strict reader" `Quick strict_reader ] );
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
