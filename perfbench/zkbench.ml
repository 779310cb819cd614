(* zkbench: the end-to-end ZKDET benchmark.

     zkbench --workload exchange|audit|market --seed N --seconds S --trace 0|1

   Runs one named workload through the public API of zkdet_core and
   zkdet_chain, from one process with the zkdet_parallel pool at
   [domains] domains, and prints one JSON result as the last line of
   stdout:

     {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

   With --trace 0 the metrics are the end-to-end ones, measured with the
   libraries' Telemetry recording off.  With --trace 1 recording is on
   for every other operation and the metrics are per-layer, read from the
   span tree and counters; the untraced operations in between give the
   tracing overhead.  zkbench adds no probe to the libraries: it turns
   on the recording they already have and wraps each of its own library
   calls in [Telemetry.with_span].

   Every input the libraries receive (datasets, the audit order, the
   transaction stream, the SRS and sealing randomness) is generated from
   --seed.  All three workloads are closed loops: the next operation
   starts when the previous one returns, until --seconds have passed and
   at least [min_ops] operations ran. *)

module Fr = Zkdet_field.Bn254.Fr
module Env = Zkdet_core.Env
module Circuits = Zkdet_core.Circuits
module Marketplace = Zkdet_core.Marketplace
module Scenario = Zkdet_core.Scenario
module Chain = Zkdet_chain.Chain
module Tx = Zkdet_chain.Tx
module Mempool = Zkdet_chain.Mempool
module Erc721 = Zkdet_contracts.Erc721
module Pool = Zkdet_parallel.Pool
module Telemetry = Zkdet_telemetry.Telemetry
module Report = Telemetry.Report
module Json = Zkdet_telemetry.Json

let process_start_ns = Telemetry.monotonic_ns ()
let now_ns = Telemetry.monotonic_ns
let secs_between t0 t1 = float_of_int (t1 - t0) /. 1e9

(* A failed operation's time is infinite, which JSON cannot carry. *)
let num v = if Float.is_finite v then Json.Float v else Json.Null

(* The pool size every workload runs at.  One domain, not this 2-vCPU
   host's nproc: alternating runs showed 2-domain runs stalling at
   random (an audit's median going from 296 to 678 ms while the 1-domain
   runs next to it stayed at 282-296 ms), which no run length averages
   out.  Every parallel code path still runs, chunked exactly as at any
   pool size, so the pool's counters are unchanged. *)
let domains = 1

(* ---- workload sizes ---- *)

type size = {
  ex_log2_rows : int;  (** exchange Env: SRS sized for 2^k constraints *)
  ex_entries : int;  (** entries of each published dataset *)
  au_log2_rows : int;
  au_entries : int;
  au_mix : int list;  (** lineage depths of one round of audits *)
  accounts : int;
  datasets : int;
  txs_per_block : int;
  work : int;  (** SHA-256 rounds per purchase *)
  min_audits : int;
  min_blocks : int;
  market_setups : int;  (** market set-ups per run; setup_s is their median *)
}

(* [full] is what BENCHMARK.json runs.  [tiny] keeps every code path and
   check but shrinks the work, for the benchmark's own test. *)
let full =
  {
    ex_log2_rows = 12;
    ex_entries = 2;
    au_log2_rows = 12;
    au_entries = 2;
    au_mix = [ 0; 0; 1; 1; 1; 1; 2; 2; 3; 3 ];
    accounts = 1024;
    datasets = 1024;
    txs_per_block = 64;
    work = 256;
    min_audits = 100;
    min_blocks = 100;
    market_setups = 3;
  }

let tiny =
  {
    ex_log2_rows = 12;
    ex_entries = 1;
    au_log2_rows = 12;
    au_entries = 1;
    au_mix = [ 0; 1 ];
    accounts = 32;
    datasets = 32;
    txs_per_block = 8;
    work = 4;
    min_audits = 4;
    min_blocks = 8;
    market_setups = 2;
  }

(* ---- statistics ---- *)

(* Linear-interpolation quantile; a failed operation is recorded as
   [infinity], so it counts as missing every latency limit. *)
let quantile (xs : float array) q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let frac = pos -. float_of_int i in
    if i + 1 >= n || frac = 0.0 then a.(i)
    else if a.(i + 1) = infinity then infinity
    else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5

(* ---- host record ---- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

let field_of_line line =
  match String.index_opt line ':' with
  | Some i ->
    Some
      ( String.trim (String.sub line 0 i),
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
  | None -> None

let proc_field path key =
  List.find_map
    (fun l ->
      match field_of_line l with
      | Some (k, v) when k = key -> Some v
      | _ -> None)
    (read_lines path)

(* VmHWM: the process's peak resident set, in MB. *)
let peak_rss_mb () =
  match proc_field "/proc/self/status" "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> (
      match float_of_string_opt kb with Some kb -> kb /. 1024.0 | None -> nan)
    | [] -> nan)
  | None -> nan

let host_record ~commit ~pool_domains =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ( "cpu_model",
        Json.String
          (Option.value ~default:"unknown"
             (proc_field "/proc/cpuinfo" "model name")) );
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("pool_domains", Json.Int pool_domains);
      ("commit", Json.String commit);
    ]

(* ---- the closed loop ---- *)

type sample = {
  op_s : float;  (** wall time of the operation; [infinity] if it failed *)
  cpu_s : float;  (** user + system CPU time of the whole process *)
  traced : bool;
  minor_words : float;
  major_collections : int;
}

(* Runs [op i] back to back until [seconds] have passed and at least
   [min_ops] operations ran.  With [trace], recording is on for odd [i]
   only, so the even operations measure the untraced cost under the same
   conditions.  [op] returns false when one of its output checks failed;
   [after i] runs between operations, outside every timing.  Also returns
   the peak RSS after the first [min_ops] operations: a faster program
   fits more operations into [seconds], and the ledger, storage and
   auditor nodes grow with each one, so the peak at exit would rise with
   speed. *)
let closed_loop ?(after = fun _ -> ()) ~trace ~seconds ~min_ops (op : int -> bool) =
  (* A traced run needs at least one operation of each kind. *)
  let min_ops = if trace then max 2 min_ops else min_ops in
  let rss = ref nan and hook_ns = ref 0 in
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let samples = ref [] and failed = ref 0 in
  let i = ref 0 in
  while now_ns () < deadline || !i < min_ops do
    let traced = trace && !i land 1 = 1 in
    Telemetry.set_enabled traced;
    let g0 = Gc.quick_stat () in
    let c0 = Unix.times () in
    let t0 = now_ns () in
    let ok = try op !i with e -> prerr_endline (Printexc.to_string e); false in
    let t1 = now_ns () in
    let c1 = Unix.times () in
    let g1 = Gc.quick_stat () in
    Telemetry.set_enabled false;
    if not ok then incr failed;
    samples :=
      {
        op_s = (if ok then secs_between t0 t1 else infinity);
        cpu_s =
          c1.Unix.tms_utime +. c1.Unix.tms_stime -. c0.Unix.tms_utime -. c0.Unix.tms_stime;
        traced;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      }
      :: !samples;
    let h0 = now_ns () in
    after !i;
    hook_ns := !hook_ns + (now_ns () - h0);
    incr i;
    if !i = min_ops then rss := peak_rss_mb ()
  done;
  let elapsed_s = secs_between t_start (now_ns () - !hook_ns) in
  (Array.of_list (List.rev !samples), !failed, elapsed_s, !rss)

(* ---- per-layer extraction from the span tree ---- *)

let rec iter_spans f (spans : Report.span list) =
  List.iter
    (fun (s : Report.span) ->
      f s;
      iter_spans f s.Report.children)
    spans

let children_ns (s : Report.span) =
  List.fold_left (fun a (c : Report.span) -> a + c.Report.total_ns) 0 s.Report.children

(* Totals over every node named [name], wherever it sits in the tree.
   No span in these workloads nests inside another of the same name. *)
let span_fold (r : Report.t) name f =
  let acc = ref 0.0 in
  iter_spans (fun s -> if s.Report.span_name = name then acc := !acc +. f s) r.Report.spans;
  !acc

let span_s r name = span_fold r name (fun s -> float_of_int s.Report.total_ns /. 1e9)

let self_s r name =
  span_fold r name (fun s -> float_of_int (s.Report.total_ns - children_ns s) /. 1e9)

let span_calls r name = span_fold r name (fun s -> float_of_int s.Report.calls)

let alloc_mb r name =
  span_fold r name (fun s -> (s.Report.minor_words +. s.Report.major_words) *. 8.0 /. 1e6)

let counter r name = float_of_int (Option.value ~default:0 (Report.find_counter r name))

let histogram r name =
  List.find_opt (fun (h : Report.histogram) -> h.Report.hist_name = name) r.Report.histograms

(* Σ gates ÷ Σ padded rows over every proof.  The prover records each
   proof's gate count in the power-of-two-bucketed "plonk.gates"
   histogram, and a bucket's upper bound is the next power of two at or
   above the sample — exactly the domain size Preprocess pads to. *)
let gate_fill r =
  match histogram r "plonk.gates" with
  | None -> 0.0
  | Some h ->
    let rows = ref 0.0 in
    Array.iteri
      (fun i c -> if c > 0 then rows := !rows +. (float_of_int c *. Telemetry.bucket_upper i))
      h.Report.buckets;
    if !rows > 0.0 then h.Report.sum /. !rows else 0.0

(* ---- per-layer metrics ---- *)

(* A metric as printed: per-layer ones also name the end-to-end metric,
   and the workload, that a change to their layer should move. *)
type metric = { name : string; unit : string; value : float; moves : string }

let metric name unit moves value = { name; unit; value; moves }

(* Per-layer values from the traced operations' report [r] (divided per
   traced operation) and the set-up report [setup] (per set-up). *)
let layer_metrics ~(setup : Report.t) ~(r : Report.t) ~(samples : sample array)
    ~gas_per_op ~work =
  let traced = Array.of_list (List.filter (fun s -> s.traced) (Array.to_list samples)) in
  let untraced =
    Array.of_list (List.filter (fun s -> not s.traced) (Array.to_list samples))
  in
  let n = float_of_int (max 1 (Array.length traced)) in
  let per v = v /. n in
  let msm_points = counter r "curve.msm.points" in
  let block_txs = counter r "chain.block.txs" in
  let overhead =
    let t = median (Array.map (fun s -> s.op_s) traced)
    and u = median (Array.map (fun s -> s.op_s) untraced) in
    if Float.is_finite t && Float.is_finite u && u > 0.0 then (t /. u) -. 1.0 else nan
  in
  [
    metric "publish.s" "s" "op_p50_ms on exchange (publish step)"
      (per (span_s r "bench.publish"));
    metric "derive.s" "s" "op_p50_ms on exchange (derive step)"
      (per (span_s r "bench.derive"));
    metric "audit.s" "s" "op_p50_ms on exchange and audit (audit step)"
      (per (span_s r "bench.audit"));
    metric "trade.s" "s" "op_p50_ms on exchange (trade step)"
      (per (span_s r "bench.trade"));
    metric "publish.self_s" "s" "publish step on exchange"
      (per (self_s r "bench.publish"));
    metric "derive.self_s" "s" "derive step on exchange"
      (per (self_s r "bench.derive"));
    metric "trade.self_s" "s" "trade step on exchange"
      (per (self_s r "bench.trade"));
    metric "plonk.prove.s" "s" "op_p50_ms on exchange; none on audit or market"
      (per (span_s r "plonk.prove"));
    metric "plonk.prove.calls" "count" "op_p50_ms on exchange"
      (per (span_calls r "plonk.prove"));
    metric "plonk.round1.self_s" "s" "op_p50_ms on exchange"
      (per (self_s r "round1.wires"));
    metric "plonk.round2.self_s" "s" "op_p50_ms on exchange"
      (per (self_s r "round2.permutation"));
    metric "plonk.round3.self_s" "s" "op_p50_ms on exchange"
      (per (self_s r "round3.quotient"));
    metric "plonk.round4.self_s" "s" "op_p50_ms on exchange"
      (per (self_s r "round4.evaluations"));
    metric "plonk.round5.self_s" "s" "op_p50_ms on exchange"
      (per (self_s r "round5.openings"));
    metric "plonk.prove.alloc_mb" "MB" "op_p50_ms on exchange"
      (per (alloc_mb r "plonk.prove"));
    metric "plonk.gate_fill" "ratio" "op_p50_ms on exchange"
      (gate_fill r);
    metric "plonk.verify.s" "s" "op_p50_ms, op_p90_ms on audit; ~4% of exchange"
      (per (span_s r "plonk.verify"));
    metric "plonk.verify.calls" "count" "op_p50_ms on audit"
      (per (span_calls r "plonk.verify"));
    metric "plonk.verify.alloc_mb" "MB" "op_p50_ms on audit"
      (per (alloc_mb r "plonk.verify"));
    metric "plonk.preprocess.s" "s" "setup_s, peak_rss_mb on exchange and audit"
      (span_s setup "plonk.preprocess");
    metric "srs.generate.s" "s" "setup_s on exchange and audit"
      (span_s setup "srs.generate");
    metric "srs.fb_tables.s" "s" "setup_s, peak_rss_mb on exchange and audit"
      (span_s setup "srs.fb_tables");
    metric "kzg.commit_batch.s" "s" "op_p50_ms on exchange"
      (per (span_s r "kzg.commit_batch"));
    metric "kzg.commits" "count" "op_p50_ms on exchange"
      (per (counter r "kzg.commits"));
    metric "kzg.opens" "count" "op_p50_ms on exchange"
      (per (counter r "kzg.opens"));
    metric "curve.msm.calls" "count" "op_p50_ms on exchange"
      (per (counter r "curve.msm.calls"));
    metric "curve.msm.points" "count" "op_p50_ms on exchange"
      (per msm_points);
    metric "curve.msm.batch_add_rounds" "count" "op_p50_ms on exchange"
      (per (counter r "curve.msm.batch_add_rounds"));
    metric "curve.msm.ns_per_point" "ns" "op_p50_ms on exchange"
      (if msm_points > 0.0 then span_s r "kzg.commit_batch" *. 1e9 /. msm_points else 0.0);
    metric "fft.calls" "count" "op_p50_ms on exchange (round 2-3 self time)"
      (per (counter r "fft.calls"));
    metric "fft.points" "count" "op_p50_ms on exchange (round 2-3 self time)"
      (per (counter r "fft.points"));
    metric "storage.put.s" "s" "op_p50_ms on exchange"
      (per (span_s r "storage.put"));
    metric "storage.get.s" "s" "op_p50_ms on audit"
      (per (span_s r "storage.get"));
    metric "storage.get.hops" "count" "op_p50_ms on audit"
      (per (counter r "storage.get.hops"));
    metric "storage.get.bytes" "bytes" "op_p50_ms on audit"
      (per (counter r "storage.get.bytes"));
    metric "codec.bytes_written" "bytes" "op_p50_ms on audit and exchange"
      (per (counter r "codec.bytes_written"));
    metric "chain.tx.s" "s" "trade step on exchange"
      (per (span_s r "chain.tx"));
    metric "chain.txs" "count" "gas per exchange on exchange"
      (per (counter r "chain.txs"));
    metric "chain.gas_per_op" "gas" "gas per exchange on exchange"
      (gas_per_op);
    metric "chain.gas.by_contract.erc721" "gas" "gas per exchange on exchange"
      (per (counter r "chain.gas.by_contract.erc721"));
    metric "chain.gas.by_contract.escrow" "gas" "gas per exchange on exchange"
      (per (counter r "chain.gas.by_contract.escrow"));
    metric "chain.submit.s" "s" "ops_per_s, op_p50_ms on market; none elsewhere"
      (per (span_s r "bench.submit"));
    metric "chain.produce_block.s" "s" "ops_per_s, op_p50_ms, op_p90_ms on market"
      (per (span_s r "chain.produce_block"));
    metric "chain.block.speculate.s" "s" "ops_per_s on market"
      (per (span_s r "chain.block.speculate"));
    metric "chain.block.merge_self_s" "s" "ops_per_s on market"
      (per (span_s r "chain.produce_block" -. span_s r "chain.block.speculate"));
    metric "chain.reexec_ratio" "ratio" "ops_per_s on market"
      (if block_txs > 0.0 then counter r "chain.block.reexecuted" /. block_txs else 0.0);
    metric "chain.produce_block.alloc_mb" "MB" "ops_per_s on market"
      (per (alloc_mb r "chain.produce_block"));
    metric "hash.sha256_calls" "count" "ops_per_s on market"
      (per (float_of_int work *. (block_txs +. counter r "chain.block.reexecuted")));
    metric "pool.parallel_calls" "count" "op_p50_ms on exchange, ops_per_s on market"
      (per (counter r "pool.parallel_calls"));
    metric "pool.chunks" "count" "op_p50_ms on exchange, ops_per_s on market"
      (per (counter r "pool.chunks"));
    metric "gc.minor_mb" "MB" "every timing metric and peak_rss_mb"
      (Array.fold_left (fun a s -> a +. s.minor_words) 0.0 traced *. 8.0 /. 1e6 /. n);
    metric "gc.major_collections" "count" "every timing metric and peak_rss_mb"
      (float_of_int (Array.fold_left (fun a s -> a + s.major_collections) 0 traced) /. n);
    metric "trace.overhead" "ratio" "none: the cost of the traced run itself"
      (overhead)
  ]

(* ---- workloads ---- *)

(* What a workload hands back to the reporting code. *)
type outcome = {
  samples : sample array;  (** one per closed-loop operation *)
  attempted : int;  (** exchanges, audits or transactions *)
  failed : int;
  elapsed_s : float;  (** wall time of the timed phase *)
  peak_rss_mb : float;  (** VmHWM after the run's fixed minimum of operations *)
  completed : int;  (** operations that succeeded *)
  latencies_ms : float array;  (** per user-visible operation *)
  setup_s : float;
  setup_report : Report.t;
  checks : (string * bool) list;  (** named output checks; all must hold *)
  deterministic : (string * Json.t) list;  (** must repeat exactly per seed *)
  extra : (string * Json.t) list;  (** the workload's own figures *)
  gas_per_op : float;
  work : int;
}

let fr_array_equal a b = Array.length a = Array.length b && Array.for_all2 Fr.equal a b

let total_gas chain =
  List.fold_left (fun a (r : Chain.receipt) -> a + r.Chain.gas_used) 0 (Chain.receipts chain)

let dataset ~seed ~tag ~entries i =
  let st = Random.State.make [| seed; tag; i |] in
  Array.init entries (fun _ -> Fr.random st)

let audit_failure_to_string : Marketplace.audit_failure -> string = function
  | `No_token -> "no token"
  | `No_meta -> "no manifest"
  | `Storage e -> "storage: " ^ e
  | `Commitment_mismatch -> "commitment mismatch"
  | `Bad_encryption_proof id -> Printf.sprintf "bad pi_e on token %d" id
  | `Bad_transform_proof id -> Printf.sprintf "bad pi_t on token %d" id

let trade_failure_to_string : Marketplace.trade_failure -> string = function
  | `Offer_rejected -> "offer rejected"
  | `Lock_failed e -> "lock failed: " ^ e
  | `Settle_failed e -> "settle failed: " ^ e
  | `Recovered_garbage -> "recovered garbage"

(* Set-up runs [reps] times from scratch and the last one is kept;
   setup_s is the median wall time.  In a traced run recording is on
   during set-up, and the report covers the kept set-up. *)
let repeated_setup ~trace ~reps (f : unit -> 'a) : 'a * float * Report.t =
  let rec go k times =
    Telemetry.reset ();
    Telemetry.set_enabled trace;
    let t0 = now_ns () in
    let v = f () in
    let times = secs_between t0 (now_ns ()) :: times in
    Telemetry.set_enabled false;
    if k + 1 < reps then go (k + 1) times
    else (v, median (Array.of_list times), Telemetry.snapshot ())
  in
  let v, setup_s, report = go 0 [] in
  Telemetry.reset ();
  (v, setup_s, report)

let pk_count (env : Env.t) = Hashtbl.length env.Env.pk_cache

let step name f =
  let t0 = now_ns () in
  let v = Telemetry.with_span ("bench." ^ name) f in
  (v, secs_between t0 (now_ns ()))

let median_of l = median (Array.of_list l)

(* One full exchange of [data]: publish, derive a duplicate, the buyer's
   audit of the copy, trade of the copy.  Returns the exchange's gas and
   its per-step seconds, or the first check that failed. *)
let run_exchange (m : Marketplace.t) ~seller ~buyer ~price data =
  let gas0 = total_gas m.Marketplace.chain in
  match step "publish" (fun () -> Marketplace.publish m ~owner:seller data) with
  | Error e, _ -> Error ("publish: " ^ e)
  | Ok src, t_publish -> (
    match
      step "derive" (fun () -> Marketplace.derive m ~owner:seller ~parents:[ src ] `Duplicate)
    with
    | Error e, _ -> Error ("derive: " ^ e)
    | Ok [ (copy_id, copy) ], t_derive -> (
      match step "audit" (fun () -> Marketplace.audit_provenance m ~auditor_id:buyer copy_id) with
      | Error e, _ -> Error ("audit: " ^ audit_failure_to_string e)
      | Ok count, _ when count <> 2 -> Error (Printf.sprintf "audit verified %d tokens, not 2" count)
      | Ok _, t_audit -> (
        let predicate = Circuits.Sum_equals (Array.fold_left Fr.add Fr.zero data) in
        match
          step "trade" (fun () ->
              Marketplace.trade m ~seller ~buyer ~token_id:copy_id ~sealed:copy ~predicate ~price)
        with
        | Error e, _ -> Error ("trade: " ^ trade_failure_to_string e)
        | Ok recovered, _ when not (fr_array_equal recovered data) ->
          Error "recovered plaintext differs from the dataset"
        | Ok _, _ when Erc721.owner_of m.Marketplace.nft copy_id <> Some buyer ->
          Error "the NFT did not end with the buyer"
        | Ok _, t_trade ->
          Ok (total_gas m.Marketplace.chain - gas0, [ t_publish; t_derive; t_audit; t_trade ])))
    | Ok _, _ -> Error "derive: expected exactly one copy")

(* exchange: one seller/buyer pair runs the paper's whole pipeline back
   to back.  Set-up ends with one untimed exchange, which fills the
   proving-key cache and the SRS fixed-base tables. *)
let exchange_workload ~size ~seed ~seconds ~trace =
  let addr role = Chain.Address.of_seed (Printf.sprintf "bench/%s/%d" role seed) in
  let seller = addr "seller" and buyer = addr "buyer" and operator = addr "operator" in
  let price = 50_000 in
  let data i = dataset ~seed ~tag:0xda7a ~entries:size.ex_entries i in
  let m, setup_s, setup_report =
    repeated_setup ~trace ~reps:1 (fun () ->
        let env = Env.create ~log2_max_gates:size.ex_log2_rows ~seed:[| seed; 0x5e7 |] () in
        let m = Marketplace.bootstrap env ~operator in
        (match run_exchange m ~seller ~buyer ~price (data (-1)) with
        | Ok _ -> ()
        | Error e -> failwith ("warm-up exchange: " ^ e));
        m)
  in
  let keys_before = pk_count m.Marketplace.env in
  let gas = ref [] and steps = ref [] and first_state = ref "" in
  let op i =
    match run_exchange m ~seller ~buyer ~price (data i) with
    | Ok (g, st) ->
      gas := g :: !gas;
      steps := st :: !steps;
      true
    | Error e ->
      prerr_endline (Printf.sprintf "exchange %d: %s" i e);
      false
  in
  let after i = if i = 0 then first_state := Chain.state_hash m.Marketplace.chain in
  let samples, failed, elapsed_s, peak_rss_mb = closed_loop ~after ~trace ~seconds ~min_ops:1 op in
  let pk_misses = pk_count m.Marketplace.env - keys_before in
  let step_median k = median_of (List.map (fun st -> List.nth st k) !steps) in
  let gas_first = match List.rev !gas with g :: _ -> g | [] -> 0 in
  let gas_median = median_of (List.map float_of_int !gas) in
  {
    samples;
    attempted = Array.length samples;
    failed;
    elapsed_s;
    peak_rss_mb;
    completed = Array.length samples - failed;
    latencies_ms = Array.map (fun s -> s.op_s *. 1e3) samples;
    setup_s;
    setup_report;
    checks =
      [ ("every exchange recovered its dataset and moved the NFT", failed = 0);
        ("env.pk_misses = 0", pk_misses = 0) ];
    deterministic =
      [ ("gas_per_exchange", Json.Int gas_first);
        ("state_hash_after_first", Json.String !first_state) ];
    extra =
      [ ("exchange_s", num (median (Array.map (fun s -> s.op_s) samples)));
        ("publish_s", num (step_median 0));
        ("derive_s", num (step_median 1));
        ("audit_s", num (step_median 2));
        ("trade_s", num (step_median 3));
        ("gas_per_exchange", num gas_median);
        ("env.pk_misses", Json.Int pk_misses) ];
    gas_per_op = gas_median;
    work = 0;
  }

(* A seeded order of audit depths: each round is a shuffle of [mix].
   The full mix is 20% depth 0, 40% depth 1, 20% depth 2 and 20% depth 3,
   so the median falls inside the depth-1 audits and the p90 inside the
   depth-3 ones, whatever the seed; a uniform draw would let the seed move
   the median between two depth classes. *)
let audit_order ~seed mix =
  let st = Random.State.make [| seed; 0xa0d2 |] in
  let round = Array.of_list mix in
  let queue = Queue.create () in
  fun () ->
    if Queue.is_empty queue then begin
      for i = Array.length round - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = round.(i) in
        round.(i) <- round.(j);
        round.(j) <- t
      done;
      Array.iter (fun d -> Queue.add d queue) round
    end;
    Queue.pop queue

(* audit: set-up publishes one source and derives a chain of
   duplications; each timed audit picks a token by the seed and walks
   its lineage from a fresh auditor node with an empty local store. *)
let audit_workload ~size ~seed ~seconds ~trace =
  let owner = Chain.Address.of_seed (Printf.sprintf "bench/owner/%d" seed) in
  let operator = Chain.Address.of_seed (Printf.sprintf "bench/operator/%d" seed) in
  let depth = List.fold_left max 0 size.au_mix in
  let audit m ~auditor_id token =
    step "audit" (fun () -> Marketplace.audit_provenance m ~auditor_id token) |> fst
  in
  let (m, tokens), setup_s, setup_report =
    repeated_setup ~trace ~reps:1 (fun () ->
        let env = Env.create ~log2_max_gates:size.au_log2_rows ~seed:[| seed; 0xa0d |] () in
        let m = Marketplace.bootstrap env ~operator in
        let data = dataset ~seed ~tag:0xa0d1 ~entries:size.au_entries 0 in
        let src =
          match Marketplace.publish m ~owner data with
          | Ok src -> src
          | Error e -> failwith ("audit set-up publish: " ^ e)
        in
        let rec lineage acc parent d =
          if d > depth then Array.of_list (List.rev acc)
          else
            match Marketplace.derive m ~owner ~parents:[ parent ] `Duplicate with
            | Ok [ copy ] -> lineage (fst copy :: acc) copy (d + 1)
            | _ -> failwith "audit set-up derive"
        in
        let tokens = lineage [ fst src ] src 1 in
        (match audit m ~auditor_id:"bench/auditor/warm-up" tokens.(depth) with
        | Ok n when n = depth + 1 -> ()
        | _ -> failwith "audit set-up: warm-up audit");
        (m, tokens))
  in
  let keys_before = pk_count m.Marketplace.env in
  let next_depth = audit_order ~seed size.au_mix in
  let counts = ref [] in
  let op i =
    let d = next_depth () in
    let auditor_id = Printf.sprintf "bench/auditor/%d" i in
    match audit m ~auditor_id tokens.(d) with
    | Ok n ->
      counts := n :: !counts;
      n = d + 1
    | Error e ->
      prerr_endline (Printf.sprintf "audit %d: %s" i (audit_failure_to_string e));
      counts := 0 :: !counts;
      false
  in
  let samples, failed, elapsed_s, peak_rss_mb =
    closed_loop ~trace ~seconds ~min_ops:size.min_audits op
  in
  let pk_misses = pk_count m.Marketplace.env - keys_before in
  let counts = List.rev !counts in
  let prefix = List.filteri (fun i _ -> i < size.min_audits) counts in
  let lat = Array.map (fun s -> s.op_s) samples in
  {
    samples;
    attempted = Array.length samples;
    failed;
    elapsed_s;
    peak_rss_mb;
    completed = Array.length samples - failed;
    latencies_ms = Array.map (fun s -> s *. 1e3) lat;
    setup_s;
    setup_report;
    checks =
      [ ("every audit verified its token's exact lineage", failed = 0);
        ("env.pk_misses = 0", pk_misses = 0) ];
    deterministic =
      [ ("audit_counts", Json.List (List.map (fun n -> Json.Int n) prefix)) ];
    extra =
      [ ("audit_s", num (median lat));
        ("audit_p90_s", num (quantile lat 0.9));
        ("audits", Json.Int (Array.length samples));
        ("tokens_verified", Json.Int (List.fold_left ( + ) 0 counts));
        ("env.pk_misses", Json.Int pk_misses) ];
    gas_per_op = 0.0;
    work = 0;
  }

(* market: Zipf(s = 1.0) purchases over [datasets] datasets and
   [accounts] accounts; per block zkbench submits [txs_per_block]
   transactions, then seals them with [Chain.produce_block]. *)
let market_workload ~size ~seed ~seconds ~trace =
  let per_block = size.txs_per_block in
  let cdf = Scenario.zipf_cdf ~n:size.datasets ~s:1.0 in
  let warmup_blocks = 4 in
  let checkpoint = 8 in
  let (chain, next_tx), setup_s, setup_report =
    repeated_setup ~trace ~reps:size.market_setups (fun () ->
        let chain = Chain.create () in
        let accounts =
          Array.init size.accounts (fun i ->
              Chain.Address.of_seed (Printf.sprintf "bench/acct/%d/%d" seed i))
        in
        Array.iter (fun a -> Chain.faucet chain a 1_000_000_000) accounts;
        let stream = Random.State.make [| seed; 0x3a2c |] in
        let nonces = Hashtbl.create size.accounts in
        let next_tx () =
          let dataset = Scenario.zipf_sample cdf (Random.State.float stream 1.0) in
          let b = Random.State.int stream size.accounts in
          let s0 = Random.State.int stream size.accounts in
          let s = if s0 = b then (s0 + 1) mod size.accounts else s0 in
          let buyer = accounts.(b) and seller = accounts.(s) in
          let nonce = Option.value ~default:0 (Hashtbl.find_opt nonces buyer) in
          Hashtbl.replace nonces buyer (nonce + 1);
          Tx.make ~sender:buyer ~nonce ~label:"market:purchase"
            ~calldata:(string_of_int dataset) ~contract:"market"
            (Scenario.purchase ~buyer ~seller ~dataset ~price:1_000 ~work:size.work)
        in
        for _ = 1 to warmup_blocks do
          for _ = 1 to per_block do
            ignore (Chain.submit chain (next_tx ()))
          done;
          ignore (Chain.produce_block ~max_txs:per_block chain)
        done;
        (chain, next_tx))
  in
  let attempted = ref 0 and failed_txs = ref 0 and sealed = ref 0 in
  let latencies = ref [] in
  let drained = ref true in
  let checkpoint_fields = ref [] in
  let op _ =
    let txs = Array.init per_block (fun _ -> next_tx ()) in
    let submitted_at =
      Array.map
        (fun tx ->
          let t = now_ns () in
          match Telemetry.with_span "bench.submit" (fun () -> Chain.submit chain tx) with
          | Mempool.Admitted -> Some t
          | _ -> None)
        txs
    in
    let block =
      Telemetry.with_span "bench.produce_block" (fun () ->
          Chain.produce_block ~max_txs:per_block chain)
    in
    let sealed_at = now_ns () in
    let in_block = Hashtbl.create per_block in
    List.iter (fun h -> Hashtbl.replace in_block h ()) block.Chain.tx_hashes;
    let ok = ref true in
    Array.iteri
      (fun j tx ->
        incr attempted;
        let h = Tx.hash tx in
        let receipt_ok =
          match Chain.receipt chain h with
          | Some r -> Result.is_ok r.Chain.status
          | None -> false
        in
        match submitted_at.(j) with
        | Some t when Hashtbl.mem in_block h && receipt_ok ->
          incr sealed;
          latencies := (float_of_int (sealed_at - t) /. 1e6) :: !latencies
        | _ ->
          incr failed_txs;
          ok := false;
          latencies := infinity :: !latencies)
      txs;
    if Chain.mempool_size chain <> 0 then begin
      drained := false;
      ok := false
    end;
    !ok
  in
  let after i =
    if i = checkpoint - 1 then
      checkpoint_fields :=
        [ ("blocks", Json.Int (Chain.block_count chain));
          ("reexecuted", Json.Int (Chain.reexec_total chain));
          ("state_hash", Json.String (Chain.state_hash chain)) ]
  in
  let samples, _, elapsed_s, peak_rss_mb =
    closed_loop ~after ~trace ~seconds ~min_ops:(max checkpoint size.min_blocks) op
  in
  let lat = Array.of_list (List.rev !latencies) in
  let blocks = Array.length samples in
  let reexec = Chain.reexec_total chain in
  {
    samples;
    attempted = !attempted;
    failed = !failed_txs;
    elapsed_s;
    peak_rss_mb;
    completed = !sealed;
    latencies_ms = lat;
    setup_s;
    setup_report;
    checks =
      [ ("every receipt is Ok", !failed_txs = 0);
        ("the mempool drains every block", !drained);
        ("Chain.validate", Chain.validate chain) ];
    deterministic = [ ("after_" ^ string_of_int checkpoint ^ "_blocks", Json.Obj !checkpoint_fields) ];
    extra =
      [ ("market_tps", num (float_of_int !sealed /. elapsed_s));
        ("seal_p50_ms", num (median lat));
        ("seal_p90_ms", num (quantile lat 0.9));
        ("blocks", Json.Int blocks);
        ("reexecuted_total", Json.Int reexec);
        ("final_state_hash", Json.String (Chain.state_hash chain)) ];
    gas_per_op = 0.0;
    work = size.work;
  }

(* ---- end-to-end metrics ---- *)

(* Every workload prints the same five, each over its own operation: one
   full exchange, one provenance audit, or one transaction's
   submit-to-seal. *)
let end_to_end (o : outcome) =
  [ metric "setup_s" "s" "" o.setup_s;
    metric "op_p50_ms" "ms" "" (median o.latencies_ms);
    metric "op_p90_ms" "ms" "" (quantile o.latencies_ms 0.9);
    metric "ops_per_s" "1/s" "" (float_of_int o.completed /. o.elapsed_s);
    metric "peak_rss_mb" "MB" "" o.peak_rss_mb ]

(* ---- deterministic-field record ---- *)

(* The deterministic fields of one (source, workload, size, seed) are
   kept in [dir]; a later run with the same key must reproduce them byte
   for byte, traced or not. *)
let check_record ~dir ~key (fields : Json.t) =
  let text = Json.to_string fields in
  let path = Filename.concat dir (key ^ ".json") in
  match read_lines path with
  | [ previous ] -> previous = text
  | _ ->
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc (text ^ "\n");
    close_out oc;
    Sys.rename tmp path;
    true

(* ---- output ---- *)

(* JSON has no infinity or NaN; a failed operation makes a latency
   infinite, so it is printed as a huge finite number. *)
let finite v = if Float.is_finite v then v else 1e300

let metric_json x =
  (x.name, Json.Obj [ ("value", Json.Float (finite x.value)); ("unit", Json.String x.unit) ])

let print_human ~workload ~trace (o : outcome) checks (metrics : metric list) =
  let p fmt = Printf.eprintf (fmt ^^ "\n%!") in
  p "zkbench %s (%s): %d attempted, %d failed, %d operations in %.2f s"
    workload (if trace then "traced" else "untraced") o.attempted o.failed
    (Array.length o.samples) o.elapsed_s;
  List.iter (fun (n, ok) -> p "  check %-52s %s" n (if ok then "ok" else "FAILED")) checks;
  List.iter
    (fun (n, v) -> p "  %-28s %s" n (Json.to_string v))
    (o.deterministic @ o.extra);
  List.iter
    (fun x ->
      p "  %-30s %14.6g %-6s%s" x.name x.value x.unit
        (if x.moves = "" then "" else "  should move: " ^ x.moves))
    metrics

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  let size = ref "full" and commit = ref "unknown" and record_dir = ref "" in
  let source_digest = ref "" in
  Arg.parse
    [ ("--workload", Arg.Symbol ([ "exchange"; "audit"; "market" ], ( := ) workload), " workload");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--size", Arg.Symbol ([ "full"; "tiny" ], ( := ) size), " work size");
      ("--commit", Arg.Set_string commit, "ID  source revision for the host record");
      ("--record-dir", Arg.Set_string record_dir, "DIR  deterministic-field records");
      ("--source-digest", Arg.Set_string source_digest, "HEX  keys the records") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "zkbench --workload NAME --seed N --seconds S --trace 0|1";
  let seed =
    match (!seed, !workload) with
    | Some n, w when w <> "" -> n
    | _ ->
      prerr_endline "zkbench: --workload and --seed are required";
      exit 2
  in
  let trace = !trace = 1 in
  let sz = if !size = "tiny" then tiny else full in
  let pool_domains, o =
    Pool.with_domains domains @@ fun () ->
    let run =
      match !workload with
      | "exchange" -> exchange_workload
      | "audit" -> audit_workload
      | _ -> market_workload
    in
    (Pool.num_domains (), run ~size:sz ~seed ~seconds:!seconds ~trace)
  in
  Pool.shutdown ();
  let timed = if trace then Telemetry.snapshot () else Report.empty in
  let deterministic = Json.Obj o.deterministic in
  let repeats =
    !record_dir = ""
    || check_record ~dir:!record_dir
         ~key:(String.concat "-" [ !source_digest; !workload; !size; string_of_int seed ])
         deterministic
  in
  let checks =
    o.checks
    @ [ ("codec.decode_failures = 0", counter timed "codec.decode_failures" = 0.0);
        ("deterministic fields repeat for this seed", repeats) ]
  in
  let correct = List.for_all snd checks in
  let metrics =
    if trace then
      layer_metrics ~setup:o.setup_report ~r:timed ~samples:o.samples
        ~gas_per_op:o.gas_per_op ~work:o.work
    else end_to_end o
  in
  let report =
    [ ("workload", Json.String !workload);
      ("seed", Json.Int seed);
      ("size", Json.String !size);
      ("trace", Json.Bool trace);
      ("host", host_record ~commit:!commit ~pool_domains);
      ("operations", Json.Int (Array.length o.samples));
      ("op_wall_s", Json.List (Array.to_list (Array.map (fun s -> num s.op_s) o.samples)));
      ("op_cpu_s", Json.List (Array.to_list (Array.map (fun s -> num s.cpu_s) o.samples)));
      ("timed_s", Json.Float o.elapsed_s);
      ("process_s", Json.Float (secs_between process_start_ns (now_ns ())));
      ( "fail_ratio",
        Json.Float (float_of_int o.failed /. float_of_int (max 1 o.attempted)) );
      ("checks", Json.Obj (List.map (fun (n, ok) -> (n, Json.Bool ok)) checks));
      ("deterministic", deterministic);
      ("figures", Json.Obj o.extra) ]
  in
  let ledger =
    if not trace then []
    else
      [ ( "ledger",
          Json.List
            (List.map
               (fun x ->
                 Json.Obj
                   [ ("metric", Json.String x.name);
                     ("value", num x.value);
                     ("unit", Json.String x.unit);
                     ("should_move", Json.String x.moves) ])
               metrics) ) ]
  in
  print_human ~workload:!workload ~trace o checks metrics;
  print_endline (Json.to_string (Json.Obj [ ("report", Json.Obj (report @ ledger)) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", Json.Obj (List.map metric_json metrics)) ]));
  exit (if correct then 0 else 1)
