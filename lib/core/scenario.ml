(* A canned, fully seeded ZKCP exchange: seal, publish to storage, prove,
   verify, escrow lock, on-chain key disclosure, buyer-side recovery.

   Everything is derived from [seed] — the RNG, the dataset, the chain
   addresses — so two runs with the same seed emit byte-identical ZJNL
   journals (the trace-propagation tests and the CI audit job depend on
   this).  Reused by [zkdet_cli exchange] and the observability tests. *)

module Fr = Zkdet_field.Bn254.Fr
module Chain = Zkdet_chain.Chain
module Gas = Zkdet_chain.Gas
module Tx = Zkdet_chain.Tx
module Mempool = Zkdet_chain.Mempool
module Sha256 = Zkdet_hash.Sha256
module Storage = Zkdet_storage.Storage
module Zkcp_escrow = Zkdet_contracts.Zkcp_escrow
module Obs = Zkdet_obs.Obs
module Event = Zkdet_obs.Event
module Telemetry = Zkdet_telemetry.Telemetry

(* ---- unified scenario configuration ---- *)

(** One configuration record drives every scenario entry point
    ({!run_cfg}, {!load}); call sites override the
    fields they care about in {!Config.default}. *)
module Config = struct
  type t = {
    seed : int;  (** master RNG seed; every address and dataset derives from it *)
    n : int;  (** dataset size for the exchange scenarios *)
    price : int;  (** escrowed price per deal / per purchase *)
    accounts : int;  (** [load]: distinct on-chain accounts *)
    datasets : int;  (** [load]: catalogue size for Zipf sampling *)
    blocks : int;  (** [load]: blocks to produce *)
    txs_per_block : int;  (** [load]: transactions submitted per block *)
    skew : float;
        (** [load]: Zipf exponent for dataset popularity; [0.] selects a
            disjoint non-conflicting assignment instead of sampling *)
    work : int;  (** [load]: per-transaction hash-chain iterations *)
    journal : string option;  (** ZJNL sink; [None] leaves Obs alone *)
    prom : string option;  (** Prometheus text sink; enables telemetry *)
    serve : int option;
        (** live ops server port (0 picks a free one); enables telemetry
            and rolling windows for the duration of the run *)
  }

  let default =
    {
      seed = 42;
      n = 8;
      price = 1_000;
      accounts = 64;
      datasets = 32;
      blocks = 8;
      txs_per_block = 32;
      skew = 1.0;
      work = 16;
      journal = None;
      prom = None;
      serve = None;
    }
end

(* Route a scenario's observability through the sinks named in the
   config: open the journal before running, close it after, and dump a
   Prometheus snapshot when asked.  A config with both sinks [None]
   leaves whatever journal and telemetry state the caller set up. *)
let with_sinks (cfg : Config.t) (f : unit -> 'a) : 'a =
  Option.iter (fun p -> Obs.set_journal_path (Some p)) cfg.Config.journal;
  if cfg.Config.prom <> None then Telemetry.set_enabled true;
  (* The ops server only reads telemetry snapshots, so journal bytes and
     state hashes are identical with or without it (CI's ops-gate job
     cmp-checks exactly that). *)
  let server =
    Option.map
      (fun port ->
        Telemetry.set_enabled true;
        Telemetry.set_window_enabled true;
        let s = Zkdet_ops.Ops.start ~port (Zkdet_ops.Ops.routes ()) in
        Printf.eprintf "ops server listening on http://127.0.0.1:%d\n%!"
          (Zkdet_ops.Ops.port s);
        s)
      cfg.Config.serve
  in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Option.iter
          (fun s ->
            Zkdet_ops.Ops.stop s;
            Telemetry.set_window_enabled false)
          server)
      f
  in
  if cfg.Config.journal <> None then Obs.close ();
  Option.iter
    (fun p ->
      let oc = open_out_bin p in
      output_string oc (Telemetry.Report.to_prometheus (Telemetry.snapshot ()));
      close_out oc)
    cfg.Config.prom;
  result

type outcome = {
  chain : Chain.t;
  net : Storage.t;
  proof_ok : bool;  (** the buyer accepted pi_p *)
  delivered : bool;  (** the recovered plaintext equals the original *)
  ok : bool;
}

let step ?(detail = []) name =
  if Obs.is_enabled () then
    Obs.emit (Event.Protocol_step { protocol = "zkcp"; step = name; detail })

(** [run_cfg cfg] executes one complete exchange of a
    [cfg.n]-element dataset.  The whole run sits under a single
    ["zkcp-exchange"] trace; it ends with a ["complete"] protocol step
    only when the proof verified, every transaction succeeded and the
    buyer recovered the exact plaintext.  Honours [cfg.journal] and
    [cfg.prom]. *)
let run_cfg (cfg : Config.t) : outcome =
  let seed = cfg.Config.seed and n = cfg.Config.n and price = cfg.Config.price in
  with_sinks cfg @@ fun () ->
  let env = Env.create ~log2_max_gates:12 ~seed:[| seed |] () in
  let chain = Chain.create () in
  let net = Storage.create () in
  let seller = Chain.Address.of_seed (Printf.sprintf "seller/%d" seed) in
  let buyer = Chain.Address.of_seed (Printf.sprintf "buyer/%d" seed) in
  Chain.faucet chain seller 10_000_000;
  Chain.faucet chain buyer (price + 10_000_000);
  let seller_node = Storage.add_node net ~id:"seller-node" in
  let buyer_node = Storage.add_node net ~id:"buyer-node" in
  let data = Array.init n (fun i -> Fr.of_int ((seed * 1_000) + i)) in
  let predicate = Circuits.Trivial in
  Obs.with_trace "zkcp-exchange" @@ fun () ->
  (* Seller: seal the dataset and advertise the offer. *)
  let sealed = Transform.seal ~st:env.Env.rng data in
  let offer = Zkcp.make_offer sealed ~predicate ~price in
  step "offer" ~detail:[ ("n", string_of_int n); ("price", string_of_int price) ];
  (* Seller: publish the ciphertext to public storage. *)
  let ct_cid =
    Storage.Cid.to_string
      (Storage.put net seller_node (Storage.Codec.encode offer.Zkcp.ciphertext))
  in
  step "publish" ~detail:[ ("cid", ct_cid) ];
  (* Deliver: the seller proves phi(D) = 1 over the published ciphertext. *)
  let proof = Zkcp.prove env sealed predicate in
  step "deliver";
  (* Verify: the buyer checks pi_p before locking any payment. *)
  let proof_ok = Zkcp.verify env offer proof in
  step "verify" ~detail:[ ("ok", string_of_bool proof_ok) ];
  if not proof_ok then
    { chain; net; proof_ok; delivered = false; ok = false }
  else begin
    (* Lock: buyer escrows the price against h = H(k). *)
    let escrow, _ = Zkcp_escrow.deploy chain ~deployer:buyer in
    let deal_id, _ =
      Zkcp_escrow.lock escrow chain ~buyer ~seller ~amount:price
        ~h:offer.Zkcp.h ~timeout_blocks:50
    in
    ignore (Chain.mine chain);
    match deal_id with
    | None -> { chain; net; proof_ok; delivered = false; ok = false }
    | Some deal_id ->
      step "lock" ~detail:[ ("deal", string_of_int deal_id) ];
      (* Open: the seller discloses k on-chain and collects the payment. *)
      let open_receipt =
        Zkcp_escrow.open_key escrow chain ~seller ~deal_id
          ~key:sealed.Transform.key
      in
      ignore (Chain.mine chain);
      (match open_receipt.Chain.status with
      | Error _ -> { chain; net; proof_ok; delivered = false; ok = false }
      | Ok () ->
        step "open" ~detail:[ ("deal", string_of_int deal_id) ];
        (* Recover: the buyer (like any observer) reads k from the chain,
           fetches the ciphertext and decrypts. *)
        let delivered =
          match
            (Zkcp_escrow.disclosed_key escrow deal_id,
             Storage.get net buyer_node ct_cid)
          with
          | Some key, Ok ct_bytes -> (
            match Storage.Codec.decode_result ct_bytes with
            | Error _ -> false
            | Ok ciphertext ->
              let recovered =
                Zkcp.third_party_decrypt
                  { offer with Zkcp.ciphertext }
                  ~disclosed_key:key
              in
              Array.length recovered = Array.length data
              && Array.for_all2 Fr.equal recovered data)
          | _ -> false
        in
        if delivered then step "complete" ~detail:[ ("deal", string_of_int deal_id) ];
        { chain; net; proof_ok; delivered; ok = delivered })
  end

(* ---- sustained marketplace load (mempool + parallel blocks) ---- *)

type load_outcome = {
  load_chain : Chain.t;
  submitted : int;  (** transactions admitted to the mempool *)
  rejected : int;  (** submissions the mempool refused *)
  executed : int;  (** transactions sealed into blocks *)
  blocks_built : int;
  reexecuted : int;  (** speculations that conflicted and re-ran *)
  elapsed_s : float;  (** wall time over the whole submit/build loop *)
  tps : float;  (** executed / elapsed_s *)
  p50_ms : float;  (** submit-to-seal latency percentiles *)
  p95_ms : float;
  p99_ms : float;
  load_ok : bool;  (** every submission admitted and sealed *)
}

let step_load ?(detail = []) name =
  if Obs.is_enabled () then
    Obs.emit (Event.Protocol_step { protocol = "load"; step = name; detail })

(* Zipf CDF over [0, n): weight of rank i is 1/(i+1)^s.  Sampled by
   binary search for the first rank whose cumulative weight covers u. *)
let zipf_cdf ~n ~s =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun wi ->
      acc := !acc +. (wi /. total);
      !acc)
    w

let zipf_sample cdf u =
  let n = Array.length cdf in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

(* One marketplace purchase: burn [work] rounds of hash-chain compute,
   move [price] from buyer to seller and bump the dataset's sales
   counter in chain storage.  Everything goes through the [env_*]
   accessors so the speculative executor sees the full read/write
   footprint; popular datasets collide on their ["sales/<d>"] slot and
   that is exactly the conflict the Zipf skew is meant to produce. *)
let purchase ~buyer ~seller ~dataset ~price ~work env =
  let m = Chain.env_meter env in
  let h = ref (Printf.sprintf "%s/%d" buyer dataset) in
  for _ = 1 to work do
    Gas.keccak m ~bytes:(String.length !h);
    h := Sha256.digest_hex !h
  done;
  (match Chain.env_debit env buyer price with
  | Ok () -> ()
  | Error e -> raise (Chain.Revert ("purchase: " ^ Chain.error_to_string e)));
  Chain.env_credit env seller price;
  Gas.sload m;
  let key = Printf.sprintf "sales/%d" dataset in
  let sold =
    match Chain.env_storage_get env ~contract:"market" ~key with
    | Some v -> int_of_string v
    | None -> 0
  in
  Gas.sstore m ~was_zero:(sold = 0) ~now_zero:false;
  Chain.env_storage_set env ~contract:"market" ~key
    ~value:(string_of_int (sold + 1))

(** [load cfg] drives a sustained marketplace workload through the
    mempool and the parallel block builder: [cfg.blocks] blocks of
    [cfg.txs_per_block] purchases each, with dataset popularity
    Zipf-skewed by [cfg.skew] ([0.] selects a disjoint, provably
    conflict-free assignment — the parallel speedup workload).  The
    ledger contents are fully seeded and deterministic at any
    [ZKDET_DOMAINS]; wall-clock throughput and latency figures are
    measured, not derived, and so vary run to run. *)
let load (cfg : Config.t) : load_outcome =
  let seed = cfg.Config.seed in
  let n_accounts = max 2 cfg.Config.accounts in
  let n_datasets = max 1 cfg.Config.datasets in
  let blocks = cfg.Config.blocks in
  let per_block = cfg.Config.txs_per_block in
  with_sinks cfg @@ fun () ->
  let chain = Chain.create () in
  let accounts =
    Array.init n_accounts (fun i ->
        Chain.Address.of_seed (Printf.sprintf "load/acct/%d/%d" seed i))
  in
  Array.iter (fun a -> Chain.faucet chain a 1_000_000_000) accounts;
  let rng = Random.State.make [| seed; 0x10ad |] in
  let cdf = zipf_cdf ~n:n_datasets ~s:cfg.Config.skew in
  let next_nonce : (string, int) Hashtbl.t = Hashtbl.create n_accounts in
  let nonce_of a = Option.value ~default:0 (Hashtbl.find_opt next_nonce a) in
  let submit_ns : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let latencies = ref [] in
  let submitted = ref 0 and rejected = ref 0 and executed = ref 0 in
  Obs.with_trace "zkdet-load" @@ fun () ->
  step_load "start"
    ~detail:
      [
        ("accounts", string_of_int n_accounts);
        ("datasets", string_of_int n_datasets);
        ("blocks", string_of_int blocks);
        ("txs_per_block", string_of_int per_block);
      ];
  let t0 = Telemetry.monotonic_ns () in
  for _b = 0 to blocks - 1 do
    for i = 0 to per_block - 1 do
      let buyer, seller, dataset =
        if cfg.Config.skew = 0.0 then
          (* Disjoint assignment: distinct buyer, seller and dataset per
             slot, so no two transactions in a block share a key (needs
             [2 * txs_per_block <= accounts] and
             [txs_per_block <= datasets] to be fully conflict-free). *)
          ( accounts.(2 * i mod n_accounts),
            accounts.(((2 * i) + 1) mod n_accounts),
            i mod n_datasets )
        else begin
          let dataset = zipf_sample cdf (Random.State.float rng 1.0) in
          let b = Random.State.int rng n_accounts in
          let s0 = Random.State.int rng n_accounts in
          let s = if s0 = b then (s0 + 1) mod n_accounts else s0 in
          (accounts.(b), accounts.(s), dataset)
        end
      in
      let nonce = nonce_of buyer in
      let tx =
        Tx.make ~sender:buyer ~nonce
          ~label:"market:purchase" ~calldata:(string_of_int dataset)
          ~contract:"market"
          (purchase ~buyer ~seller ~dataset ~price:cfg.Config.price
             ~work:cfg.Config.work)
      in
      match Chain.submit chain tx with
      | Mempool.Admitted | Mempool.Replaced _ ->
        Hashtbl.replace next_nonce buyer (nonce + 1);
        incr submitted;
        Telemetry.count "load.tx_submitted" 1;
        Hashtbl.replace submit_ns (Tx.hash tx) (Telemetry.monotonic_ns ())
      | Mempool.Rejected_stale _ | Mempool.Rejected_full -> incr rejected
    done;
    let block = Chain.produce_block ~max_txs:per_block chain in
    let now = Telemetry.monotonic_ns () in
    List.iter
      (fun h ->
        match Hashtbl.find_opt submit_ns h with
        | None -> ()
        | Some t ->
          let ms = float_of_int (now - t) /. 1e6 in
          latencies := ms :: !latencies;
          Telemetry.observe "load.tx_latency_ms" ms;
          Telemetry.count "load.tx_executed" 1;
          Hashtbl.remove submit_ns h;
          incr executed)
      block.Chain.tx_hashes
  done;
  let t1 = Telemetry.monotonic_ns () in
  let elapsed_s = float_of_int (t1 - t0) /. 1e9 in
  let sorted = Array.of_list !latencies in
  Array.sort compare sorted;
  let reexecuted = Chain.reexec_total chain in
  let load_ok =
    !rejected = 0 && !executed = !submitted && Chain.mempool_size chain = 0
  in
  step_load "load-complete"
    ~detail:
      [
        ("submitted", string_of_int !submitted);
        ("executed", string_of_int !executed);
        ("blocks", string_of_int blocks);
        ("ok", string_of_bool load_ok);
      ];
  {
    load_chain = chain;
    submitted = !submitted;
    rejected = !rejected;
    executed = !executed;
    blocks_built = blocks;
    reexecuted;
    elapsed_s;
    tps = (if elapsed_s > 0.0 then float_of_int !executed /. elapsed_s else 0.0);
    p50_ms = percentile sorted 50.0;
    p95_ms = percentile sorted 95.0;
    p99_ms = percentile sorted 99.0;
    load_ok;
  }
