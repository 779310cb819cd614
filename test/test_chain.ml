module Fr = Zkdet_field.Bn254.Fr
module Chain = Zkdet_chain.Chain
module Gas = Zkdet_chain.Gas
module Erc721 = Zkdet_contracts.Erc721
module Zkcp = Zkdet_contracts.Zkcp_escrow
module Auction = Zkdet_contracts.Auction
module Poseidon = Zkdet_poseidon.Poseidon

let rng = Test_util.rng ~salt:"chain" ()

let alice = Chain.Address.of_seed "alice"
let bob = Chain.Address.of_seed "bob"
let carol = Chain.Address.of_seed "carol"

let fresh_chain () =
  let chain = Chain.create () in
  List.iter (fun a -> Chain.faucet chain a 100_000_000) [ alice; bob; carol ];
  chain

let ok_status (r : Chain.receipt) =
  match r.Chain.status with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "tx failed: %s (%s)" (Chain.error_to_string e) r.Chain.tx_label

let failed_status (r : Chain.receipt) expected =
  match r.Chain.status with
  | Ok () -> Alcotest.failf "tx unexpectedly succeeded (%s)" r.Chain.tx_label
  | Error e ->
    let e = Chain.error_to_string e in
    if not (String.equal e expected) then
      Alcotest.failf "wrong revert: got %S want %S" e expected

let dummy_mint chain nft ~owner =
  let id, r =
    Erc721.mint nft chain ~sender:owner ~recipient:owner ~uri:"zb_token"
      ~key_commitment:(Fr.random rng) ~data_commitment:(Fr.random rng)
      ~proof_refs:[ "zb_proof" ]
  in
  ok_status r;
  Option.get id

let test_accounts_and_fees () =
  let chain = fresh_chain () in
  let before = Chain.balance chain alice in
  let r = Chain.execute chain ~sender:alice ~label:"noop" (fun _ -> ()) in
  ok_status r;
  Alcotest.(check int) "base gas" 21_000 r.Chain.gas_used;
  Alcotest.(check int) "fee deducted" (before - 21_000) (Chain.balance chain alice)

let test_revert_still_pays () =
  let chain = fresh_chain () in
  let before = Chain.balance chain alice in
  let r =
    Chain.execute chain ~sender:alice ~label:"fail" (fun _ ->
        raise (Chain.Revert "boom"))
  in
  failed_status r "boom";
  Alcotest.(check bool) "gas still charged" true (Chain.balance chain alice < before)

let test_revert_discards_events () =
  (* A transaction that emits events and then reverts must leave no trace
     of them: not in its receipt, and not in the sealed block's state. *)
  let chain = fresh_chain () in
  let r =
    Chain.execute chain ~sender:alice ~label:"emit-then-fail" (fun env ->
        Chain.emit env ~contract:"leaky" ~name:"Phantom" ~data:[ "1" ];
        Chain.emit env ~contract:"leaky" ~name:"Phantom" ~data:[ "2" ];
        raise (Chain.Revert "after emitting"))
  in
  failed_status r "after emitting";
  Alcotest.(check int) "receipt has no events" 0 (List.length r.Chain.events);
  ignore (Chain.mine chain);
  let sealed = Option.get (Chain.receipt chain r.Chain.tx_hash) in
  Alcotest.(check int) "sealed receipt still has no events" 0
    (List.length sealed.Chain.events);
  (* a successful tx in the same chain keeps its events *)
  let ok_r =
    Chain.execute chain ~sender:alice ~label:"emit-ok" (fun env ->
        Chain.emit env ~contract:"fine" ~name:"Kept" ~data:[])
  in
  ok_status ok_r;
  Alcotest.(check int) "successful tx keeps events" 1
    (List.length ok_r.Chain.events)

let test_out_of_gas () =
  let chain = Chain.create ~gas_limit:30_000 () in
  Chain.faucet chain alice 1_000_000;
  let r =
    Chain.execute chain ~sender:alice ~label:"hog" (fun env ->
        for _ = 1 to 10 do
          Gas.sstore (Chain.env_meter env) ~was_zero:true ~now_zero:false
        done)
  in
  failed_status r "out of gas"

let test_blocks_and_validation () =
  let chain = fresh_chain () in
  ignore (Chain.execute chain ~sender:alice ~label:"a" (fun _ -> ()));
  ignore (Chain.execute chain ~sender:bob ~label:"b" (fun _ -> ()));
  let b1 = Chain.mine chain in
  Alcotest.(check int) "two txs" 2 (List.length b1.Chain.tx_hashes);
  ignore (Chain.execute chain ~sender:carol ~label:"c" (fun _ -> ()));
  let b2 = Chain.mine chain in
  Alcotest.(check int) "block numbers" 2 b2.Chain.number;
  Alcotest.(check bool) "chain validates" true (Chain.validate chain);
  (* receipts get block numbers *)
  let r = Chain.receipt chain (List.hd b1.Chain.tx_hashes) in
  Alcotest.(check (option int)) "receipt in block 1" (Some 1)
    (Option.bind r (fun r -> r.Chain.block_number))

let test_block_gas_limit () =
  (* Three 21k-gas txs against a 50k block limit: two blocks needed. *)
  let chain = Chain.create ~block_gas_limit:50_000 () in
  Chain.faucet chain alice 10_000_000;
  for _ = 1 to 3 do
    ignore (Chain.execute chain ~sender:alice ~label:"noop" (fun _ -> ()))
  done;
  let b1 = Chain.mine chain in
  Alcotest.(check int) "two txs fit" 2 (List.length b1.Chain.tx_hashes);
  Alcotest.(check int) "one pending" 1 (Chain.pending_count chain);
  let b2 = Chain.mine chain in
  Alcotest.(check int) "overflow sealed next block" 1 (List.length b2.Chain.tx_hashes);
  Alcotest.(check int) "pool drained" 0 (Chain.pending_count chain);
  Alcotest.(check bool) "chain validates" true (Chain.validate chain)

let test_erc721_lifecycle () =
  let chain = fresh_chain () in
  let nft, deploy_receipt = Erc721.deploy chain ~deployer:alice in
  ok_status deploy_receipt;
  Alcotest.(check bool) "deploy gas near 1.02M" true
    (abs (deploy_receipt.Chain.gas_used - 1_020_954) < 30_000);
  let id = dummy_mint chain nft ~owner:alice in
  Alcotest.(check (option string)) "owner is alice" (Some alice)
    (Erc721.owner_of nft id);
  Alcotest.(check int) "balance" 1 (Erc721.balance_of nft alice);
  (* transfer *)
  let r = Erc721.transfer_from nft chain ~sender:alice ~from:alice ~to_:bob ~token_id:id in
  ok_status r;
  Alcotest.(check (option string)) "owner is bob" (Some bob) (Erc721.owner_of nft id);
  Alcotest.(check bool) "transfer gas near 36.5k" true
    (abs (r.Chain.gas_used - 36_574) < 25_000);
  (* non-owner cannot transfer *)
  failed_status
    (Erc721.transfer_from nft chain ~sender:alice ~from:bob ~to_:alice ~token_id:id)
    "transfer: not authorized";
  (* approve then transfer *)
  ok_status (Erc721.approve nft chain ~sender:bob ~spender:carol ~token_id:id);
  ok_status
    (Erc721.transfer_from nft chain ~sender:carol ~from:bob ~to_:carol ~token_id:id);
  (* burn *)
  let rb = Erc721.burn nft chain ~sender:carol ~token_id:id in
  ok_status rb;
  Alcotest.(check (option string)) "burned has no owner" None (Erc721.owner_of nft id);
  Alcotest.(check bool) "burn gas near 50k" true
    (abs (rb.Chain.gas_used - 50_084) < 15_000);
  (* cannot burn twice *)
  failed_status (Erc721.burn nft chain ~sender:carol ~token_id:id)
    "burn: not owner or no such token"

let test_erc721_transformations () =
  let chain = fresh_chain () in
  let nft, _ = Erc721.deploy chain ~deployer:alice in
  let t1 = dummy_mint chain nft ~owner:alice in
  let t2 = dummy_mint chain nft ~owner:alice in
  (* aggregation of t1 + t2 *)
  let agg, r =
    Erc721.mint_derived nft chain ~sender:alice ~prev_ids:[ t1; t2 ]
      ~transform:Erc721.Aggregation ~uri:"zb_agg" ~key_commitment:(Fr.random rng)
      ~data_commitment:(Fr.random rng) ~proof_refs:[ "zb_pi_t" ]
  in
  ok_status r;
  let agg = Option.get agg in
  (* provenance walks back to both parents *)
  let prov = Erc721.provenance nft agg in
  let ids = List.map (fun t -> t.Erc721.token_id) prov in
  Alcotest.(check bool) "provenance has parents" true
    (List.mem t1 ids && List.mem t2 ids);
  (* deriving from someone else's token reverts *)
  let _, r_bad =
    Erc721.mint_derived nft chain ~sender:bob ~prev_ids:[ t1 ]
      ~transform:Erc721.Duplication ~uri:"zb_dup" ~key_commitment:(Fr.random rng)
      ~data_commitment:(Fr.random rng) ~proof_refs:[]
  in
  failed_status r_bad "not owner of parent token";
  (* deriving from a ghost token reverts *)
  let _, r_ghost =
    Erc721.mint_derived nft chain ~sender:alice ~prev_ids:[ 999 ]
      ~transform:Erc721.Partition ~uri:"zb_p" ~key_commitment:(Fr.random rng)
      ~data_commitment:(Fr.random rng) ~proof_refs:[]
  in
  failed_status r_ghost "parent token does not exist"

let test_zkcp_key_disclosure () =
  let chain = fresh_chain () in
  let zkcp, _ = Zkcp.deploy chain ~deployer:carol in
  let k = Fr.random rng in
  let h = Poseidon.hash [ k ] in
  let id, r =
    Zkcp.lock zkcp chain ~buyer:bob ~seller:alice ~amount:1_000_000 ~h
      ~timeout_blocks:10
  in
  ok_status r;
  let id = Option.get id in
  (* wrong key rejected *)
  failed_status
    (Zkcp.open_key zkcp chain ~seller:alice ~deal_id:id ~key:(Fr.random rng))
    "open: key does not match hash lock";
  (* correct key pays the seller... *)
  let seller_before = Chain.balance chain alice in
  ok_status (Zkcp.open_key zkcp chain ~seller:alice ~deal_id:id ~key:k);
  Alcotest.(check bool) "seller paid" true (Chain.balance chain alice > seller_before);
  (* ...but the key is now PUBLIC: any third party reads it (the flaw). *)
  (match Zkcp.disclosed_key zkcp id with
  | Some k' -> Alcotest.(check bool) "third party learns k" true (Fr.equal k k')
  | None -> Alcotest.fail "key should be disclosed");
  ()

let test_zkcp_refund () =
  let chain = fresh_chain () in
  let zkcp, _ = Zkcp.deploy chain ~deployer:carol in
  let h = Poseidon.hash [ Fr.random rng ] in
  let id, _ = Zkcp.lock zkcp chain ~buyer:bob ~seller:alice ~amount:5000 ~h ~timeout_blocks:2 in
  let id = Option.get id in
  failed_status (Zkcp.refund zkcp chain ~buyer:bob ~deal_id:id)
    "refund: deadline not reached";
  ignore (Chain.mine chain);
  ignore (Chain.mine chain);
  let before = Chain.balance chain bob in
  ok_status (Zkcp.refund zkcp chain ~buyer:bob ~deal_id:id);
  Alcotest.(check int) "refunded minus fees" (before + 5000 - 21_000 - 5_000 - 2_100)
    (Chain.balance chain bob)

let test_zkcp_dispute_timeout () =
  let chain = fresh_chain () in
  let zkcp, _ = Zkcp.deploy chain ~deployer:carol in
  let k = Fr.random rng in
  let h = Poseidon.hash [ k ] in
  let id, r =
    Zkcp.lock zkcp chain ~buyer:bob ~seller:alice ~amount:5_000 ~h ~timeout_blocks:2
  in
  ok_status r;
  let id = Option.get id in
  (* only the named parties can act *)
  failed_status (Zkcp.refund zkcp chain ~buyer:carol ~deal_id:id)
    "refund: not the buyer";
  failed_status (Zkcp.open_key zkcp chain ~seller:bob ~deal_id:id ~key:k)
    "open: not the seller";
  (* before the deadline the buyer cannot bail out *)
  failed_status (Zkcp.refund zkcp chain ~buyer:bob ~deal_id:id)
    "refund: deadline not reached";
  ignore (Chain.mine chain);
  ignore (Chain.mine chain);
  ok_status (Zkcp.refund zkcp chain ~buyer:bob ~deal_id:id);
  (* double refund and late settlement both hit the closed deal *)
  failed_status (Zkcp.refund zkcp chain ~buyer:bob ~deal_id:id)
    "refund: deal not open";
  failed_status (Zkcp.open_key zkcp chain ~seller:alice ~deal_id:id ~key:k)
    "open: deal not open";
  failed_status (Zkcp.refund zkcp chain ~buyer:bob ~deal_id:999)
    "refund: no such deal"

let test_zkcp_double_claim () =
  let chain = fresh_chain () in
  let zkcp, _ = Zkcp.deploy chain ~deployer:carol in
  let k = Fr.random rng in
  let h = Poseidon.hash [ k ] in
  let id, _ =
    Zkcp.lock zkcp chain ~buyer:bob ~seller:alice ~amount:5_000 ~h ~timeout_blocks:2
  in
  let id = Option.get id in
  let seller_before = Chain.balance chain alice in
  let r1 = Zkcp.open_key zkcp chain ~seller:alice ~deal_id:id ~key:k in
  ok_status r1;
  (* the seller cannot be paid twice (the reverted tx still pays gas) *)
  let r2 = Zkcp.open_key zkcp chain ~seller:alice ~deal_id:id ~key:k in
  failed_status r2 "open: deal not open";
  (* nor can the buyer claw back after settlement, even past the deadline *)
  ignore (Chain.mine chain);
  ignore (Chain.mine chain);
  failed_status (Zkcp.refund zkcp chain ~buyer:bob ~deal_id:id)
    "refund: deal not open";
  (* exactly one payout: the amount credited once, minus the seller's fees *)
  Alcotest.(check int) "seller credited once"
    (seller_before + 5_000 - r1.Chain.gas_used - r2.Chain.gas_used)
    (Chain.balance chain alice)

let test_auction () =
  let chain = fresh_chain () in
  let nft, _ = Erc721.deploy chain ~deployer:alice in
  let auction, _ = Auction.deploy chain ~deployer:alice nft in
  let id = dummy_mint chain nft ~owner:alice in
  let listing, r =
    Auction.list_token auction chain ~seller:alice ~token_id:id ~start_price:10_000
      ~reserve_price:4_000 ~decay_per_block:1_000 ~predicate:"entries > 100"
  in
  ok_status r;
  let listing = Option.get listing in
  Alcotest.(check (option int)) "price at start" (Some 10_000)
    (Auction.current_price auction chain listing);
  (* price decays with blocks *)
  ignore (Chain.mine chain);
  ignore (Chain.mine chain);
  ignore (Chain.mine chain);
  Alcotest.(check (option int)) "price decayed" (Some 7_000)
    (Auction.current_price auction chain listing);
  (* lowball bid rejected *)
  failed_status (Auction.bid auction chain ~bidder:bob ~listing_id:listing ~offer:5_000)
    "bid: below clock price";
  (* winning bid transfers token and pays seller *)
  let seller_before = Chain.balance chain alice in
  ok_status (Auction.bid auction chain ~bidder:bob ~listing_id:listing ~offer:7_000);
  Alcotest.(check (option string)) "bob owns token" (Some bob) (Erc721.owner_of nft id);
  Alcotest.(check int) "seller paid" (seller_before + 7_000) (Chain.balance chain alice);
  (* decays stop at reserve *)
  for _ = 1 to 20 do
    ignore (Chain.mine chain)
  done;
  Alcotest.(check (option int)) "sold listing has no price" None
    (Auction.current_price auction chain listing)

let test_gas_table_shape () =
  (* Relative ordering of Table II: verifier deploy > zkdet deploy >>
     mint > transformations > burn > transfer. *)
  let chain = fresh_chain () in
  let nft, d = Erc721.deploy chain ~deployer:alice in
  let t1 = dummy_mint chain nft ~owner:alice in
  let t2 = dummy_mint chain nft ~owner:alice in
  (* warm bob's balance slot so the transfer below matches the paper's
     steady-state cost *)
  let _ = dummy_mint chain nft ~owner:bob in
  let mint_receipt =
    let _, r =
      Erc721.mint nft chain ~sender:alice ~recipient:alice ~uri:"zb_x"
        ~key_commitment:(Fr.random rng) ~data_commitment:(Fr.random rng)
        ~proof_refs:[ "zb_p" ]
    in
    r
  in
  let _, agg =
    Erc721.mint_derived nft chain ~sender:alice ~prev_ids:[ t1; t2 ]
      ~transform:Erc721.Aggregation ~uri:"zb_a" ~key_commitment:(Fr.random rng)
      ~data_commitment:(Fr.random rng) ~proof_refs:[ "zb_q" ]
  in
  let transfer =
    Erc721.transfer_from nft chain ~sender:alice ~from:alice ~to_:bob ~token_id:t1
  in
  let burn = Erc721.burn nft chain ~sender:alice ~token_id:t2 in
  let g r = r.Chain.gas_used in
  Alcotest.(check bool) "deploy > mint" true (g d > g mint_receipt);
  Alcotest.(check bool) "mint > aggregation" true (g mint_receipt > g agg);
  Alcotest.(check bool) "aggregation > burn" true (g agg > g burn);
  Alcotest.(check bool) "burn > transfer" true (g burn > g transfer)

(* ------------------------------------------------------------------ *)
(* Batched settlement (ISSUE 6): exact accounting, all-or-nothing       *)
(* revert without event leakage, per-proof gas attribution.             *)
(* ------------------------------------------------------------------ *)

module Env = Zkdet_core.Env
module Exchange = Zkdet_core.Exchange
module Transform = Zkdet_core.Transform
module Escrow = Zkdet_contracts.Escrow
module Verifier_contract = Zkdet_contracts.Verifier_contract

(* One proving environment and five independent (h_v, k_c, pi_k) triples
   over the same sealed dataset — four for the batch, one spare for the
   single-settle gas comparison.  Proving is the expensive part, so the
   fixture is shared; each test replays it against a fresh chain. *)
let batch_fixture =
  lazy
    (let env = Env.create ~log2_max_gates:13 ~seed:[| 0xba7c |] () in
     let data = Array.init 4 (fun i -> Fr.of_int (i + 1)) in
     let sealed = Transform.seal ~st:env.Env.rng data in
     let parties =
       List.init 5 (fun _ ->
           let k_v, h_v = Exchange.buyer_blinding ~st:env.Env.rng () in
           let k_c, pi_k = Exchange.prove_key env sealed ~k_v in
           (h_v, k_c, pi_k))
     in
     (Exchange.key_vk env, sealed.Transform.c_k, parties))

let price = 1_000

(* Deploy the stack as [alice] (the seller) and lock one deal per party;
   returns the escrow and the locked entries [(deal_id, k_c, pi_k)]. *)
let lock_parties chain parties =
  let vk, c_k, _ = Lazy.force batch_fixture in
  let verifier, _ = Verifier_contract.deploy chain ~deployer:alice vk in
  let escrow, _ = Escrow.deploy chain ~deployer:alice verifier in
  let entries =
    List.mapi
      (fun i (h_v, k_c, pi_k) ->
        let buyer = Chain.Address.of_seed (Printf.sprintf "batch-buyer/%d" i) in
        Chain.faucet chain buyer (price + 1_000_000);
        let deal_id, r =
          Escrow.lock escrow chain ~buyer ~seller:alice ~amount:price ~h_v
            ~key_commitment:c_k ~timeout_blocks:100
        in
        ok_status r;
        (Option.get deal_id, k_c, pi_k))
      parties
  in
  ignore (Chain.mine chain);
  (escrow, entries)

let batch_parties () =
  let _, _, parties = Lazy.force batch_fixture in
  List.filteri (fun i _ -> i < 4) parties

let test_settle_batch_accounting () =
  let chain = fresh_chain () in
  let escrow, entries = lock_parties chain (batch_parties ()) in
  let before = Chain.balance chain alice in
  let r = Escrow.settle_batch escrow chain ~seller:alice entries in
  ok_status r;
  (* exact accounting: the seller gains every amount and pays the fee *)
  Alcotest.(check int) "seller credited all four amounts, minus the fee"
    (before + (4 * price) - r.Chain.gas_used)
    (Chain.balance chain alice);
  List.iter
    (fun (deal_id, k_c, _) ->
      let d = Option.get (Escrow.deal escrow deal_id) in
      Alcotest.(check bool) "deal settled" true (d.Escrow.status = Escrow.Settled);
      Alcotest.(check bool) "k_c published" true
        (match d.Escrow.k_c with Some k -> Fr.equal k k_c | None -> false))
    entries;
  (* one Settled per deal plus one BatchSettled, in the receipt *)
  let count name =
    List.length
      (List.filter (fun (e : Chain.event) -> e.Chain.event_name = name) r.Chain.events)
  in
  Alcotest.(check int) "four Settled events" 4 (count "Settled");
  Alcotest.(check int) "one BatchSettled event" 1 (count "BatchSettled")

let test_settle_batch_all_or_nothing () =
  let chain = fresh_chain () in
  let escrow, entries = lock_parties chain (batch_parties ()) in
  (* corrupt the THIRD slot: the earlier valid members must not settle *)
  let forged =
    List.mapi
      (fun i (id, k_c, pi_k) ->
        if i = 2 then (id, Fr.add k_c Fr.one, pi_k) else (id, k_c, pi_k))
      entries
  in
  let before = Chain.balance chain alice in
  let r = Escrow.settle_batch escrow chain ~seller:alice forged in
  failed_status r "settle-batch: invalid proof in batch";
  (* no event leakage from the revert, not even the per-proof gas ones *)
  Alcotest.(check int) "receipt has no events" 0 (List.length r.Chain.events);
  ignore (Chain.mine chain);
  let sealed_r = Option.get (Chain.receipt chain r.Chain.tx_hash) in
  Alcotest.(check int) "sealed receipt has no events" 0
    (List.length sealed_r.Chain.events);
  (* no partial settlement: every deal still open, no payment moved *)
  List.iter
    (fun (deal_id, _, _) ->
      let d = Option.get (Escrow.deal escrow deal_id) in
      Alcotest.(check bool) "deal still locked" true
        (d.Escrow.status = Escrow.Locked);
      Alcotest.(check bool) "no key published" true (d.Escrow.k_c = None))
    entries;
  Alcotest.(check int) "seller paid gas, received nothing"
    (before - r.Chain.gas_used)
    (Chain.balance chain alice);
  (* the same block settles once the forgery is removed *)
  let r2 = Escrow.settle_batch escrow chain ~seller:alice entries in
  ok_status r2

let test_settle_batch_gas_attribution () =
  let chain = fresh_chain () in
  let _, _, parties = Lazy.force batch_fixture in
  let escrow, entries = lock_parties chain parties in
  let batch_entries = List.filteri (fun i _ -> i < 4) entries in
  let single_id, single_k_c, single_pi = List.nth entries 4 in
  let r = Escrow.settle_batch escrow chain ~seller:alice batch_entries in
  ok_status r;
  let gas_events =
    List.filter_map
      (fun (e : Chain.event) ->
        if e.Chain.event_name = "BatchProofGas" then
          match e.Chain.event_data with
          | [ deal; gas ] -> Some (int_of_string deal, int_of_string gas)
          | _ -> Alcotest.fail "malformed BatchProofGas event"
        else None)
      r.Chain.events
  in
  (* one attribution per deal, each positive, and their sum below the
     transaction total (the remainder is the shared fold + base cost) *)
  Alcotest.(check (list int)) "one attribution per deal, in order"
    (List.map (fun (id, _, _) -> id) batch_entries)
    (List.map fst gas_events);
  List.iter
    (fun (_, gas) -> Alcotest.(check bool) "positive gas" true (gas > 0))
    gas_events;
  let attributed = List.fold_left (fun a (_, g) -> a + g) 0 gas_events in
  Alcotest.(check bool) "attributed gas below tx total" true
    (attributed < r.Chain.gas_used);
  (* amortization: a batched settlement is cheaper per proof than a
     single settlement, because the pairing is charged once per block *)
  let single_r =
    Escrow.settle escrow chain ~seller:alice ~deal_id:single_id ~k_c:single_k_c
      ~proof:single_pi
  in
  ok_status single_r;
  Alcotest.(check bool) "per-proof batch gas beats single settle" true
    (r.Chain.gas_used / 4 < single_r.Chain.gas_used)

let test_settle_batch_guards () =
  let chain = fresh_chain () in
  let escrow, entries = lock_parties chain (batch_parties ()) in
  let r = Escrow.settle_batch escrow chain ~seller:alice [] in
  failed_status r "settle-batch: empty batch";
  let r = Escrow.settle_batch escrow chain ~seller:bob entries in
  failed_status r "settle-batch: not the seller";
  let id0, k_c0, pi0 = List.hd entries in
  let r =
    Escrow.settle_batch escrow chain ~seller:alice [ (id0 + 999, k_c0, pi0) ]
  in
  failed_status r "settle-batch: no such deal";
  (* a valid entry repeated in one block must revert, not pay twice *)
  let before = Chain.balance chain alice in
  let r =
    Escrow.settle_batch escrow chain ~seller:alice
      [ (id0, k_c0, pi0); (id0, k_c0, pi0) ]
  in
  failed_status r "settle-batch: duplicate deal in batch";
  Alcotest.(check int) "duplicate batch pays gas only, no credit"
    (before - r.Chain.gas_used)
    (Chain.balance chain alice);
  let d = Option.get (Escrow.deal escrow id0) in
  Alcotest.(check bool) "deal still locked after duplicate batch" true
    (d.Escrow.status = Escrow.Locked);
  (* still all settleable after the failed attempts *)
  ok_status (Escrow.settle_batch escrow chain ~seller:alice entries)

(* ------------------------------------------------------------------ *)
(* Mempool + parallel block production (ISSUE 8): nonce ordering,      *)
(* replacement, gap holdback, and parallel-vs-sequential determinism.  *)
(* ------------------------------------------------------------------ *)

module Tx = Zkdet_chain.Tx
module Mempool = Zkdet_chain.Mempool
module Pool = Zkdet_parallel.Pool

(* A transfer through the env accessors, visible to conflict tracking. *)
let transfer_tx ~sender ~nonce ~to_ ~amount =
  Tx.make ~sender ~nonce ~label:"bank:transfer" ~contract:"bank"
    ~calldata:(to_ ^ "/" ^ string_of_int amount)
    (fun env ->
      (match Chain.env_debit env sender amount with
      | Ok () -> ()
      | Error e -> raise (Chain.Revert (Chain.error_to_string e)));
      Chain.env_credit env to_ amount)

(* A counter bump on a shared storage slot: every instance conflicts. *)
let bump_tx ~sender ~nonce ~slot =
  Tx.make ~sender ~nonce ~label:"ctr:bump" ~contract:"ctr"
    ~calldata:slot
    (fun env ->
      let n =
        match Chain.env_storage_get env ~contract:"ctr" ~key:slot with
        | Some v -> int_of_string v
        | None -> 0
      in
      Chain.env_storage_set env ~contract:"ctr" ~key:slot
        ~value:(string_of_int (n + 1)))

let admit_ok = function
  | Mempool.Admitted | Mempool.Replaced _ -> ()
  | a -> Alcotest.failf "submit refused: %s" (Mempool.admit_to_string a)

let test_mempool_nonce_gap () =
  let chain = fresh_chain () in
  admit_ok (Chain.submit chain (transfer_tx ~sender:alice ~nonce:0 ~to_:bob ~amount:10));
  (* nonce 2 with 1 missing: held back, not dropped *)
  admit_ok (Chain.submit chain (transfer_tx ~sender:alice ~nonce:2 ~to_:bob ~amount:30));
  let b1 = Chain.produce_block chain in
  Alcotest.(check int) "only the contiguous run seals" 1
    (List.length b1.Chain.tx_hashes);
  Alcotest.(check int) "gapped tx still pooled" 1 (Chain.mempool_size chain);
  Alcotest.(check int) "account nonce advanced once" 1
    (Chain.account_nonce chain alice);
  (* filling the gap releases the held tx, in nonce order *)
  admit_ok (Chain.submit chain (transfer_tx ~sender:alice ~nonce:1 ~to_:bob ~amount:20));
  let b2 = Chain.produce_block chain in
  Alcotest.(check int) "both seal once the gap fills" 2
    (List.length b2.Chain.tx_hashes);
  Alcotest.(check int) "pool drained" 0 (Chain.mempool_size chain);
  Alcotest.(check int) "all three transfers applied" 60
    (Chain.balance chain bob - 100_000_000)

let test_mempool_stale_and_replacement () =
  let chain = fresh_chain () in
  (* the direct path consumes account nonce 0 *)
  ok_status (Chain.execute chain ~sender:alice ~label:"noop" (fun _ -> ()));
  (match Chain.submit chain (transfer_tx ~sender:alice ~nonce:0 ~to_:bob ~amount:1) with
  | Mempool.Rejected_stale { expected } ->
    Alcotest.(check int) "expected nonce" 1 expected
  | a -> Alcotest.failf "stale nonce not rejected: %s" (Mempool.admit_to_string a));
  (* same (sender, nonce) replaces: last submission wins *)
  let first = transfer_tx ~sender:alice ~nonce:1 ~to_:bob ~amount:111 in
  admit_ok (Chain.submit chain first);
  (match
     Chain.submit chain (transfer_tx ~sender:alice ~nonce:1 ~to_:carol ~amount:222)
   with
  | Mempool.Replaced old ->
    Alcotest.(check string) "replaced hash names the loser" (Tx.hash first) old
  | a -> Alcotest.failf "expected replacement: %s" (Mempool.admit_to_string a));
  Alcotest.(check int) "one pooled tx after replacement" 1
    (Chain.mempool_size chain);
  let carol_before = Chain.balance chain carol in
  let bob_before = Chain.balance chain bob in
  ignore (Chain.produce_block chain);
  Alcotest.(check int) "replacement executed" (carol_before + 222)
    (Chain.balance chain carol);
  Alcotest.(check int) "replaced tx never ran" bob_before (Chain.balance chain bob)

let test_mempool_capacity () =
  let chain = Chain.create ~mempool_capacity:2 () in
  Chain.faucet chain alice 1_000_000;
  admit_ok (Chain.submit chain (bump_tx ~sender:alice ~nonce:0 ~slot:"a"));
  admit_ok (Chain.submit chain (bump_tx ~sender:alice ~nonce:1 ~slot:"a"));
  (match Chain.submit chain (bump_tx ~sender:alice ~nonce:2 ~slot:"a") with
  | Mempool.Rejected_full -> ()
  | a -> Alcotest.failf "expected pool-full: %s" (Mempool.admit_to_string a));
  (* replacement is allowed even at capacity *)
  (match Chain.submit chain (bump_tx ~sender:alice ~nonce:1 ~slot:"b") with
  | Mempool.Replaced _ -> ()
  | a -> Alcotest.failf "replacement at capacity refused: %s"
           (Mempool.admit_to_string a))

let test_failed_tx_consumes_nonce () =
  let chain = fresh_chain () in
  let failing =
    Tx.make ~sender:alice ~nonce:0 ~label:"fail" ~contract:"ctr"
      (fun _ -> raise (Chain.Revert "boom"))
  in
  admit_ok (Chain.submit chain failing);
  admit_ok (Chain.submit chain (bump_tx ~sender:alice ~nonce:1 ~slot:"s"));
  let b = Chain.produce_block chain in
  Alcotest.(check int) "both sealed" 2 (List.length b.Chain.tx_hashes);
  Alcotest.(check int) "failed tx still consumed its nonce" 2
    (Chain.account_nonce chain alice);
  let r = Option.get (Chain.receipt chain (Tx.hash failing)) in
  failed_status r "boom";
  Alcotest.(check (option string)) "the successor still ran" (Some "1")
    (Chain.storage_get chain ~contract:"ctr" ~key:"s")

(* Run the same mixed workload (disjoint transfers + colliding counter
   bumps) at several domain counts and require identical final state. *)
let parallel_state_hash_domains = [ 1; 2; 4 ]

let run_mixed_workload ~domains =
  Pool.with_domains domains @@ fun () ->
  let chain = Chain.create () in
  let senders =
    Array.init 8 (fun i -> Chain.Address.of_seed (Printf.sprintf "par/%d" i))
  in
  Array.iter (fun a -> Chain.faucet chain a 1_000_000) senders;
  for round = 0 to 3 do
    Array.iteri
      (fun i s ->
        let tx =
          if i mod 2 = 0 then
            (* disjoint: each even sender pays its own counterpart *)
            transfer_tx ~sender:s ~nonce:round
              ~to_:(Chain.Address.of_seed (Printf.sprintf "par-dst/%d" i))
              ~amount:(100 + i)
          else
            (* colliding: all odd senders bump the same slot *)
            bump_tx ~sender:s ~nonce:round ~slot:"shared"
        in
        admit_ok (Chain.submit chain tx))
      senders;
    ignore (Chain.produce_block chain)
  done;
  Alcotest.(check (option string)) "every bump committed" (Some "16")
    (Chain.storage_get chain ~contract:"ctr" ~key:"shared");
  Chain.state_hash chain

let test_parallel_vs_sequential_state () =
  match List.map (fun d -> run_mixed_workload ~domains:d) parallel_state_hash_domains with
  | [] -> assert false
  | h :: rest ->
    List.iteri
      (fun i h' ->
        Alcotest.(check string)
          (Printf.sprintf "state hash identical at %d domain(s)"
             (List.nth parallel_state_hash_domains (i + 1)))
          h h')
      rest

let test_produce_block_fees () =
  let chain = fresh_chain () in
  let before = Chain.balance chain alice in
  admit_ok (Chain.submit chain (transfer_tx ~sender:alice ~nonce:0 ~to_:bob ~amount:5_000));
  ignore (Chain.produce_block chain);
  let r =
    Option.get
      (Chain.receipt chain
         (Tx.hash (transfer_tx ~sender:alice ~nonce:0 ~to_:bob ~amount:5_000)))
  in
  ok_status r;
  Alcotest.(check int) "debit + fee both settled"
    (before - 5_000 - r.Chain.gas_used)
    (Chain.balance chain alice);
  Alcotest.(check bool) "chain validates" true (Chain.validate chain)

let () =
  Alcotest.run "zkdet_chain"
    [ ( "chain",
        [ Alcotest.test_case "accounts and fees" `Quick test_accounts_and_fees;
          Alcotest.test_case "revert still pays" `Quick test_revert_still_pays;
          Alcotest.test_case "revert discards events" `Quick
            test_revert_discards_events;
          Alcotest.test_case "out of gas" `Quick test_out_of_gas;
          Alcotest.test_case "blocks and validation" `Quick test_blocks_and_validation;
          Alcotest.test_case "block gas limit" `Quick test_block_gas_limit ] );
      ( "erc721",
        [ Alcotest.test_case "lifecycle" `Quick test_erc721_lifecycle;
          Alcotest.test_case "transformations" `Quick test_erc721_transformations ] );
      ( "exchange-contracts",
        [ Alcotest.test_case "zkcp key disclosure" `Quick test_zkcp_key_disclosure;
          Alcotest.test_case "zkcp refund" `Quick test_zkcp_refund;
          Alcotest.test_case "zkcp dispute timeout" `Quick test_zkcp_dispute_timeout;
          Alcotest.test_case "zkcp double claim" `Quick test_zkcp_double_claim;
          Alcotest.test_case "clock auction" `Quick test_auction;
          Alcotest.test_case "gas table shape" `Quick test_gas_table_shape ] );
      ( "settle-batch",
        [ Alcotest.test_case "exact accounting" `Quick
            test_settle_batch_accounting;
          Alcotest.test_case "all-or-nothing revert, no event leakage" `Quick
            test_settle_batch_all_or_nothing;
          Alcotest.test_case "per-proof gas attribution" `Quick
            test_settle_batch_gas_attribution;
          Alcotest.test_case "guards" `Quick test_settle_batch_guards ] );
      ( "mempool",
        [ Alcotest.test_case "nonce gap holdback" `Quick test_mempool_nonce_gap;
          Alcotest.test_case "stale rejection and replacement" `Quick
            test_mempool_stale_and_replacement;
          Alcotest.test_case "capacity" `Quick test_mempool_capacity;
          Alcotest.test_case "failed tx consumes nonce" `Quick
            test_failed_tx_consumes_nonce ] );
      ( "parallel-blocks",
        [ Alcotest.test_case "parallel vs sequential state hash" `Quick
            test_parallel_vs_sequential_state;
          Alcotest.test_case "produce_block fee accounting" `Quick
            test_produce_block_fees ] ) ]
