(* Tests for the extensions beyond the paper's core protocols: the
   FairSwap baseline (§VII comparison), DECO-style oracle attestations
   (§IV-F), and batched Plonk verification. *)

module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module Env = Zkdet_core.Env
module Transform = Zkdet_core.Transform
module Exchange = Zkdet_core.Exchange
module Fairswap = Zkdet_core.Fairswap
module Oracle = Zkdet_core.Oracle
module Circuits = Zkdet_core.Circuits
module Chain = Zkdet_chain.Chain
module Fairswap_escrow = Zkdet_contracts.Fairswap_escrow
module Merkle = Zkdet_circuit.Merkle
module Verifier = Zkdet_plonk.Verifier
module Preprocess = Zkdet_plonk.Preprocess

let rng = Test_util.rng ~salt:"extensions" ()
let env = lazy (Env.create ~log2_max_gates:13 ())

let alice = Chain.Address.of_seed "alice"
let bob = Chain.Address.of_seed "bob"

let fresh_chain () =
  let chain = Chain.create () in
  List.iter (fun a -> Chain.faucet chain a 100_000_000) [ alice; bob ];
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

(* ---- FairSwap ---- *)

let test_fairswap_honest () =
  let chain = fresh_chain () in
  let fs, _ = Fairswap_escrow.deploy chain ~deployer:alice in
  let data = Array.init 8 (fun i -> Fr.of_int (i * 10)) in
  let seller = Fairswap.seller_prepare ~st:rng data in
  let r_c, r_d = Fairswap.roots seller in
  let id, r =
    Fairswap_escrow.lock fs chain ~buyer:bob ~seller:alice ~amount:1_000_000
      ~root_ciphertext:r_c ~root_plaintext:r_d ~depth:seller.Fairswap.depth
      ~h_k:(Zkdet_poseidon.Poseidon.hash [ seller.Fairswap.key ])
      ~dispute_window:3
  in
  ok_status r;
  let id = Option.get id in
  ok_status (Fairswap_escrow.reveal_key fs chain ~seller:alice ~deal_id:id
               ~key:seller.Fairswap.key);
  (* the buyer decrypts and finds everything consistent *)
  (match
     Fairswap.buyer_check ~key:seller.Fairswap.key
       ~ciphertext:seller.Fairswap.ciphertext
       ~ciphertext_tree:seller.Fairswap.ciphertext_tree
       ~advertised_tree:seller.Fairswap.plaintext_tree
   with
  | None -> ()
  | Some _ -> Alcotest.fail "honest delivery has no misbehavior");
  let recovered = Fairswap.decrypt ~key:seller.Fairswap.key seller.Fairswap.ciphertext in
  Alcotest.(check bool) "buyer recovers the data" true
    (Array.for_all2 Fr.equal data recovered);
  (* finalize after the window *)
  for _ = 1 to 4 do
    ignore (Chain.mine chain)
  done;
  let before = Chain.balance chain alice in
  ok_status (Fairswap_escrow.finalize fs chain ~seller:alice ~deal_id:id);
  Alcotest.(check bool) "seller paid" true (Chain.balance chain alice > before);
  (* ...and, like ZKCP, the key is now public *)
  Alcotest.(check bool) "key disclosed on-chain" true
    (Fairswap_escrow.disclosed_key fs id <> None)

let test_fairswap_cheater_caught () =
  let chain = fresh_chain () in
  let fs, _ = Fairswap_escrow.deploy chain ~deployer:alice in
  let advertised = Array.init 8 (fun i -> Fr.of_int (1000 + i)) in
  let actual = Array.init 8 (fun i -> Fr.of_int i) in
  let seller = Fairswap.seller_cheat ~st:rng advertised actual in
  let r_c, r_d = Fairswap.roots seller in
  let id, _ =
    Fairswap_escrow.lock fs chain ~buyer:bob ~seller:alice ~amount:1_000_000
      ~root_ciphertext:r_c ~root_plaintext:r_d ~depth:seller.Fairswap.depth
      ~h_k:(Zkdet_poseidon.Poseidon.hash [ seller.Fairswap.key ])
      ~dispute_window:5
  in
  let id = Option.get id in
  ok_status (Fairswap_escrow.reveal_key fs chain ~seller:alice ~deal_id:id
               ~key:seller.Fairswap.key);
  let pom =
    match
      Fairswap.buyer_check ~key:seller.Fairswap.key
        ~ciphertext:seller.Fairswap.ciphertext
        ~ciphertext_tree:seller.Fairswap.ciphertext_tree
        ~advertised_tree:seller.Fairswap.plaintext_tree
    with
    | Some p -> p
    | None -> Alcotest.fail "cheating must be detectable"
  in
  let before = Chain.balance chain bob in
  let r = Fairswap_escrow.complain fs chain ~buyer:bob ~deal_id:id pom in
  ok_status r;
  Alcotest.(check bool) "buyer refunded" true (Chain.balance chain bob > before);
  (* a complaint against an honest delivery reverts *)
  let honest = Fairswap.seller_prepare ~st:rng actual in
  let hr_c, hr_d = Fairswap.roots honest in
  let id2, _ =
    Fairswap_escrow.lock fs chain ~buyer:bob ~seller:alice ~amount:1_000
      ~root_ciphertext:hr_c ~root_plaintext:hr_d ~depth:honest.Fairswap.depth
      ~h_k:(Zkdet_poseidon.Poseidon.hash [ honest.Fairswap.key ])
      ~dispute_window:5
  in
  let id2 = Option.get id2 in
  ok_status (Fairswap_escrow.reveal_key fs chain ~seller:alice ~deal_id:id2
               ~key:honest.Fairswap.key);
  let fake_pom =
    {
      Fairswap_escrow.leaf_index = 0;
      ciphertext_leaf = honest.Fairswap.ciphertext.(0);
      ciphertext_path = Merkle.prove_membership honest.Fairswap.ciphertext_tree 0;
      plaintext_leaf = actual.(0);
      plaintext_path = Merkle.prove_membership honest.Fairswap.plaintext_tree 0;
    }
  in
  let r2 = Fairswap_escrow.complain fs chain ~buyer:bob ~deal_id:id2 fake_pom in
  (match r2.Chain.status with
  | Error (Chain.Revert "complain: delivery was correct") -> ()
  | Error e -> Alcotest.failf "wrong revert: %s" (Chain.error_to_string e)
  | Ok () -> Alcotest.fail "complaint against honest delivery must revert")

(* Shared setup: a cheating seller with a revealed key, so a valid
   misbehavior proof exists. Returns (chain, escrow, deal id, pom). *)
let cheating_deal ~dispute_window =
  let chain = fresh_chain () in
  let fs, _ = Fairswap_escrow.deploy chain ~deployer:alice in
  let advertised = Array.init 8 (fun i -> Fr.of_int (1000 + i)) in
  let actual = Array.init 8 (fun i -> Fr.of_int i) in
  let seller = Fairswap.seller_cheat ~st:rng advertised actual in
  let r_c, r_d = Fairswap.roots seller in
  let id, _ =
    Fairswap_escrow.lock fs chain ~buyer:bob ~seller:alice ~amount:100_000
      ~root_ciphertext:r_c ~root_plaintext:r_d ~depth:seller.Fairswap.depth
      ~h_k:(Zkdet_poseidon.Poseidon.hash [ seller.Fairswap.key ])
      ~dispute_window
  in
  let id = Option.get id in
  ok_status (Fairswap_escrow.reveal_key fs chain ~seller:alice ~deal_id:id
               ~key:seller.Fairswap.key);
  let pom =
    match
      Fairswap.buyer_check ~key:seller.Fairswap.key
        ~ciphertext:seller.Fairswap.ciphertext
        ~ciphertext_tree:seller.Fairswap.ciphertext_tree
        ~advertised_tree:seller.Fairswap.plaintext_tree
    with
    | Some p -> p
    | None -> Alcotest.fail "cheating must be detectable"
  in
  (chain, fs, id, pom)

let test_fairswap_dispute_window_closes () =
  let chain, fs, id, pom = cheating_deal ~dispute_window:2 in
  (* the seller cannot take the money while the window is open *)
  failed_status (Fairswap_escrow.finalize fs chain ~seller:alice ~deal_id:id)
    "finalize: dispute window still open";
  for _ = 1 to 3 do
    ignore (Chain.mine chain)
  done;
  (* a late complaint is rejected even though the proof is valid... *)
  failed_status (Fairswap_escrow.complain fs chain ~buyer:bob ~deal_id:id pom)
    "complain: dispute window closed";
  (* ...and only the recorded seller can collect *)
  failed_status (Fairswap_escrow.finalize fs chain ~seller:bob ~deal_id:id)
    "finalize: not the seller";
  ok_status (Fairswap_escrow.finalize fs chain ~seller:alice ~deal_id:id);
  (* double claim: the deal is closed for everyone *)
  failed_status (Fairswap_escrow.finalize fs chain ~seller:alice ~deal_id:id)
    "finalize: key not revealed";
  failed_status (Fairswap_escrow.complain fs chain ~buyer:bob ~deal_id:id pom)
    "complain: no revealed key"

let test_fairswap_refund_double_claim () =
  let chain, fs, id, pom = cheating_deal ~dispute_window:5 in
  (* only the buyer may complain *)
  failed_status (Fairswap_escrow.complain fs chain ~buyer:alice ~deal_id:id pom)
    "complain: not the buyer";
  let before = Chain.balance chain bob in
  let rc = Fairswap_escrow.complain fs chain ~buyer:bob ~deal_id:id pom in
  ok_status rc;
  Alcotest.(check int) "refunded exactly once"
    (before + 100_000 - rc.Chain.gas_used)
    (Chain.balance chain bob);
  (* the refunded deal is closed: no second complaint, no seller payout *)
  failed_status (Fairswap_escrow.complain fs chain ~buyer:bob ~deal_id:id pom)
    "complain: no revealed key";
  for _ = 1 to 6 do
    ignore (Chain.mine chain)
  done;
  failed_status (Fairswap_escrow.finalize fs chain ~seller:alice ~deal_id:id)
    "finalize: key not revealed"

let test_fairswap_dispute_gas_grows () =
  (* The §VII claim ZKDET improves on: dispute gas grows with data size. *)
  let gas_for n =
    let chain = fresh_chain () in
    let fs, _ = Fairswap_escrow.deploy chain ~deployer:alice in
    let advertised = Array.init n (fun i -> Fr.of_int (5000 + i)) in
    let actual = Array.init n (fun i -> Fr.of_int i) in
    let seller = Fairswap.seller_cheat ~st:rng advertised actual in
    let r_c, r_d = Fairswap.roots seller in
    let id, _ =
      Fairswap_escrow.lock fs chain ~buyer:bob ~seller:alice ~amount:1_000
        ~root_ciphertext:r_c ~root_plaintext:r_d ~depth:seller.Fairswap.depth
        ~h_k:(Zkdet_poseidon.Poseidon.hash [ seller.Fairswap.key ])
        ~dispute_window:5
    in
    let id = Option.get id in
    ignore (Fairswap_escrow.reveal_key fs chain ~seller:alice ~deal_id:id
              ~key:seller.Fairswap.key);
    let pom =
      Option.get
        (Fairswap.buyer_check ~key:seller.Fairswap.key
           ~ciphertext:seller.Fairswap.ciphertext
           ~ciphertext_tree:seller.Fairswap.ciphertext_tree
           ~advertised_tree:seller.Fairswap.plaintext_tree)
    in
    let r = Fairswap_escrow.complain fs chain ~buyer:bob ~deal_id:id pom in
    ok_status r;
    r.Chain.gas_used
  in
  let g8 = gas_for 8 and g64 = gas_for 64 and g512 = gas_for 512 in
  Alcotest.(check bool) "gas grows with size" true (g8 < g64 && g64 < g512)

(* ---- oracle attestations ---- *)

let test_oracle_attestation () =
  let kp = Oracle.generate ~st:rng () in
  let c_d = Fr.random rng in
  let a = Oracle.attest ~st:rng kp ~source_label:"weather-api" ~commitment:c_d in
  Alcotest.(check bool) "valid attestation verifies" true
    (Oracle.verify_attestation kp.Oracle.public a);
  (* forgeries fail *)
  Alcotest.(check bool) "wrong key rejected" false
    (Oracle.verify_attestation (G1.random rng) a);
  Alcotest.(check bool) "altered commitment rejected" false
    (Oracle.verify_attestation kp.Oracle.public
       { a with Oracle.commitment = Fr.random rng });
  Alcotest.(check bool) "altered label rejected" false
    (Oracle.verify_attestation kp.Oracle.public
       { a with Oracle.source_label = "evil-api" })

let test_oracle_registry_roots () =
  let kp1 = Oracle.generate ~st:rng () and kp2 = Oracle.generate ~st:rng () in
  let reg = Oracle.Registry.create () in
  Oracle.Registry.register reg ~source_label:"sensors/paris" kp1.Oracle.public;
  Oracle.Registry.register reg ~source_label:"sensors/tokyo" kp2.Oracle.public;
  let c1 = Fr.random rng and c2 = Fr.random rng in
  let a1 = Oracle.attest ~st:rng kp1 ~source_label:"sensors/paris" ~commitment:c1 in
  let a2 = Oracle.attest ~st:rng kp2 ~source_label:"sensors/tokyo" ~commitment:c2 in
  Alcotest.(check bool) "both roots attested" true
    (Oracle.Registry.check_roots reg ~root_commitments:[ c1; c2 ] [ a1; a2 ]);
  (* a root with no attestation fails *)
  Alcotest.(check bool) "missing attestation" false
    (Oracle.Registry.check_roots reg ~root_commitments:[ c1; Fr.random rng ]
       [ a1; a2 ]);
  (* an attestation from an unregistered oracle fails *)
  let rogue = Oracle.generate ~st:rng () in
  let a3 = Oracle.attest ~st:rng rogue ~source_label:"sensors/rogue" ~commitment:c1 in
  Alcotest.(check bool) "unregistered oracle" false
    (Oracle.Registry.check_roots reg ~root_commitments:[ c1 ] [ a3 ])

let test_oracle_grounds_marketplace_provenance () =
  (* End-to-end root-of-trust: a registered oracle attests the source
     dataset's commitment; an auditor verifies the pi_e/pi_t chain AND
     that the chain's roots are oracle-attested. *)
  let env = Lazy.force env in
  let m = Zkdet_core.Marketplace.bootstrap env ~operator:alice in
  let data = [| Fr.of_int 17; Fr.of_int 18 |] in
  let token, sealed =
    match Zkdet_core.Marketplace.publish m ~owner:alice data with
    | Ok r -> r
    | Error e -> Alcotest.failf "publish: %s" e
  in
  let kp = Oracle.generate ~st:rng () in
  let reg = Oracle.Registry.create () in
  Oracle.Registry.register reg ~source_label:"sensors/lab" kp.Oracle.public;
  let attestation =
    Oracle.attest ~st:rng kp ~source_label:"sensors/lab"
      ~commitment:sealed.Transform.c_d
  in
  (* derive so the audited token is not itself the root *)
  let derived_token, _ =
    match
      Zkdet_core.Marketplace.derive m ~owner:alice ~parents:[ (token, sealed) ]
        `Duplicate
    with
    | Ok [ r ] -> r
    | Ok _ | Error _ -> Alcotest.fail "derive failed"
  in
  (match Zkdet_core.Marketplace.audit_provenance m ~auditor_id:"auditor" derived_token with
  | Ok n -> Alcotest.(check int) "chain audited" 2 n
  | Error _ -> Alcotest.fail "audit failed");
  (* the root commitment is the source token's c_d *)
  let auditor = Zkdet_core.Marketplace.node m ~id:"auditor" in
  let root_meta =
    match Zkdet_core.Marketplace.token_meta m auditor token with
    | Ok meta -> meta
    | Error _ -> Alcotest.fail "no root meta"
  in
  Alcotest.(check bool) "root attested by a trusted oracle" true
    (Oracle.Registry.check_roots reg
       ~root_commitments:[ root_meta.Zkdet_core.Marketplace.c_d ]
       [ attestation ]);
  Alcotest.(check bool) "unattested root rejected" false
    (Oracle.Registry.check_roots reg ~root_commitments:[ Fr.random rng ]
       [ attestation ])

(* ---- batched Plonk verification ---- *)

let test_batch_verification () =
  let env = Lazy.force env in
  (* three pi_k proofs for three different exchanges *)
  let make_item () =
    let s = Transform.seal ~st:rng [| Fr.random rng; Fr.random rng |] in
    let k_v, h_v = Exchange.buyer_blinding ~st:rng () in
    let k_c, proof = Exchange.prove_key env s ~k_v in
    (Exchange.key_vk env, Circuits.key_publics ~k_c ~c_k:s.Transform.c_k ~h_v, proof)
  in
  let items = [ make_item (); make_item (); make_item () ] in
  Alcotest.(check bool) "batch of 3 verifies" true
    (Verifier.verify_batch items);
  (* corrupting any one proof breaks the whole batch *)
  let corrupted =
    match items with
    | (vk, publics, proof) :: rest ->
      (vk, publics, { proof with Zkdet_plonk.Proof.eval_a = Fr.random rng }) :: rest
    | [] -> []
  in
  Alcotest.(check bool) "corrupted batch rejected" false
    (Verifier.verify_batch corrupted);
  (* wrong publics break it too *)
  let wrong_publics =
    match items with
    | (vk, publics, proof) :: rest ->
      let p = Array.copy publics in
      p.(0) <- Fr.random rng;
      (vk, p, proof) :: rest
    | [] -> []
  in
  Alcotest.(check bool) "wrong publics rejected" false
    (Verifier.verify_batch wrong_publics);
  Alcotest.(check bool) "empty batch is vacuously true" true
    (Verifier.verify_batch [])

let test_batch_mixed_circuits () =
  let env = Lazy.force env in
  (* a pi_k proof and a pi_e proof share the SRS: batchable together *)
  let s = Transform.seal ~st:rng [| Fr.of_int 4; Fr.of_int 5 |] in
  let k_v, h_v = Exchange.buyer_blinding ~st:rng () in
  let k_c, pi_k = Exchange.prove_key env s ~k_v in
  let pi_e = Transform.prove_encryption env s in
  let enc_pk = Env.proving_key env (Circuits.Encryption 2) in
  let items =
    [ (Exchange.key_vk env,
       Circuits.key_publics ~k_c ~c_k:s.Transform.c_k ~h_v, pi_k);
      (enc_pk.Preprocess.vk,
       Circuits.encryption_publics ~nonce:s.Transform.nonce ~c_d:s.Transform.c_d
         ~c_k:s.Transform.c_k ~ciphertext:s.Transform.ciphertext,
       pi_e) ]
  in
  Alcotest.(check bool) "mixed-circuit batch verifies" true
    (Verifier.verify_batch items)

let () =
  Alcotest.run "zkdet_extensions"
    [ ( "fairswap",
        [ Alcotest.test_case "honest exchange" `Quick test_fairswap_honest;
          Alcotest.test_case "cheater caught" `Quick test_fairswap_cheater_caught;
          Alcotest.test_case "dispute window closes" `Quick
            test_fairswap_dispute_window_closes;
          Alcotest.test_case "refund double claim" `Quick
            test_fairswap_refund_double_claim;
          Alcotest.test_case "dispute gas grows" `Quick test_fairswap_dispute_gas_grows ] );
      ( "oracle",
        [ Alcotest.test_case "attestation" `Quick test_oracle_attestation;
          Alcotest.test_case "registry root checks" `Quick test_oracle_registry_roots;
          Alcotest.test_case "grounds marketplace provenance" `Slow
            test_oracle_grounds_marketplace_provenance ] );
      ( "batch-verification",
        [ Alcotest.test_case "batch of pi_k" `Slow test_batch_verification;
          Alcotest.test_case "mixed circuits" `Slow test_batch_mixed_circuits ] ) ]
