(* End-to-end tests of the paper's protocols: the generic data
   transformation protocol (§IV-B, Thm 5.1), the key-secure exchange
   (§IV-F, Thm 5.2) with fairness failure injection, the ZKCP baseline and
   its key-disclosure flaw, and the full marketplace pipeline. *)

module Fr = Zkdet_field.Bn254.Fr
module Env = Zkdet_core.Env
module Circuits = Zkdet_core.Circuits
module Transform = Zkdet_core.Transform
module Exchange = Zkdet_core.Exchange
module Zkcp = Zkdet_core.Zkcp
module Marketplace = Zkdet_core.Marketplace
module Storage = Zkdet_storage.Storage
module Chain = Zkdet_chain.Chain
module Escrow = Zkdet_contracts.Escrow
module Erc721 = Zkdet_contracts.Erc721
module Poseidon = Zkdet_poseidon.Poseidon

(* One shared proving environment (universal setup) for the whole suite. *)
let env = lazy (Env.create ~log2_max_gates:13 ())

let rng = Test_util.rng ~salt:"core-protocols" ()
let dataset n = Array.init n (fun i -> Fr.of_int ((7 * i) + 3))

(* ---- sealing / encryption ---- *)

let test_seal_roundtrip () =
  let data = dataset 5 in
  let s = Transform.seal ~st:rng data in
  let back =
    Transform.decrypt ~key:s.Transform.key ~nonce:s.Transform.nonce
      s.Transform.ciphertext
  in
  Alcotest.(check bool) "decrypt(seal) = id" true (Array.for_all2 Fr.equal data back);
  Alcotest.(check bool) "ciphertext differs from plaintext" false
    (Fr.equal s.Transform.ciphertext.(0) data.(0))

let test_encryption_proof () =
  let env = Lazy.force env in
  let s = Transform.seal ~st:rng (dataset 2) in
  let pi_e = Transform.prove_encryption env s in
  Alcotest.(check bool) "pi_e verifies" true
    (Transform.verify_encryption env ~nonce:s.Transform.nonce
       ~c_d:s.Transform.c_d ~c_k:s.Transform.c_k
       ~ciphertext:s.Transform.ciphertext pi_e);
  (* integrity (Thm 5.1): a mismatched commitment must be rejected *)
  Alcotest.(check bool) "wrong c_d rejected" false
    (Transform.verify_encryption env ~nonce:s.Transform.nonce
       ~c_d:(Fr.random rng) ~c_k:s.Transform.c_k
       ~ciphertext:s.Transform.ciphertext pi_e);
  (* a tampered ciphertext must be rejected *)
  let bad_ct = Array.copy s.Transform.ciphertext in
  bad_ct.(0) <- Fr.add bad_ct.(0) Fr.one;
  Alcotest.(check bool) "tampered ct rejected" false
    (Transform.verify_encryption env ~nonce:s.Transform.nonce
       ~c_d:s.Transform.c_d ~c_k:s.Transform.c_k ~ciphertext:bad_ct pi_e)

(* ---- transformations ---- *)

let test_duplication () =
  let env = Lazy.force env in
  let src = Transform.seal ~st:rng (dataset 2) in
  let dst, link = Transform.duplicate env src in
  Alcotest.(check bool) "same content" true
    (Array.for_all2 Fr.equal src.Transform.data dst.Transform.data);
  Alcotest.(check bool) "fresh key" false
    (Fr.equal src.Transform.key dst.Transform.key);
  Alcotest.(check bool) "fresh commitment" false
    (Fr.equal src.Transform.c_d dst.Transform.c_d);
  Alcotest.(check bool) "pi_t verifies" true
    (Transform.verify_link env ~n_duplication:2 link);
  (* wrong structural size must fail *)
  Alcotest.(check bool) "wrong n rejected" false
    (Transform.verify_link env ~n_duplication:3 link)

let test_aggregation () =
  let env = Lazy.force env in
  let s1 = Transform.seal ~st:rng [| Fr.of_int 1 |] in
  let s2 = Transform.seal ~st:rng [| Fr.of_int 2 |] in
  let dst, link = Transform.aggregate env [ s1; s2 ] in
  Alcotest.(check int) "concatenated size" 2 (Transform.size dst);
  Alcotest.(check bool) "order preserved" true
    (Fr.equal dst.Transform.data.(0) (Fr.of_int 1)
    && Fr.equal dst.Transform.data.(1) (Fr.of_int 2));
  Alcotest.(check bool) "pi_t verifies" true (Transform.verify_link env link);
  (* swapping source commitments must fail (order matters) *)
  let swapped =
    { link with Transform.src_commitments = List.rev link.Transform.src_commitments }
  in
  Alcotest.(check bool) "swapped sources rejected" false
    (Transform.verify_link env swapped)

let test_partition () =
  let env = Lazy.force env in
  let src = Transform.seal ~st:rng (dataset 2) in
  let parts, link = Transform.partition env src ~sizes:[ 1; 1 ] in
  Alcotest.(check int) "two parts" 2 (List.length parts);
  (match parts with
  | [ p1; p2 ] ->
    Alcotest.(check bool) "exhaustive" true
      (Fr.equal p1.Transform.data.(0) src.Transform.data.(0)
      && Fr.equal p2.Transform.data.(0) src.Transform.data.(1))
  | _ -> Alcotest.fail "expected 2 parts");
  Alcotest.(check bool) "pi_t verifies" true (Transform.verify_link env link);
  Alcotest.check_raises "sizes must sum"
    (Invalid_argument "Transform.partition: sizes must sum to the source size")
    (fun () -> ignore (Transform.partition env src ~sizes:[ 1; 2 ]))

let test_processing () =
  let env = Lazy.force env in
  let src = Transform.seal ~st:rng (dataset 2) in
  let dst, link = Transform.process env src ~spec:Circuits.sum_spec in
  Alcotest.(check int) "sum output size" 1 (Transform.size dst);
  Alcotest.(check bool) "sum value" true
    (Fr.equal dst.Transform.data.(0)
       (Array.fold_left Fr.add Fr.zero src.Transform.data));
  Alcotest.(check bool) "pi_t verifies" true (Transform.verify_link env link);
  (* a forged destination commitment must fail *)
  let forged = { link with Transform.dst_commitments = [ Fr.random rng ] } in
  Alcotest.(check bool) "forged dst rejected" false
    (Transform.verify_link env forged)

let test_proof_chain () =
  let env = Lazy.force env in
  let src = Transform.seal ~st:rng (dataset 2) in
  let dup, l1 = Transform.duplicate env src in
  let _summed, l2 = Transform.process env dup ~spec:Circuits.sum_spec in
  let chain = [ l1; l2 ] in
  Alcotest.(check bool) "chain verifies from root" true
    (Transform.verify_chain env ~roots:[ src.Transform.c_d ] ~dup_sizes:[ 2 ] chain);
  (* a chain from an unknown root must fail *)
  Alcotest.(check bool) "unknown root rejected" false
    (Transform.verify_chain env ~roots:[ Fr.random rng ] ~dup_sizes:[ 2 ] chain);
  (* out-of-order links break the commitment flow *)
  Alcotest.(check bool) "reordered chain rejected" false
    (Transform.verify_chain env ~roots:[ src.Transform.c_d ] ~dup_sizes:[ 2 ]
       [ l2; l1 ])

(* ---- key-secure exchange (§IV-F) ---- *)

let test_exchange_honest () =
  let env = Lazy.force env in
  let data = dataset 2 in
  let s = Transform.seal ~st:rng data in
  let predicate = Circuits.Sum_equals (Array.fold_left Fr.add Fr.zero data) in
  let offer = Exchange.make_offer s ~predicate ~price:1000 in
  (* phase 1 *)
  let pi_p = Exchange.prove_validation env s predicate in
  Alcotest.(check bool) "buyer accepts pi_p" true
    (Exchange.verify_validation env offer pi_p);
  let k_v, h_v = Exchange.buyer_blinding ~st:rng () in
  (* phase 2 *)
  let k_c, pi_k = Exchange.prove_key env s ~k_v in
  Alcotest.(check bool) "arbiter accepts pi_k" true
    (Exchange.verify_key env ~k_c ~c_k:offer.Exchange.c_k ~h_v pi_k);
  (* buyer recovers exactly the promised data *)
  let recovered = Exchange.recover offer ~k_c ~k_v in
  Alcotest.(check bool) "recovered = data" true (Array.for_all2 Fr.equal data recovered);
  Alcotest.(check bool) "recovered matches ciphertext" true
    (Exchange.recovered_matches offer ~k_c ~k_v recovered);
  (* the on-chain k_c alone does NOT decrypt: a third party without k_v
     gets garbage (key secrecy, the paper's core improvement) *)
  let garbage = Transform.decrypt ~key:k_c ~nonce:offer.Exchange.nonce offer.Exchange.ciphertext in
  Alcotest.(check bool) "k_c alone decrypts nothing" false
    (Array.for_all2 Fr.equal data garbage)

let test_exchange_buyer_fairness () =
  (* Thm 5.2 (buyer fairness): a seller cannot get paid while conveying a
     wrong key. A mismatched k_c makes the public inputs differ from what
     pi_k proves, so the arbiter rejects. *)
  let env = Lazy.force env in
  let s = Transform.seal ~st:rng (dataset 2) in
  let k_v, h_v = Exchange.buyer_blinding ~st:rng () in
  let k_c, pi_k = Exchange.prove_key env s ~k_v in
  let bad_k_c = Fr.add k_c Fr.one in
  Alcotest.(check bool) "mismatched k_c rejected" false
    (Exchange.verify_key env ~k_c:bad_k_c ~c_k:s.Transform.c_k ~h_v pi_k);
  (* nor can the seller target a different buyer hash *)
  Alcotest.(check bool) "mismatched h_v rejected" false
    (Exchange.verify_key env ~k_c ~c_k:s.Transform.c_k ~h_v:(Fr.random rng) pi_k)

let test_exchange_seller_fairness () =
  (* Thm 5.2 (seller fairness): the seller aborts when the buyer's k_v
     does not match the locked h_v — and without settlement the buyer
     learns nothing beyond phi. *)
  let s = Transform.seal ~st:rng (dataset 2) in
  let k_v, h_v = Exchange.buyer_blinding ~st:rng () in
  let fake_k_v = Fr.random rng in
  (* seller-side check before phase 2 *)
  Alcotest.(check bool) "seller detects fake k_v" false
    (Fr.equal (Poseidon.hash [ fake_k_v ]) h_v);
  Alcotest.(check bool) "honest k_v passes" true
    (Fr.equal (Poseidon.hash [ k_v ]) h_v);
  (* without k the ciphertext is indistinguishable from noise to the buyer *)
  let wrong = Transform.decrypt ~key:fake_k_v ~nonce:s.Transform.nonce s.Transform.ciphertext in
  Alcotest.(check bool) "no key, no data" false
    (Array.for_all2 Fr.equal s.Transform.data wrong)

(* ---- ZKCP baseline and its flaw (§III-C) ---- *)

let test_zkcp_baseline () =
  let env = Lazy.force env in
  let data = dataset 2 in
  let s = Transform.seal ~st:rng data in
  let predicate = Circuits.Trivial in
  let offer = Zkcp.make_offer s ~predicate ~price:1000 in
  let proof = Zkcp.prove env s predicate in
  Alcotest.(check bool) "zkcp proof verifies" true (Zkcp.verify env offer proof);
  (* wrong hash lock rejected *)
  Alcotest.(check bool) "wrong h rejected" false
    (Zkcp.verify env { offer with Zkcp.h = Fr.random rng } proof);
  (* THE FLAW: after Open, k is public; anyone decrypts. *)
  let stolen = Zkcp.third_party_decrypt offer ~disclosed_key:s.Transform.key in
  Alcotest.(check bool) "third party steals the data" true
    (Array.for_all2 Fr.equal data stolen)

(* ---- full marketplace pipeline ---- *)

let operator = Chain.Address.of_seed "operator"
let alice = Chain.Address.of_seed "alice"
let bob = Chain.Address.of_seed "bob"

let test_marketplace_end_to_end () =
  let env = Lazy.force env in
  let m = Marketplace.bootstrap env ~operator in
  (* Alice publishes a dataset. *)
  let token, sealed =
    match Marketplace.publish m ~owner:alice (dataset 2) with
    | Ok r -> r
    | Error e -> Alcotest.failf "publish failed: %s" e
  in
  (* A buyer audits the encryption proof straight from chain + storage. *)
  (match Marketplace.audit_provenance m ~auditor_id:"auditor" token with
  | Ok n -> Alcotest.(check int) "audited 1 token" 1 n
  | Error _ -> Alcotest.fail "audit failed");
  (* Alice derives: duplicate, then process the duplicate. *)
  let dup_token, dup_sealed =
    match Marketplace.derive m ~owner:alice ~parents:[ (token, sealed) ] `Duplicate with
    | Ok [ r ] -> r
    | Ok _ | Error _ -> Alcotest.fail "duplicate failed"
  in
  let proc_token, _ =
    match
      Marketplace.derive m ~owner:alice ~parents:[ (dup_token, dup_sealed) ]
        (`Process Circuits.sum_spec)
    with
    | Ok [ r ] -> r
    | Ok _ | Error _ -> Alcotest.fail "process failed"
  in
  (* The provenance audit re-verifies the whole chain: 3 tokens. *)
  (match Marketplace.audit_provenance m ~auditor_id:"auditor" proc_token with
  | Ok n -> Alcotest.(check int) "audited 3 tokens" 3 n
  | Error _ -> Alcotest.fail "provenance audit failed");
  (* Bob buys the original token through the key-secure exchange. *)
  let data = sealed.Transform.data in
  let predicate = Circuits.Sum_equals (Array.fold_left Fr.add Fr.zero data) in
  (match
     Marketplace.trade m ~seller:alice ~buyer:bob ~token_id:token ~sealed
       ~predicate ~price:50_000
   with
  | Ok recovered ->
    Alcotest.(check bool) "buyer got the data" true
      (Array.for_all2 Fr.equal data recovered)
  | Error _ -> Alcotest.fail "trade failed");
  (* ownership moved on-chain *)
  Alcotest.(check (option string)) "bob owns the token" (Some bob)
    (Zkdet_contracts.Erc721.owner_of m.Marketplace.nft token);
  Alcotest.(check bool) "chain still validates" true (Chain.validate m.Marketplace.chain)

let test_marketplace_tamper_detected () =
  let env = Lazy.force env in
  let m = Marketplace.bootstrap env ~operator in
  let token, _ =
    match Marketplace.publish m ~owner:alice (dataset 2) with
    | Ok r -> r
    | Error e -> Alcotest.failf "publish failed: %s" e
  in
  (* Corrupt the ciphertext block on the owner's storage node. *)
  let owner_node = Marketplace.node m ~id:alice in
  (match Zkdet_contracts.Erc721.token m.Marketplace.nft token with
  | Some tok -> (
    match Storage.get m.Marketplace.net owner_node tok.Zkdet_contracts.Erc721.uri with
    | Ok meta_str -> (
      match Marketplace.meta_of_string meta_str with
      | Some meta -> Storage.tamper owner_node meta.Marketplace.ct_cid
      | None -> Alcotest.fail "no meta")
    | Error _ -> Alcotest.fail "no meta blob")
  | None -> Alcotest.fail "no token");
  match Marketplace.audit_provenance m ~auditor_id:"fresh-auditor" token with
  | Error (`Storage _) -> ()
  | Ok _ -> Alcotest.fail "tampered ciphertext must fail the audit"
  | Error _ -> Alcotest.fail "expected a storage integrity failure"

(* The minter writes a token's manifest and parent list, so an audit must
   answer a malformed one with [`No_meta], never an exception. Each
   hostile token below reuses its parent's manifest, so its pi_e and
   commitments check out, and points [transform_proof] at the parent's
   pi_e, a proof that decodes. *)
let test_marketplace_hostile_manifest () =
  let env = Lazy.force env in
  let m = Marketplace.bootstrap env ~operator in
  let parent, _ =
    match Marketplace.publish m ~owner:alice (dataset 2) with
    | Ok r -> r
    | Error e -> Alcotest.failf "publish failed: %s" e
  in
  let auditor = Marketplace.node m ~id:"auditor" in
  let pmeta =
    match Marketplace.token_meta m auditor parent with
    | Ok meta -> meta
    | Error _ -> Alcotest.fail "no parent meta"
  in
  let mint ~prev_ids (meta : Marketplace.meta) =
    let uri =
      Storage.Cid.to_string
        (Storage.put m.Marketplace.net (Marketplace.node m ~id:alice)
           (Marketplace.meta_to_string meta))
    in
    match
      Erc721.mint_derived m.Marketplace.nft m.Marketplace.chain ~sender:alice
        ~prev_ids ~transform:Erc721.Partition ~uri
        ~key_commitment:meta.Marketplace.c_k
        ~data_commitment:meta.Marketplace.c_d ~proof_refs:[]
    with
    | Some id, _ -> id
    | None, _ -> Alcotest.fail "mint_derived refused the token"
  in
  let hostile =
    { pmeta with
      Marketplace.kind = "partition";
      src_sizes = [];
      transform_proof_cid = Some pmeta.Marketplace.enc_proof_cid }
  in
  (* Sizes other than the parent's ciphertext length (2) must be refused
     before any circuit is built for them. *)
  let pks_before = Hashtbl.length env.Env.pk_cache in
  List.iter
    (fun (name, token) ->
      match Marketplace.audit_provenance m ~auditor_id:"auditor" token with
      | Error `No_meta -> ()
      | Ok n -> Alcotest.failf "%s: audited Ok %d" name n
      | Error _ -> Alcotest.failf "%s: expected No_meta" name
      | exception ex -> Alcotest.failf "%s: raised %s" name (Printexc.to_string ex))
    [ ("partition without a source size", mint ~prev_ids:[ parent ] hostile);
      ( "processing without a source size",
        mint ~prev_ids:[ parent ] { hostile with kind = "processing:sum" } );
      ( "partition without a parent",
        mint ~prev_ids:[] { hostile with src_sizes = [ 2 ] } );
      ( "unknown kind",
        mint ~prev_ids:[ parent ] { hostile with kind = "shuffle"; src_sizes = [ 2 ] } );
      ( "partition into a negative part",
        mint ~prev_ids:[ parent ] { hostile with src_sizes = [ 2 ]; part_sizes = [ -1 ] } );
      ( "processing of a negative size",
        mint ~prev_ids:[ parent ] { hostile with kind = "processing:sum"; src_sizes = [ -1 ] } );
      ( "aggregation of a negative size",
        mint ~prev_ids:[ parent ] { hostile with kind = "aggregation"; src_sizes = [ -1 ] } );
      ( "processing of a size over the parent's",
        mint ~prev_ids:[ parent ] { hostile with kind = "processing:sum"; src_sizes = [ 1000 ] } ) ];
  Alcotest.(check int) "no proving key built" pks_before
    (Hashtbl.length env.Env.pk_cache)

(* Each partition of a parent proves its own pi_t over its own outputs: a
   second partition of the same parent must not join the first one's. *)
let test_marketplace_two_partitions () =
  let env = Lazy.force env in
  let m = Marketplace.bootstrap env ~operator in
  let parent =
    match Marketplace.publish m ~owner:alice (dataset 2) with
    | Ok r -> r
    | Error e -> Alcotest.failf "publish failed: %s" e
  in
  let partition sizes =
    match Marketplace.derive m ~owner:alice ~parents:[ parent ] (`Partition sizes) with
    | Ok ((child, _) :: _) -> child
    | Ok [] | Error _ -> Alcotest.fail "partition failed"
  in
  let first = partition [ 1; 1 ] in
  let second = partition [ 1; 1 ] in
  List.iter
    (fun (name, child) ->
      match Marketplace.audit_provenance m ~auditor_id:"auditor" child with
      | Ok n -> Alcotest.(check int) name 2 n
      | Error _ -> Alcotest.failf "%s: audit failed" name)
    [ ("child of the first partition", first); ("child of the second partition", second) ]

let test_escrow_fairness_onchain () =
  (* The malicious-seller path through the real contracts: settlement with
     a wrong k_c reverts inside the escrow, and the buyer can refund. *)
  let env = Lazy.force env in
  let m = Marketplace.bootstrap env ~operator in
  Chain.faucet m.Marketplace.chain alice 10_000_000;
  Chain.faucet m.Marketplace.chain bob 10_000_000;
  let s = Transform.seal ~st:rng (dataset 2) in
  let k_v, h_v = Exchange.buyer_blinding ~st:rng () in
  let deal_id, _ =
    Escrow.lock m.Marketplace.escrow m.Marketplace.chain ~buyer:bob ~seller:alice
      ~amount:77_777 ~h_v ~key_commitment:s.Transform.c_k ~timeout_blocks:1
  in
  let deal_id = Option.get deal_id in
  let k_c, pi_k = Exchange.prove_key env s ~k_v in
  let r =
    Escrow.settle m.Marketplace.escrow m.Marketplace.chain ~seller:alice ~deal_id
      ~k_c:(Fr.add k_c Fr.one) ~proof:pi_k
  in
  (match r.Chain.status with
  | Error (Chain.Revert "settle: invalid proof") -> ()
  | Error e -> Alcotest.failf "wrong revert: %s" (Chain.error_to_string e)
  | Ok () -> Alcotest.fail "bad k_c must revert");
  (* after the deadline the buyer recovers the funds *)
  ignore (Chain.mine m.Marketplace.chain);
  let before = Chain.balance m.Marketplace.chain bob in
  let r2 = Escrow.refund m.Marketplace.escrow m.Marketplace.chain ~buyer:bob ~deal_id in
  (match r2.Chain.status with
  | Ok () -> Alcotest.(check bool) "refunded" true (Chain.balance m.Marketplace.chain bob > before)
  | Error e -> Alcotest.failf "refund failed: %s" (Chain.error_to_string e));
  (* honest settlement on a fresh deal still works *)
  let deal2, _ =
    Escrow.lock m.Marketplace.escrow m.Marketplace.chain ~buyer:bob ~seller:alice
      ~amount:77_777 ~h_v ~key_commitment:s.Transform.c_k ~timeout_blocks:10
  in
  let r3 =
    Escrow.settle m.Marketplace.escrow m.Marketplace.chain ~seller:alice
      ~deal_id:(Option.get deal2) ~k_c ~proof:pi_k
  in
  match r3.Chain.status with
  | Ok () -> ()
  | Error e -> Alcotest.failf "honest settle failed: %s" (Chain.error_to_string e)

let () =
  Alcotest.run "zkdet_core"
    [ ( "sealing",
        [ Alcotest.test_case "seal/decrypt roundtrip" `Quick test_seal_roundtrip;
          Alcotest.test_case "pi_e prove/verify" `Slow test_encryption_proof ] );
      ( "transformations",
        [ Alcotest.test_case "duplication" `Slow test_duplication;
          Alcotest.test_case "aggregation" `Slow test_aggregation;
          Alcotest.test_case "partition" `Slow test_partition;
          Alcotest.test_case "processing" `Slow test_processing;
          Alcotest.test_case "proof chain" `Slow test_proof_chain ] );
      ( "exchange",
        [ Alcotest.test_case "honest two-phase exchange" `Slow test_exchange_honest;
          Alcotest.test_case "buyer fairness" `Slow test_exchange_buyer_fairness;
          Alcotest.test_case "seller fairness" `Quick test_exchange_seller_fairness;
          Alcotest.test_case "zkcp baseline + flaw" `Slow test_zkcp_baseline ] );
      ( "marketplace",
        [ Alcotest.test_case "publish/derive/audit/trade" `Slow test_marketplace_end_to_end;
          Alcotest.test_case "storage tamper detected" `Slow test_marketplace_tamper_detected;
          Alcotest.test_case "escrow fairness on-chain" `Slow test_escrow_fairness_onchain;
          Alcotest.test_case "hostile manifest audits as No_meta" `Slow
            test_marketplace_hostile_manifest;
          Alcotest.test_case "second partition keeps sibling audits" `Slow
            test_marketplace_two_partitions ] ) ]
