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
module Gen = Zkdet_proptest.Gen
module Cs = Zkdet_plonk.Cs
module Gen_zk = Zkdet_proptest.Gen_zk
module Preprocess = Zkdet_plonk.Preprocess
module Telemetry = Zkdet_telemetry.Telemetry
module Report = Zkdet_telemetry.Telemetry.Report

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
  Alcotest.(check bool) "pi_t verifies" true (Transform.verify_link env link);
  (* wrong structural size must fail *)
  Alcotest.(check bool) "wrong n rejected" false
    (Transform.verify_link env { link with Transform.kind = Transform.Duplication 3 })

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
    (Transform.verify_link env forged);
  (* a registered function whose circuit outgrows the SRS (2^13 rows)
     at any size: its link answers false, and no key is built *)
  Circuits.register_processing
    (Circuits.pure_spec ~name:"test-over-srs" ~out_size:Fun.id
       ~apply:(fun cs s_ws ->
         for _ = 1 to 9_000 do
           ignore (Cs.mul cs s_ws.(0) s_ws.(0))
         done;
         s_ws)
       ~reference:Fun.id);
  let pks_before = Hashtbl.length env.Env.pk_cache in
  Alcotest.(check bool) "circuit over the SRS rejected" false
    (Transform.verify_link env
       { link with Transform.kind = Transform.Processing ("test-over-srs", 2) });
  Alcotest.(check int) "no proving key built" pks_before
    (Hashtbl.length env.Env.pk_cache)

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

(* A Sum_equals value is a public input, not structure: validations of
   the same size under different sums share one key, so trades after
   set-up build none.  No other test validates a 3-entry dataset. *)
let test_sum_predicates_share_a_key () =
  let env = Lazy.force env in
  let before = Hashtbl.length env.Env.pk_cache in
  List.iter
    (fun data ->
      let s = Transform.seal ~st:rng data in
      let predicate = Circuits.Sum_equals (Array.fold_left Fr.add Fr.zero data) in
      let pi_p = Exchange.prove_validation env s predicate in
      Alcotest.(check bool) "pi_p verifies" true
        (Exchange.verify_validation env (Exchange.make_offer s ~predicate ~price:1) pi_p))
    [ dataset 3; Array.map (Fr.add Fr.one) (dataset 3) ];
  Alcotest.(check int) "one key for both sums" (before + 1)
    (Hashtbl.length env.Env.pk_cache)

(* ---- hostile statements ---- *)

(* A verifier reads the sizes it checks from what it is handed: a link's
   kind, an offer's ciphertext and predicate.  Each hostile one must
   answer false, never raise, and set up no key. *)
let test_hostile_statements () =
  let env = Lazy.force env in
  let s = Transform.seal ~st:rng (dataset 2) in
  let _, link = Transform.duplicate env s in
  let pi_p = Exchange.prove_validation env s Circuits.Trivial in
  let zkcp = Zkcp.prove env s Circuits.Trivial in
  let offer = Exchange.make_offer s ~predicate:Circuits.Trivial ~price:1 in
  let zkcp_offer = Zkcp.make_offer s ~predicate:Circuits.Trivial ~price:1 in
  (* the honest offers verify, which computes both offer bounds *)
  Alcotest.(check bool) "honest pi_p" true (Exchange.verify_validation env offer pi_p);
  Alcotest.(check bool) "honest zkcp pi_p" true (Zkcp.verify env zkcp_offer zkcp);
  (* a registered function with no circuit over one entry *)
  Circuits.register_processing
    (Circuits.pure_spec ~name:"test-second-entry" ~out_size:(fun _ -> 1)
       ~apply:(fun _ s_ws -> [| s_ws.(1) |])
       ~reference:(fun d -> [| d.(1) |]));
  let pks_before = Hashtbl.length env.Env.pk_cache in
  let refused name verdict =
    match verdict () with
    | ok -> Alcotest.(check bool) name false ok
    | exception ex -> Alcotest.failf "%s raised %s" name (Printexc.to_string ex)
  in
  List.iter
    (fun kind ->
      refused
        (Circuits.cache_key (Circuits.Transform kind))
        (fun () -> Transform.verify_link env { link with Transform.kind }))
    [ Transform.Duplication (-1);
      Transform.Processing ("sum", -1);
      Transform.Partition (2, [ 3; -1 ]);
      Transform.Partition (1, [ 2 ]);
      Transform.Partition (2, [ 1 ]);
      Transform.Partition (2, [ 0; 2 ]);
      Transform.Duplication 0;
      Transform.Processing ("sum", 0);
      Transform.Partition (2, [ max_int; max_int; 4 ]);
      Transform.Processing ("unregistered", 2);
      Transform.Processing ("test-second-entry", 1) ];
  refused "pi_p of an offer bounding entries to -1 bits" (fun () ->
      Exchange.verify_validation env
        { offer with Exchange.predicate = Circuits.Entries_bounded (-1) }
        pi_p);
  (* An offer's length is the seller's choice: one over its family's
     bound is refused by an integer comparison, not a circuit build. *)
  let refused_cheaply name verdict =
    let before = Gc.allocated_bytes () in
    refused name verdict;
    let mb = (Gc.allocated_bytes () -. before) /. 1e6 in
    if mb >= 8. then Alcotest.failf "%s: allocated %.1f MB" name mb
  in
  List.iter
    (fun n ->
      let big = Array.make n Fr.one in
      refused_cheaply (Printf.sprintf "pi_p of a %d-entry offer" n) (fun () ->
          Exchange.verify_validation env { offer with Exchange.ciphertext = big } pi_p);
      refused_cheaply (Printf.sprintf "zkcp pi_p of a %d-entry offer" n) (fun () ->
          Zkcp.verify env { zkcp_offer with Zkcp.ciphertext = big } zkcp))
    [ 400; 2_000 ];
  Alcotest.(check int) "no key set up" pks_before (Hashtbl.length env.Env.pk_cache)

(* Each family's bound is the largest n whose circuit fits the SRS under
   [Trivial]. Every other predicate only adds rows, so at bound + 1 no
   predicate's circuit fits: the bound refuses nothing that could
   verify. *)
let test_offer_bounds () =
  let env = Lazy.force env in
  let fits statement =
    match Circuits.setup_circuit statement with
    | Some cs -> Preprocess.fits env.Env.srs (Cs.compile cs)
    | None -> Alcotest.failf "no circuit for %s" (Circuits.cache_key statement)
  in
  List.iter
    (fun (bound, family) ->
      let at_bound = family bound Circuits.Trivial in
      Alcotest.(check bool) (Circuits.cache_key at_bound ^ " fits") true (fits at_bound);
      List.iter
        (fun predicate ->
          let over = family (bound + 1) predicate in
          Alcotest.(check bool) (Circuits.cache_key over ^ " does not fit") false
            (fits over))
        [ Circuits.Trivial; Circuits.Sum_equals Fr.one; Circuits.Entries_bounded 8 ])
    [ (Env.max_validation env, fun n p -> Circuits.Validation (n, p));
      (Env.max_zkcp env, fun n p -> Circuits.Zkcp (n, p));
      (Env.max_dataset env, fun n _ -> Circuits.Encryption n) ]

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

(* ---- lineage audits of hand-minted tokens ---- *)

(* A token manifest written line by line over a real token's fields, so
   a test can mint what the typed writer never would. *)
let manifest_lines ?n ?ct (base : Marketplace.meta) ~kind ~pi_t ~src ~parts =
  String.concat "\n"
    [ "zkdet-meta-v1"; "kind:" ^ kind;
      "n:" ^ string_of_int (Option.value n ~default:base.Marketplace.n);
      "nonce:" ^ Fr.to_string base.Marketplace.nonce;
      "ct:" ^ Option.value ct ~default:base.Marketplace.ct_cid;
      "c_d:" ^ Fr.to_string base.Marketplace.c_d;
      "c_k:" ^ Fr.to_string base.Marketplace.c_k;
      "enc_proof:" ^ base.Marketplace.enc_proof_cid;
      "transform_proof:" ^ pi_t; "src_sizes:" ^ src; "part_sizes:" ^ parts ]

(* Mint [lines] as alice's token, with [base]'s commitments on chain and
   the chain's record [transform] of its derivation from [prev_ids]. *)
let mint_lines (m : Marketplace.t) (base : Marketplace.meta) ~prev_ids
    ~transform lines =
  let uri =
    Storage.Cid.to_string
      (Storage.put m.Marketplace.net (Marketplace.node m ~id:alice) lines)
  in
  let key_commitment = base.Marketplace.c_k
  and data_commitment = base.Marketplace.c_d in
  let minted, _ =
    match transform with
    | None ->
      Erc721.mint m.Marketplace.nft m.Marketplace.chain ~sender:alice
        ~recipient:alice ~uri ~key_commitment ~data_commitment ~proof_refs:[]
    | Some transform ->
      Erc721.mint_derived m.Marketplace.nft m.Marketplace.chain ~sender:alice
        ~prev_ids ~transform ~uri ~key_commitment ~data_commitment
        ~proof_refs:[]
  in
  match minted with
  | Some id -> id
  | None -> Alcotest.fail "the registry refused the token"

let publish_meta (m : Marketplace.t) data =
  match Marketplace.publish m ~owner:alice data with
  | Error e -> Alcotest.failf "publish failed: %s" e
  | Ok (id, sealed) -> (
    match Marketplace.token_meta m (Marketplace.node m ~id:"auditor") id with
    | Ok meta -> (id, sealed, meta)
    | Error _ -> Alcotest.fail "no manifest for a published token")

let verdict : (int, Marketplace.audit_failure) result -> string = function
  | Ok n -> Printf.sprintf "Ok %d" n
  | Error `No_token -> "No_token"
  | Error `No_meta -> "No_meta"
  | Error (`Storage _) -> "Storage"
  | Error `Commitment_mismatch -> "Commitment_mismatch"
  | Error (`Bad_encryption_proof id) -> Printf.sprintf "Bad_encryption_proof %d" id
  | Error (`Bad_transform_proof id) -> Printf.sprintf "Bad_transform_proof %d" id

let check_audit (m : Marketplace.t) name expected token =
  let got =
    match Marketplace.audit_provenance m ~auditor_id:"auditor" token with
    | r -> verdict r
    | exception ex -> "raised " ^ Printexc.to_string ex
  in
  Alcotest.(check string) name expected got

(* The minter writes a token's manifest and parent list, so an audit must
   answer a malformed one with [`No_meta], never an exception. Each
   hostile token below reuses its parent's manifest, so its pi_e and
   commitments check out, and points [transform_proof] at the parent's
   pi_e, a proof that decodes. The first three line sets fail in the
   manifest reader; the rest are typed and fail the audit's checks of
   the chain's kind, the parent count and the parent's length (2). *)
let test_marketplace_hostile_manifest () =
  let env = Lazy.force env in
  let m = Marketplace.bootstrap env ~operator in
  let parent, _, pmeta = publish_meta m (dataset 2) in
  let hostile ?(prev_ids = [ parent ]) ?(on_chain = Erc721.Partition) ~kind ~src
      ?(parts = "") ~readable () =
    let lines =
      manifest_lines pmeta ~kind ~pi_t:pmeta.Marketplace.enc_proof_cid ~src
        ~parts
    in
    Alcotest.(check bool) (kind ^ " lines readable") readable
      (Marketplace.meta_of_string lines <> None);
    mint_lines m pmeta ~prev_ids ~transform:(Some on_chain) lines
  in
  let processing = Erc721.Processing "sum" in
  (* Sizes other than the parent's ciphertext length (2) must be refused
     before any circuit is built for them. *)
  let pks_before = Hashtbl.length env.Env.pk_cache in
  List.iter
    (fun (name, token) -> check_audit m name "No_meta" token)
    [ ( "partition without a source size",
        hostile ~kind:"partition" ~src:"" ~parts:"1,1" ~readable:false () );
      ( "processing without a source size",
        hostile ~on_chain:processing ~kind:"processing:sum" ~src:""
          ~readable:false () );
      ( "partition without a parent",
        hostile ~prev_ids:[] ~kind:"partition" ~src:"2" ~parts:"1,1"
          ~readable:true () );
      ("unknown kind", hostile ~kind:"shuffle" ~src:"2" ~readable:false ());
      ( "partition into a negative part",
        hostile ~kind:"partition" ~src:"2" ~parts:"-1" ~readable:true () );
      ( "processing of a negative size",
        hostile ~on_chain:processing ~kind:"processing:sum" ~src:"-1"
          ~readable:true () );
      ( "aggregation of a negative size",
        hostile ~on_chain:Erc721.Aggregation ~kind:"aggregation" ~src:"-1"
          ~readable:true () );
      ( "processing of a size over the parent's",
        hostile ~on_chain:processing ~kind:"processing:sum" ~src:"1000"
          ~readable:true () ) ];
  Alcotest.(check int) "no proving key built" pks_before
    (Hashtbl.length env.Env.pk_cache)

(* The manifest's origin must be the chain's record of the token: two
   lineages whose every proof verifies, but whose manifest and chain
   disagree, audit as [`No_meta]. *)
let test_marketplace_lineage_forgeries () =
  let env = Lazy.force env in
  let m = Marketplace.bootstrap env ~operator in
  let parent, sealed, _ = publish_meta m (dataset 2) in
  (* A source manifest, with its own valid pi_e, minted as a duplicate of
     [parent]: no pi_t proves the derivation the chain records. *)
  let _, _, other = publish_meta m (dataset 2) in
  let no_pi_t =
    mint_lines m other ~prev_ids:[ parent ] ~transform:(Some Erc721.Duplication)
      (Marketplace.meta_to_string other)
  in
  check_audit m "duplicate without a pi_t" "No_meta" no_pi_t;
  (* A real duplicate with its genuine pi_t, minted as a processing. *)
  let copy =
    match Marketplace.derive m ~owner:alice ~parents:[ (parent, sealed) ] `Duplicate with
    | Ok [ (id, _) ] -> id
    | Ok _ | Error _ -> Alcotest.fail "duplicate failed"
  in
  check_audit m "the real duplicate" "Ok 2" copy;
  let copy_meta =
    match Marketplace.token_meta m (Marketplace.node m ~id:"auditor") copy with
    | Ok meta -> meta
    | Error _ -> Alcotest.fail "no manifest for the duplicate"
  in
  let relabelled =
    mint_lines m copy_meta ~prev_ids:[ parent ]
      ~transform:(Some (Erc721.Processing "logistic-regression"))
      (Marketplace.meta_to_string copy_meta)
  in
  check_audit m "duplicate recorded as a processing" "No_meta" relabelled

(* A minter chooses a token's ciphertext, and its length sizes the pi_e
   circuit: a length over the largest pi_e the env's SRS admits must be
   refused before any circuit is built, for the token and for a link
   from it.  Building either 5,000-element circuit allocates gigabytes,
   so each audit must stay far below that. *)
let test_marketplace_oversize_ciphertext () =
  let env = Lazy.force env in
  let m = Marketplace.bootstrap env ~operator in
  let _, _, real = publish_meta m (dataset 2) in
  let owner_node = Marketplace.node m ~id:alice in
  let big =
    Storage.Cid.to_string
      (Storage.put m.Marketplace.net owner_node
         (Storage.Codec.encode (Array.make 5_000 Fr.one)))
  in
  let pks_before = Hashtbl.length env.Env.pk_cache in
  let root =
    mint_lines m real ~prev_ids:[] ~transform:None
      (manifest_lines real ~n:5_000 ~ct:big ~kind:"source" ~pi_t:"-" ~src:""
         ~parts:"")
  in
  let audit_within_budget name expected token =
    let before = Gc.allocated_bytes () in
    check_audit m name expected token;
    let mb = (Gc.allocated_bytes () -. before) /. 1e6 in
    if mb > 256. then Alcotest.failf "%s: the audit allocated %.0f MB" name mb
  in
  audit_within_budget "oversize root"
    (Printf.sprintf "Bad_encryption_proof %d" root)
    root;
  let copy =
    mint_lines m real ~prev_ids:[ root ] ~transform:(Some Erc721.Duplication)
      (manifest_lines real ~kind:"duplication"
         ~pi_t:real.Marketplace.enc_proof_cid ~src:"5000" ~parts:"")
  in
  audit_within_budget "duplicate of the oversize root"
    (Printf.sprintf "Bad_transform_proof %d" copy)
    copy;
  Alcotest.(check int) "no proving key built" pks_before
    (Hashtbl.length env.Env.pk_cache)

(* ---- token manifests ---- *)

let meta_equal (a : Marketplace.meta) (b : Marketplace.meta) =
  a.Marketplace.n = b.Marketplace.n
  && Fr.equal a.Marketplace.nonce b.Marketplace.nonce
  && a.Marketplace.ct_cid = b.Marketplace.ct_cid
  && Fr.equal a.Marketplace.c_d b.Marketplace.c_d
  && Fr.equal a.Marketplace.c_k b.Marketplace.c_k
  && a.Marketplace.enc_proof_cid = b.Marketplace.enc_proof_cid
  && a.Marketplace.origin = b.Marketplace.origin

let gen_meta : Marketplace.meta Gen.t =
  let size = Gen.int_range (-3) 5_000 in
  let sizes = Gen.list_size (Gen.int_range 1 4) size in
  let cid = Gen.map Storage.Cid.of_bytes Gen.string in
  let kind =
    Gen.oneof
      [ Gen.map (fun n -> Transform.Duplication n) size;
        Gen.map (fun l -> Transform.Aggregation l) sizes;
        Gen.map2 (fun n l -> Transform.Partition (n, l)) size sizes;
        Gen.map2
          (fun name n -> Transform.Processing (name, n))
          (Gen.oneof_const [ "sum"; "logistic-regression"; ""; "a:b,c" ])
          size ]
  in
  let origin =
    Gen.oneof [ Gen.return None; Gen.map2 (fun k c -> Some (k, c)) kind cid ]
  in
  Gen.bind (Gen.triple size (Gen.triple Gen_zk.fr Gen_zk.fr Gen_zk.fr)
              (Gen.triple cid cid origin))
    (fun (n, (nonce, c_d, c_k), (ct_cid, enc_proof_cid, origin)) ->
      Gen.return
        { Marketplace.n; nonce; ct_cid; c_d; c_k; enc_proof_cid; origin })

let manifest_props =
  [ Test_util.prop ~count:200 "meta_of_string . meta_to_string = Some"
      Marketplace.meta_to_string gen_meta (fun m ->
        match Marketplace.meta_of_string (Marketplace.meta_to_string m) with
        | Some back -> meta_equal m back
        | None -> false) ]

(* Line sets no typed origin writes: the reader refuses each. *)
let test_manifest_reader_rejects () =
  let base =
    { Marketplace.n = 2; nonce = Fr.of_int 7; ct_cid = "ct"; c_d = Fr.of_int 11;
      c_k = Fr.of_int 13; enc_proof_cid = "pi_e"; origin = None }
  in
  List.iter
    (fun (name, kind, pi_t, src, parts) ->
      Alcotest.(check bool) name true
        (Marketplace.meta_of_string (manifest_lines base ~kind ~pi_t ~src ~parts)
        = None))
    [ ("unknown kind", "shuffle", "pi_t", "2", "");
      ("duplication without its size", "duplication", "pi_t", "", "");
      ("duplication of two sizes", "duplication", "pi_t", "2,2", "");
      ("aggregation without sizes", "aggregation", "pi_t", "", "");
      ("partition without parts", "partition", "pi_t", "2", "");
      ("partition without a source size", "partition", "pi_t", "", "1,1");
      ("processing without a source size", "processing:sum", "pi_t", "", "");
      ("processing with parts", "processing:sum", "pi_t", "2", "1,1");
      ("a size that is no number", "duplication", "pi_t", "two", "");
      ("a size written with a leading zero", "duplication", "pi_t", "02", "");
      ("a pi_t without a kind", "source", "pi_t", "", "");
      ("a source with sizes", "source", "-", "2", "");
      ("a kind without a pi_t", "duplication", "-", "2", "") ];
  Alcotest.(check bool) "the source lines read" true
    (Marketplace.meta_of_string
       (manifest_lines base ~kind:"source" ~pi_t:"-" ~src:"" ~parts:"")
    <> None);
  (* a decimal parse costs time quadratic in the digits: an element far
     longer than any canonical one is refused before it is parsed *)
  let overlong =
    String.split_on_char '\n' (Marketplace.meta_to_string base)
    |> List.map (fun l ->
           if String.starts_with ~prefix:"c_d:" l then
             "c_d:" ^ String.make 40_000 '9'
           else l)
    |> String.concat "\n"
  in
  let before = Gc.allocated_bytes () in
  Alcotest.(check bool) "an overlong field element" true
    (Marketplace.meta_of_string overlong = None);
  Alcotest.(check bool) "refused before it is parsed" true
    (Gc.allocated_bytes () -. before < 10e6);
  Alcotest.(check bool) "a line out of order" true
    (Marketplace.meta_of_string
       (String.concat "\n"
          (match String.split_on_char '\n' (Marketplace.meta_to_string base) with
          | magic :: kind :: n :: rest -> magic :: n :: kind :: rest
          | l -> l))
    = None)

(* Manifest text is what a token's URI hashes: the decimal lines of a
   fixed meta are pinned byte for byte (r - 1, 7^91 mod r and
   (10^7)^-1 mod r, computed outside this code base). *)
let test_manifest_golden () =
  let meta =
    { Marketplace.n = 4; nonce = Fr.neg Fr.one; ct_cid = "zb-ct";
      c_d = Fr.pow (Fr.of_int 7) 91; c_k = Fr.inv (Fr.of_int 10_000_000);
      enc_proof_cid = "zb-pi-e";
      origin = Some (Transform.Partition (4, [ 1; 3 ]), "zb-pi-t") }
  in
  let r_minus_1 =
    "21888242871839275222246405745257275088548364400416034343698204186575808495616"
  in
  let golden =
    String.concat "\n"
      [ "zkdet-meta-v1"; "kind:partition"; "n:4"; "nonce:" ^ r_minus_1;
        "ct:zb-ct";
        "c_d:14488614544729484848641669759044197273732940561746748976407352045114254703892";
        "c_k:19301155439129370535570425144274867882274863905599541039634491833282224837735";
        "enc_proof:zb-pi-e"; "transform_proof:zb-pi-t"; "src_sizes:4";
        "part_sizes:1,3" ]
  in
  Alcotest.(check string) "manifest text" golden (Marketplace.meta_to_string meta);
  (match Marketplace.meta_of_string golden with
  | Some m ->
    Alcotest.(check string) "reads back" golden (Marketplace.meta_to_string m)
  | None -> Alcotest.fail "the golden manifest must read");
  let with_c_d v =
    String.split_on_char '\n' golden
    |> List.map (fun l -> if String.starts_with ~prefix:"c_d:" l then "c_d:" ^ v else l)
    |> String.concat "\n"
  in
  let r =
    "21888242871839275222246405745257275088548364400416034343698204186575808495617"
  in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) name true (Marketplace.meta_of_string (with_c_d v) = None))
    [ ("a leading zero", "07");
      ("a leading zero on a full-width value", "0" ^ r_minus_1);
      ("the modulus", r);
      ("a value above the modulus", "21888242871839275222246405745257275088548364400416034343698204186575808495618");
      ("a 78-digit line", "1" ^ String.make 77 '0');
      ("an empty value", "");
      ("a non-digit", "12a") ];
  Alcotest.(check bool) "a 77-digit canonical value reads" true
    (Marketplace.meta_of_string (with_c_d r_minus_1) <> None)

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

(* ---- batched lineage audits ---- *)

(* One market holding an honest lineage of every kind: [a] published,
   [b], [c] and [d] duplicated down a chain from it (depth 3), [proc]
   its sum, [part] the first half of its partition, [agg] its
   aggregation with another source [x]. *)
type lineages = {
  lm : Marketplace.t;
  a : int;
  b : int;
  c : int;
  d : int;
  proc : int;
  part : int;
  x : int;
  agg : int;
}

let lineages =
  lazy
    (let env = Lazy.force env in
     let lm = Marketplace.bootstrap env ~operator in
     let publish data =
       match Marketplace.publish lm ~owner:alice data with
       | Ok r -> r
       | Error e -> Alcotest.failf "publish failed: %s" e
     in
     let derive parents op =
       match Marketplace.derive lm ~owner:alice ~parents op with
       | Ok (r :: _) -> r
       | Ok [] | Error _ -> Alcotest.fail "derive failed"
     in
     let a = publish (dataset 2) in
     let b = derive [ a ] `Duplicate in
     let c = derive [ b ] `Duplicate in
     let d = derive [ c ] `Duplicate in
     let proc = derive [ a ] (`Process Circuits.sum_spec) in
     let part = derive [ a ] (`Partition [ 1; 1 ]) in
     let x = publish (dataset 2) in
     let agg = derive [ a; x ] `Aggregate in
     { lm; a = fst a; b = fst b; c = fst c; d = fst d; proc = fst proc;
       part = fst part; x = fst x; agg = fst agg })

let lineage_meta (l : lineages) id =
  match Marketplace.token_meta l.lm (Marketplace.node l.lm ~id:"auditor") id with
  | Ok meta -> meta
  | Error _ -> Alcotest.fail "no manifest for a minted token"

(* A copy of the depth-2 lineage c <- b <- a minted from their manifests,
   each passed through [edit] with its walk position (c 0, b 1, a 2).
   Returns the copies' ids in walk order. *)
let copy_lineage (l : lineages) edit =
  let mint i id ~prev_ids ~transform =
    let meta = edit i (lineage_meta l id) in
    mint_lines l.lm meta ~prev_ids ~transform (Marketplace.meta_to_string meta)
  in
  let a = mint 2 l.a ~prev_ids:[] ~transform:None in
  let b = mint 1 l.b ~prev_ids:[ a ] ~transform:(Some Erc721.Duplication) in
  let c = mint 0 l.c ~prev_ids:[ b ] ~transform:(Some Erc721.Duplication) in
  [ c; b; a ]

(* The audit checks every proof of a lineage in one fold and names a
   failure only when the fold rejects: each wrong proof, alone or with
   others, must still be the first failure in walk order (each token's
   pi_e, then its pi_t; c, b, then a), and a structural failure is named
   only when no proof before it fails.  The wrong proofs are other
   tokens' (x's pi_e, d's pi_t): they decode, and their statements are
   the right ones. *)
let test_batched_audit_names () =
  let l = Lazy.force lineages in
  let other_pi_e = (lineage_meta l l.x).Marketplace.enc_proof_cid in
  let other_pi_t =
    match (lineage_meta l l.d).Marketplace.origin with
    | Some (_, cid) -> cid
    | None -> Alcotest.fail "a duplicate without a pi_t"
  in
  let missing = Storage.Cid.to_string (Storage.Cid.of_bytes "never stored") in
  let wrong_pi_e (mt : Marketplace.meta) =
    { mt with Marketplace.enc_proof_cid = other_pi_e }
  in
  let wrong_pi_t (mt : Marketplace.meta) =
    let origin = Option.map (fun (k, _) -> (k, other_pi_t)) mt.Marketplace.origin in
    { mt with Marketplace.origin }
  in
  let source (mt : Marketplace.meta) = { mt with Marketplace.origin = None } in
  let no_ct (mt : Marketplace.meta) = { mt with Marketplace.ct_cid = missing } in
  (* [edits] are (walk position, edit); the verdict names a position *)
  let case name edits expected =
    let ids =
      copy_lineage l (fun i mt ->
          List.fold_left (fun mt (j, f) -> if i = j then f mt else mt) mt edits)
    in
    check_audit l.lm name (expected ids) (List.hd ids)
  in
  let names failure i ids = Printf.sprintf "%s %d" failure (List.nth ids i) in
  case "an honest copy" [] (fun _ -> "Ok 3");
  List.iter
    (fun i ->
      case (Printf.sprintf "wrong pi_e at %d" i) [ (i, wrong_pi_e) ]
        (names "Bad_encryption_proof" i))
    [ 0; 1; 2 ];
  List.iter
    (fun i ->
      case (Printf.sprintf "wrong pi_t at %d" i) [ (i, wrong_pi_t) ]
        (names "Bad_transform_proof" i))
    [ 0; 1 ];
  case "wrong pi_t at 1 before wrong pi_e at 2"
    [ (2, wrong_pi_e); (1, wrong_pi_t) ]
    (names "Bad_transform_proof" 1);
  case "wrong pi_e at 1 before wrong pi_t at 1"
    [ (1, wrong_pi_t); (1, wrong_pi_e) ]
    (names "Bad_encryption_proof" 1);
  case "wrong pi_t at 0 before wrong pi_e at 1"
    [ (1, wrong_pi_e); (0, wrong_pi_t) ]
    (names "Bad_transform_proof" 0);
  case "wrong pi_e at 0 before No_meta at 1"
    [ (0, wrong_pi_e); (1, source) ]
    (names "Bad_encryption_proof" 0);
  case "wrong pi_t at 0 before No_meta at 1"
    [ (0, wrong_pi_t); (1, source) ]
    (names "Bad_transform_proof" 0);
  case "wrong pi_e at 0 before a missing ciphertext at 1"
    [ (0, wrong_pi_e); (1, no_ct) ]
    (names "Bad_encryption_proof" 0);
  case "No_meta at 0 before wrong pi_e at 1" [ (0, source); (1, wrong_pi_e) ]
    (fun _ -> "No_meta");
  case "a missing ciphertext at 1 before wrong pi_e at 2"
    [ (1, no_ct); (2, wrong_pi_e) ]
    (fun _ -> "Storage")

(* An honest audit verifies its whole lineage in one folded check: one
   [plonk.verify] span, counting every pi_e and pi_t. *)
let test_batched_audit_one_check () =
  let l = Lazy.force lineages in
  let rec verify_spans (spans : Report.span list) =
    List.fold_left
      (fun acc (s : Report.span) ->
        acc
        + (if s.Report.span_name = "plonk.verify" then s.Report.calls else 0)
        + verify_spans s.Report.children)
      0 spans
  in
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) @@ fun () ->
  List.iter
    (fun (name, token, tokens, proofs) ->
      Telemetry.reset ();
      check_audit l.lm name (Printf.sprintf "Ok %d" tokens) token;
      let r = Telemetry.snapshot () in
      Alcotest.(check int) (name ^ ": one plonk.verify span") 1
        (verify_spans r.Report.spans);
      Alcotest.(check (option int)) (name ^ ": plonk.verifies") (Some proofs)
        (Report.find_counter r "plonk.verifies"))
    [ ("duplication", l.b, 2, 3);
      ("aggregation", l.agg, 3, 4);
      ("partition", l.part, 2, 3);
      ("processing", l.proc, 2, 3);
      ("depth 3", l.d, 4, 7) ]

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
          Alcotest.test_case "processing" `Slow test_processing ] );
      ( "exchange",
        [ Alcotest.test_case "honest two-phase exchange" `Slow test_exchange_honest;
          Alcotest.test_case "buyer fairness" `Slow test_exchange_buyer_fairness;
          Alcotest.test_case "seller fairness" `Quick test_exchange_seller_fairness;
          Alcotest.test_case "zkcp baseline + flaw" `Slow test_zkcp_baseline;
          Alcotest.test_case "sum predicates share a key" `Slow
            test_sum_predicates_share_a_key ] );
      ( "hostile",
        [ Alcotest.test_case "verifiers answer false on hostile sizes" `Slow
            test_hostile_statements;
          Alcotest.test_case "offer bounds refuse nothing that fits" `Slow
            test_offer_bounds ] );
      ( "manifest",
        Alcotest.test_case "reader rejects hostile lines" `Quick
          test_manifest_reader_rejects
        :: Alcotest.test_case "golden decimal lines" `Quick test_manifest_golden
        :: manifest_props );
      ( "marketplace",
        [ Alcotest.test_case "publish/derive/audit/trade" `Slow test_marketplace_end_to_end;
          Alcotest.test_case "storage tamper detected" `Slow test_marketplace_tamper_detected;
          Alcotest.test_case "escrow fairness on-chain" `Slow test_escrow_fairness_onchain;
          Alcotest.test_case "hostile manifest audits as No_meta" `Slow
            test_marketplace_hostile_manifest;
          Alcotest.test_case "lineage forgeries audit as No_meta" `Slow
            test_marketplace_lineage_forgeries;
          Alcotest.test_case "oversize ciphertext builds no circuit" `Slow
            test_marketplace_oversize_ciphertext;
          Alcotest.test_case "second partition keeps sibling audits" `Slow
            test_marketplace_two_partitions;
          Alcotest.test_case "batched audit names the first failure" `Slow
            test_batched_audit_names;
          Alcotest.test_case "honest audit folds into one check" `Slow
            test_batched_audit_one_check ] ) ]
