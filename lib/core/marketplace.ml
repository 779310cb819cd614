(* End-to-end ZKDET marketplace (paper Fig. 1): ties the proving
   environment, the storage network, the chain and the contracts together.

   Publishing a dataset uploads its ciphertext, pi_e and a metadata
   manifest to storage, then mints a data NFT whose URI is the manifest
   CID. Deriving datasets mints tokens whose prevIds[] record provenance
   and whose manifests reference pi_t. Auditing walks the provenance graph
   on-chain, fetches everything from public storage, and re-verifies the
   whole proof chain — what a prospective buyer runs before bidding. *)

module Fr = Zkdet_field.Bn254.Fr
module Proof = Zkdet_plonk.Proof
module Storage = Zkdet_storage.Storage
module Chain = Zkdet_chain.Chain
module Erc721 = Zkdet_contracts.Erc721
module Escrow = Zkdet_contracts.Escrow
module Verifier_contract = Zkdet_contracts.Verifier_contract
module Obs = Zkdet_obs.Obs
module Event = Zkdet_obs.Event

(* One [Protocol_step] per protocol milestone: the audit tool replays
   these to check causal consistency (a "complete" step must be preceded
   by a verified proof and followed only by mined transactions). *)
let step ?(detail = []) name =
  if Obs.is_enabled () then
    Obs.emit (Event.Protocol_step { protocol = "zkdet-exchange"; step = name; detail })

let log_src = Logs.Src.create "zkdet.marketplace" ~doc:"ZKDET marketplace events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  env : Env.t;
  chain : Chain.t;
  net : Storage.t;
  nft : Erc721.t;
  verifier : Verifier_contract.t;
  escrow : Escrow.t;
}

(** Deploy the whole stack: verifier (for pi_k), NFT registry, escrow. *)
let bootstrap (env : Env.t) ~(operator : Chain.Address.t) : t =
  let chain = Chain.create () in
  Chain.faucet chain operator 100_000_000;
  let net = Storage.create () in
  let nft, _ = Erc721.deploy chain ~deployer:operator in
  let verifier, _ =
    Verifier_contract.deploy chain ~deployer:operator (Exchange.key_vk env)
  in
  let escrow, _ = Escrow.deploy chain ~deployer:operator verifier in
  { env; chain; net; nft; verifier; escrow }

let node (m : t) ~(id : string) : Storage.node =
  match Hashtbl.find_opt m.net.Storage.nodes id with
  | Some n -> n
  | None -> Storage.add_node m.net ~id

(* ---- metadata manifests ---- *)

type meta = {
  kind : string; (* "source" | Transform.kind_name *)
  n : int;
  nonce : Fr.t;
  ct_cid : string;
  c_d : Fr.t;
  c_k : Fr.t;
  enc_proof_cid : string; (* pi_e of this dataset *)
  transform_proof_cid : string option; (* pi_t that created it *)
  src_sizes : int list; (* structural params for the pi_t circuit *)
  part_sizes : int list;
}

let meta_to_string (m : meta) : string =
  String.concat "\n"
    [ "zkdet-meta-v1";
      "kind:" ^ m.kind;
      "n:" ^ string_of_int m.n;
      "nonce:" ^ Fr.to_string m.nonce;
      "ct:" ^ m.ct_cid;
      "c_d:" ^ Fr.to_string m.c_d;
      "c_k:" ^ Fr.to_string m.c_k;
      "enc_proof:" ^ m.enc_proof_cid;
      "transform_proof:" ^ Option.value ~default:"-" m.transform_proof_cid;
      "src_sizes:" ^ String.concat "," (List.map string_of_int m.src_sizes);
      "part_sizes:" ^ String.concat "," (List.map string_of_int m.part_sizes) ]

let meta_of_string (s : string) : meta option =
  match String.split_on_char '\n' s with
  | "zkdet-meta-v1" :: fields ->
    let tbl = Hashtbl.create 12 in
    List.iter
      (fun line ->
        match String.index_opt line ':' with
        | Some i ->
          Hashtbl.replace tbl (String.sub line 0 i)
            (String.sub line (i + 1) (String.length line - i - 1))
        | None -> ())
      fields;
    let find k = Hashtbl.find_opt tbl k in
    let ints k =
      match find k with
      | None | Some "" -> []
      | Some s -> List.map int_of_string (String.split_on_char ',' s)
    in
    (try
       Some
         {
           kind = Option.get (find "kind");
           n = int_of_string (Option.get (find "n"));
           nonce = Fr.of_string (Option.get (find "nonce"));
           ct_cid = Option.get (find "ct");
           c_d = Fr.of_string (Option.get (find "c_d"));
           c_k = Fr.of_string (Option.get (find "c_k"));
           enc_proof_cid = Option.get (find "enc_proof");
           transform_proof_cid =
             (match find "transform_proof" with
             | Some "-" | None -> None
             | Some c -> Some c);
           src_sizes = ints "src_sizes";
           part_sizes = ints "part_sizes";
         }
     with _ -> None)
  | _ -> None

(* ---- publishing ---- *)

let upload_sealed (m : t) (node : Storage.node) (s : Transform.sealed) :
    string * string =
  let ct_cid =
    Storage.Cid.to_string
      (Storage.put m.net node (Storage.Codec.encode s.Transform.ciphertext))
  in
  let pi_e = Transform.prove_encryption m.env s in
  let proof_cid =
    Storage.Cid.to_string (Storage.put m.net node (Proof.wire_encode pi_e))
  in
  (ct_cid, proof_cid)

let mint_with_meta (m : t) ~(owner : Chain.Address.t) (meta : meta)
    ~(prev_ids : int list) ~(transform : Erc721.transform_kind option) :
    (int, string) result =
  let owner_node = node m ~id:owner in
  let uri =
    Storage.Cid.to_string (Storage.put m.net owner_node (meta_to_string meta))
  in
  let id_opt, receipt =
    match transform with
    | None ->
      Erc721.mint m.nft m.chain ~sender:owner ~recipient:owner ~uri
        ~key_commitment:meta.c_k ~data_commitment:meta.c_d
        ~proof_refs:[ meta.enc_proof_cid ]
    | Some tk ->
      Erc721.mint_derived m.nft m.chain ~sender:owner ~prev_ids ~transform:tk
        ~uri ~key_commitment:meta.c_k ~data_commitment:meta.c_d
        ~proof_refs:
          (meta.enc_proof_cid
          :: Option.to_list meta.transform_proof_cid)
  in
  match (id_opt, receipt.Chain.status) with
  | Some id, Ok () -> Ok id
  | _, Error e -> Error (Chain.error_to_string e)
  | None, Ok () -> Error "mint returned no id"

(** Publish an original dataset: seal, upload, prove, mint.
    Returns the token id and the sealed handle (the owner's secrets). *)
let publish (m : t) ~(owner : Chain.Address.t) (data : Fr.t array) :
    (int * Transform.sealed, string) result =
  Obs.with_span "marketplace.publish" @@ fun () ->
  Chain.faucet m.chain owner 10_000_000;
  let owner_node = node m ~id:owner in
  let sealed = Transform.seal ~st:m.env.Env.rng data in
  let ct_cid, proof_cid = upload_sealed m owner_node sealed in
  let meta =
    {
      kind = "source";
      n = Array.length data;
      nonce = sealed.Transform.nonce;
      ct_cid;
      c_d = sealed.Transform.c_d;
      c_k = sealed.Transform.c_k;
      enc_proof_cid = proof_cid;
      transform_proof_cid = None;
      src_sizes = [];
      part_sizes = [];
    }
  in
  match mint_with_meta m ~owner meta ~prev_ids:[] ~transform:None with
  | Ok id ->
    Log.info (fun f ->
        f "published token #%d (n=%d) by %s" id (Array.length data) owner);
    Ok (id, sealed)
  | Error e ->
    Log.err (fun f -> f "publish failed for %s: %s" owner e);
    Error e

(** Derive a new token by a transformation of owned tokens. *)
let derive (m : t) ~(owner : Chain.Address.t)
    ~(parents : (int * Transform.sealed) list)
    (operation :
      [ `Duplicate
      | `Aggregate
      | `Partition of int list
      | `Process of Circuits.processing_spec ]) :
    ((int * Transform.sealed) list, string) result =
  Obs.with_span "marketplace.derive" @@ fun () ->
  let owner_node = node m ~id:owner in
  let parent_ids = List.map fst parents in
  let parent_sealed = List.map snd parents in
  let outputs, link, transform_kind =
    match (operation, parent_sealed) with
    | `Duplicate, [ src ] ->
      let dst, link = Transform.duplicate m.env src in
      ([ dst ], link, Erc721.Duplication)
    | `Aggregate, sources when List.length sources >= 2 ->
      let dst, link = Transform.aggregate m.env sources in
      ([ dst ], link, Erc721.Aggregation)
    | `Partition sizes, [ src ] ->
      let parts, link = Transform.partition m.env src ~sizes in
      (parts, link, Erc721.Partition)
    | `Process spec, [ src ] ->
      let dst, link = Transform.process m.env src ~spec in
      ([ dst ], link, Erc721.Processing spec.Circuits.proc_name)
    | _ -> invalid_arg "Marketplace.derive: operand count mismatch"
  in
  let pi_t_cid =
    Storage.Cid.to_string
      (Storage.put m.net owner_node (Proof.wire_encode link.Transform.proof))
  in
  let src_sizes = List.map Transform.size parent_sealed in
  let part_sizes =
    match operation with `Partition sizes -> sizes | _ -> []
  in
  let rec mint_all acc = function
    | [] -> Ok (List.rev acc)
    | sealed :: rest -> (
      let ct_cid, enc_proof_cid = upload_sealed m owner_node sealed in
      let meta =
        {
          kind = Transform.kind_name link.Transform.kind;
          n = Transform.size sealed;
          nonce = sealed.Transform.nonce;
          ct_cid;
          c_d = sealed.Transform.c_d;
          c_k = sealed.Transform.c_k;
          enc_proof_cid;
          transform_proof_cid = Some pi_t_cid;
          src_sizes;
          part_sizes;
        }
      in
      match
        mint_with_meta m ~owner meta ~prev_ids:parent_ids
          ~transform:(Some transform_kind)
      with
      | Ok id ->
        Log.info (fun f ->
            f "derived token #%d via %s from [%s]" id
              (Transform.kind_name link.Transform.kind)
              (String.concat ";" (List.map string_of_int parent_ids)));
        mint_all ((id, sealed) :: acc) rest
      | Error e -> Error e)
  in
  mint_all [] outputs

(* ---- auditing (what a buyer does before trusting a token) ---- *)

type audit_failure =
  [ `No_token
  | `No_meta
  | `Storage of string
  | `Commitment_mismatch
  | `Bad_encryption_proof of int
  | `Bad_transform_proof of int ]

let fetch (m : t) (auditor : Storage.node) (cid : string) :
    (string, audit_failure) result =
  match Storage.get m.net auditor cid with
  | Ok d -> Ok d
  | Error `Not_found -> Error (`Storage ("not found: " ^ cid))
  | Error `Tampered -> Error (`Storage ("tampered: " ^ cid))

let token_meta (m : t) (auditor : Storage.node) (token_id : int) :
    (meta, audit_failure) result =
  match Erc721.token m.nft token_id with
  | None -> Error `No_token
  | Some tok -> (
    match fetch m auditor tok.Erc721.uri with
    | Error _ as e -> e
    | Ok s -> (
      match meta_of_string s with
      | None -> Error `No_meta
      | Some meta ->
        (* the chain's commitments must match the manifest *)
        if
          Fr.equal meta.c_d tok.Erc721.data_commitment
          && Fr.equal meta.c_k tok.Erc721.key_commitment
        then Ok meta
        else Error `Commitment_mismatch))

(* A token's ciphertext, fetched and decoded. *)
let fetch_ciphertext (m : t) (auditor : Storage.node) (meta : meta) :
    (Fr.t array, audit_failure) result =
  Result.bind (fetch m auditor meta.ct_cid) (fun ct_bytes ->
      Result.map_error
        (fun e -> `Storage ("undecodable ciphertext: " ^ e))
        (Storage.Codec.decode_result ct_bytes))

(* Verify one token's pi_e, with its ciphertext from [ciphertext]. *)
let check_encryption (m : t) (auditor : Storage.node) ~ciphertext
    (token_id : int) : (unit, audit_failure) result =
  match token_meta m auditor token_id with
  | Error _ as e -> e
  | Ok meta -> (
    match (ciphertext meta, fetch m auditor meta.enc_proof_cid) with
    | Error e, _ | _, Error e -> Error e
    | Ok ciphertext, Ok proof_bytes -> (
      match Proof.wire_decode proof_bytes with
      | Error e ->
        Error (`Storage ("undecodable proof: " ^ Zkdet_codec.Codec.error_to_string e))
      | Ok proof ->
        if
          Transform.verify_encryption m.env ~nonce:meta.nonce ~c_d:meta.c_d
            ~c_k:meta.c_k ~ciphertext proof
        then Ok ()
        else Error (`Bad_encryption_proof token_id)))

(** Verify one token's pi_e from public data. *)
let audit_encryption (m : t) (auditor : Storage.node) (token_id : int) :
    (unit, audit_failure) result =
  check_encryption m auditor ~ciphertext:(fetch_ciphertext m auditor) token_id

(* The sizes a pi_t link takes from its manifest, checked against what
   the audit verifies: each parent's ciphertext length, which the
   parent's pi_e binds.  A partition's parts must also be positive and
   sum to its parent's length.  A link whose parent count does not fit
   its kind is left to [Transform.verify_link], which rejects it without
   building a circuit. *)
let sizes_match (kind : Transform.kind) ~n_duplication (lengths : int list) =
  match (kind, lengths) with
  | Transform.Duplication, [ len ] -> n_duplication = len
  | Transform.Aggregation sizes, _ -> sizes = lengths
  | Transform.Partition (n, parts), [ len ] ->
    n = len && parts <> []
    && List.for_all (fun p -> p > 0) parts
    && List.fold_left ( + ) 0 parts = n
  | Transform.Processing (_, n), [ len ] -> n = len
  | (Transform.Duplication | Transform.Partition _ | Transform.Processing _), _
    -> true

(** Full provenance audit: walk prevIds[] back to the sources, re-verify
    every pi_e and every pi_t in the provenance graph. *)
let rec audit_provenance (m : t) ~(auditor_id : string) (token_id : int) :
    (int, audit_failure) result =
  Obs.with_span "marketplace.audit_provenance" @@ fun () ->
  let auditor = node m ~id:auditor_id in
  let tokens = Erc721.provenance m.nft token_id in
  let checked = ref 0 in
  (* Each ciphertext is fetched once per audit: a parent's length is
     read when its child's link is checked, before the walk reaches the
     parent's own pi_e. *)
  let ciphertexts = Hashtbl.create 8 in
  let ciphertext (meta : meta) =
    match Hashtbl.find_opt ciphertexts meta.ct_cid with
    | Some ct -> Ok ct
    | None ->
      let r = fetch_ciphertext m auditor meta in
      Result.iter (Hashtbl.replace ciphertexts meta.ct_cid) r;
      r
  in
  let rec lengths = function
    | [] -> Ok []
    | pm :: rest -> (
      match ciphertext pm with
      | Error e -> Error e
      | Ok ct -> Result.map (fun ls -> Array.length ct :: ls) (lengths rest))
  in
  let rec go = function
    | [] -> Ok !checked
    | tok :: rest -> (
      let id = tok.Erc721.token_id in
      match check_encryption m auditor ~ciphertext id with
      | Error _ as e -> e
      | Ok () -> (
        match token_meta m auditor id with
        | Error _ as e -> e
        | Ok meta -> (
          match meta.transform_proof_cid with
          | None ->
            incr checked;
            go rest
          | Some pi_t_cid -> (
            match fetch m auditor pi_t_cid with
            | Error e -> Error e
            | Ok proof_bytes -> (
              match Proof.wire_decode proof_bytes with
              | Error e ->
                Error
                  (`Storage
                    ("undecodable proof: " ^ Zkdet_codec.Codec.error_to_string e))
              | Ok proof ->
              (* reconstruct the link from on-chain provenance + manifests *)
              let parent_metas =
                List.filter_map
                  (fun pid ->
                    match token_meta m auditor pid with
                    | Ok pm -> Some pm
                    | Error _ -> None)
                  tok.Erc721.prev_ids
              in
              if List.length parent_metas <> List.length tok.Erc721.prev_ids
              then Error `No_meta
              else begin
                let src_commitments =
                  List.map (fun pm -> pm.c_d) parent_metas
                in
                (* Whoever mints a token writes its manifest and its
                   parent list, so a kind this audit does not know, or a
                   single-source kind without exactly one source size,
                   is a malformed manifest. *)
                let kind_and_outputs =
                  match (meta.kind, meta.src_sizes) with
                  | "duplication", _ -> Some (Transform.Duplication, [ meta.c_d ])
                  | "aggregation", sizes ->
                    Some (Transform.Aggregation sizes, [ meta.c_d ])
                  | "partition", [ n ] ->
                    (* the proof covers every output of the partition *)
                    Option.map
                      (fun outputs ->
                        (Transform.Partition (n, meta.part_sizes), outputs))
                      (sibling_commitments m auditor tok meta)
                  | k, [ n ]
                    when String.length k > 11
                         && String.sub k 0 11 = "processing:" ->
                    Some
                      ( Transform.Processing
                          (String.sub k 11 (String.length k - 11), n),
                        [ meta.c_d ] )
                  | _ -> None
                in
                match kind_and_outputs with
                | None -> Error `No_meta
                | Some (kind, dst_commitments) ->
                  let link =
                    { Transform.kind; src_commitments; dst_commitments; proof }
                  in
                  let n_duplication =
                    match kind with
                    | Transform.Duplication -> (
                      match meta.src_sizes with s :: _ -> s | [] -> meta.n)
                    | _ -> 0
                  in
                  match lengths parent_metas with
                  | Error e -> Error e
                  | Ok lens when not (sizes_match kind ~n_duplication lens) ->
                    Error `No_meta
                  | Ok _ ->
                    if Transform.verify_link m.env ~n_duplication link then begin
                      incr checked;
                      go rest
                    end
                    else Error (`Bad_transform_proof id)
              end)))))
  in
  go tokens

and sibling_commitments (m : t) (auditor : Storage.node) (tok : Erc721.token)
    (meta : meta) : Fr.t list option =
  (* The outputs of one partition share its single parent and its pi_t
     CID; collect their c_d in token-id order. A second partition of the
     same parent names another pi_t, so its children stay out. *)
  match tok.Erc721.prev_ids with
  | [ parent ] ->
    let siblings =
      Hashtbl.fold
        (fun id t acc ->
          if t.Erc721.prev_ids = [ parent ]
             && t.Erc721.transform = Some Erc721.Partition
          then id :: acc
          else acc)
        m.nft.Erc721.tokens []
    in
    List.sort compare siblings
    |> List.filter_map (fun id ->
           match token_meta m auditor id with
           | Ok pm when pm.transform_proof_cid = meta.transform_proof_cid ->
             Some pm.c_d
           | Ok _ | Error _ -> None)
    |> (fun l -> Some (if l = [] then [ meta.c_d ] else l))
  | _ -> None

(* ---- trading via the key-secure exchange ---- *)

type trade_failure =
  [ `Offer_rejected | `Lock_failed of string | `Settle_failed of string
  | `Recovered_garbage ]

(** Run a complete key-secure exchange of [token_id] between its owner
    and [buyer]: phase 1 off-chain validation, escrow lock, phase 2
    settlement through the on-chain verifier, buyer-side recovery, and
    the NFT transfer. Returns the recovered plaintext on success. *)
let trade (m : t) ~(seller : Chain.Address.t) ~(buyer : Chain.Address.t)
    ~(token_id : int) ~(sealed : Transform.sealed)
    ~(predicate : Circuits.predicate) ~(price : int) :
    (Fr.t array, trade_failure) result =
  Obs.with_trace "marketplace.trade" @@ fun () ->
  Chain.faucet m.chain buyer (price + 10_000_000);
  Chain.faucet m.chain seller 10_000_000;
  let offer = Exchange.make_offer sealed ~predicate ~price in
  step "offer"
    ~detail:
      [ ("token", string_of_int token_id); ("price", string_of_int price) ];
  (* Phase 1: seller proves, buyer verifies. *)
  let pi_p = Exchange.prove_validation m.env sealed predicate in
  if not (Exchange.verify_validation m.env offer pi_p) then Error `Offer_rejected
  else begin
    step "validate";
    let k_v, h_v = Exchange.buyer_blinding ~st:m.env.Env.rng () in
    match
      Escrow.lock m.escrow m.chain ~buyer ~seller ~amount:price ~h_v
        ~key_commitment:offer.Exchange.c_k ~timeout_blocks:100
    with
    | None, r ->
      Error
        (`Lock_failed
          (match r.Chain.status with
          | Error e -> Chain.error_to_string e
          | Ok () -> "no deal id"))
    | Some deal_id, _ -> (
      step "lock" ~detail:[ ("deal", string_of_int deal_id) ];
      (* Phase 2: seller derives k_c and pi_k, settles on-chain. *)
      let k_c, pi_k = Exchange.prove_key m.env sealed ~k_v in
      let settle_receipt =
        Escrow.settle m.escrow m.chain ~seller ~deal_id ~k_c ~proof:pi_k
      in
      match settle_receipt.Chain.status with
      | Error e -> Error (`Settle_failed (Chain.error_to_string e))
      | Ok () ->
        step "settle" ~detail:[ ("deal", string_of_int deal_id) ];
        (* Buyer recovers the key and decrypts. *)
        let data = Exchange.recover offer ~k_c ~k_v in
        if not (Exchange.recovered_matches offer ~k_c ~k_v data) then
          Error `Recovered_garbage
        else begin
          step "recover";
          (* transfer the NFT to the buyer *)
          ignore
            (Erc721.transfer_from m.nft m.chain ~sender:seller ~from:seller
               ~to_:buyer ~token_id);
          ignore (Chain.mine m.chain);
          step "complete" ~detail:[ ("token", string_of_int token_id) ];
          Log.info (fun f ->
              f "trade settled: token #%d, %s -> %s, price %d" token_id seller
                buyer price);
          Ok data
        end)
  end

(* ---- batched settlement ---- *)

(** Settle a block of escrow deals [(deal_id, k_c, pi_k)] in one metered
    call (the settlement-at-scale path): the proofs are batch-verified by
    the on-chain verifier with a single folded pairing check, gas is
    attributed per deal, and the block is all-or-nothing — one invalid
    proof reverts every settlement with no surviving events. *)
let settle_batch (m : t) ~(seller : Chain.Address.t)
    (entries : (int * Fr.t * Proof.t) list) : Chain.receipt =
  Obs.with_span "marketplace.settle_batch" @@ fun () ->
  let receipt = Escrow.settle_batch m.escrow m.chain ~seller entries in
  (match receipt.Chain.status with
  | Ok () ->
    step "settle-batch"
      ~detail:[ ("deals", string_of_int (List.length entries)) ];
    Log.info (fun f ->
        f "settle-batch: %d deal(s) settled by %s for %d gas"
          (List.length entries) seller receipt.Chain.gas_used)
  | Error e ->
    Log.err (fun f ->
        f "settle-batch failed for %s: %s" seller (Chain.error_to_string e)));
  receipt
