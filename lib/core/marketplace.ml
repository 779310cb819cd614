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
  n : int;
  nonce : Fr.t;
  ct_cid : string;
  c_d : Fr.t;
  c_k : Fr.t;
  enc_proof_cid : string; (* pi_e of this dataset *)
  origin : (Transform.kind * string) option;
      (* the derivation that made it and the CID of its pi_t; None for a
         source *)
}

(* The "src_sizes" and "part_sizes" lines of a kind. *)
let kind_sizes : Transform.kind -> int list * int list = function
  | Transform.Duplication n | Transform.Processing (_, n) -> ([ n ], [])
  | Transform.Aggregation sizes -> (sizes, [])
  | Transform.Partition (n, parts) -> ([ n ], parts)

let meta_to_string (m : meta) : string =
  let ints l = String.concat "," (List.map string_of_int l) in
  let kind, pi_t, (src_sizes, part_sizes) =
    match m.origin with
    | None -> ("source", "-", ([], []))
    | Some (k, pi_t) -> (Transform.kind_name k, pi_t, kind_sizes k)
  in
  String.concat "\n"
    [ "zkdet-meta-v1";
      "kind:" ^ kind;
      "n:" ^ string_of_int m.n;
      "nonce:" ^ Fr.to_string m.nonce;
      "ct:" ^ m.ct_cid;
      "c_d:" ^ Fr.to_string m.c_d;
      "c_k:" ^ Fr.to_string m.c_k;
      "enc_proof:" ^ m.enc_proof_cid;
      "transform_proof:" ^ pi_t;
      "src_sizes:" ^ ints src_sizes;
      "part_sizes:" ^ ints part_sizes ]

let fr_digits = String.length (Fr.to_string (Fr.neg Fr.one))

(* The one reader of manifest lines.  It accepts only what
   [meta_to_string] writes: the lines must re-encode to themselves. *)
let meta_of_string (s : string) : meta option =
  let value line =
    match String.index_opt line ':' with
    | Some i -> String.sub line (i + 1) (String.length line - i - 1)
    | None -> raise Exit
  in
  (* No canonical element has more digits than the modulus, and parsing
     a decimal costs time quadratic in its length. *)
  let fr line =
    let v = value line in
    if String.length v > fr_digits then raise Exit else Fr.of_string v
  in
  let ints = function
    | "" -> []
    | v -> List.map int_of_string (String.split_on_char ',' v)
  in
  let processing = "processing:" in
  let origin kind pi_t src parts =
    match (value kind, value pi_t, ints (value src), ints (value parts)) with
    | "source", _, _, _ -> None
    | _, "-", _, _ -> raise Exit (* a kind without a pi_t *)
    | "duplication", pi_t, [ n ], [] -> Some (Transform.Duplication n, pi_t)
    | "aggregation", pi_t, (_ :: _ as sizes), [] ->
      Some (Transform.Aggregation sizes, pi_t)
    | "partition", pi_t, [ n ], (_ :: _ as parts) ->
      Some (Transform.Partition (n, parts), pi_t)
    | k, pi_t, [ n ], [] when String.starts_with ~prefix:processing k ->
      let l = String.length processing in
      Some (Transform.Processing (String.sub k l (String.length k - l), n), pi_t)
    | _ -> raise Exit (* an unknown kind, or one without its sizes *)
  in
  match String.split_on_char '\n' s with
  | [ "zkdet-meta-v1"; kind; n; nonce; ct; c_d; c_k; enc_proof; pi_t; src;
      parts ] -> (
    match
      {
        n = int_of_string (value n);
        nonce = fr nonce;
        ct_cid = value ct;
        c_d = fr c_d;
        c_k = fr c_k;
        enc_proof_cid = value enc_proof;
        origin = origin kind pi_t src parts;
      }
    with
    | m -> if String.equal (meta_to_string m) s then Some m else None
    | exception (Exit | Failure _ | Invalid_argument _) -> None)
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

(* Upload the manifest and mint: a source as an original, a derived
   dataset with its parents and the registry's record of its kind. *)
let mint_with_meta (m : t) ~(owner : Chain.Address.t) (meta : meta)
    ~(prev_ids : int list) : (int, string) result =
  let owner_node = node m ~id:owner in
  let uri =
    Storage.Cid.to_string (Storage.put m.net owner_node (meta_to_string meta))
  in
  let id_opt, receipt =
    match meta.origin with
    | None ->
      Erc721.mint m.nft m.chain ~sender:owner ~recipient:owner ~uri
        ~key_commitment:meta.c_k ~data_commitment:meta.c_d
        ~proof_refs:[ meta.enc_proof_cid ]
    | Some (kind, pi_t_cid) ->
      Erc721.mint_derived m.nft m.chain ~sender:owner ~prev_ids
        ~transform:(Transform.chain_kind kind) ~uri ~key_commitment:meta.c_k
        ~data_commitment:meta.c_d
        ~proof_refs:[ meta.enc_proof_cid; pi_t_cid ]
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
      n = Array.length data;
      nonce = sealed.Transform.nonce;
      ct_cid;
      c_d = sealed.Transform.c_d;
      c_k = sealed.Transform.c_k;
      enc_proof_cid = proof_cid;
      origin = None;
    }
  in
  match mint_with_meta m ~owner meta ~prev_ids:[] with
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
  let outputs, link =
    match (operation, parent_sealed) with
    | `Duplicate, [ src ] ->
      let dst, link = Transform.duplicate m.env src in
      ([ dst ], link)
    | `Aggregate, sources when List.length sources >= 2 ->
      let dst, link = Transform.aggregate m.env sources in
      ([ dst ], link)
    | `Partition sizes, [ src ] -> Transform.partition m.env src ~sizes
    | `Process spec, [ src ] ->
      let dst, link = Transform.process m.env src ~spec in
      ([ dst ], link)
    | _ -> invalid_arg "Marketplace.derive: operand count mismatch"
  in
  let pi_t_cid =
    Storage.Cid.to_string
      (Storage.put m.net owner_node (Proof.wire_encode link.Transform.proof))
  in
  let rec mint_all acc = function
    | [] -> Ok (List.rev acc)
    | sealed :: rest -> (
      let ct_cid, enc_proof_cid = upload_sealed m owner_node sealed in
      let meta =
        {
          n = Transform.size sealed;
          nonce = sealed.Transform.nonce;
          ct_cid;
          c_d = sealed.Transform.c_d;
          c_k = sealed.Transform.c_k;
          enc_proof_cid;
          origin = Some (link.Transform.kind, pi_t_cid);
        }
      in
      match mint_with_meta m ~owner meta ~prev_ids:parent_ids with
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

let fetch_proof (m : t) (auditor : Storage.node) (cid : string) :
    (Proof.t, audit_failure) result =
  Result.bind (fetch m auditor cid) (fun bytes ->
      Result.map_error
        (fun e ->
          `Storage ("undecodable proof: " ^ Zkdet_codec.Codec.error_to_string e))
        (Proof.wire_decode bytes))

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
let fetch_ciphertext (m : t) (auditor : Storage.node) (ct_cid : string) :
    (Fr.t array, audit_failure) result =
  Result.bind (fetch m auditor ct_cid) (fun ct_bytes ->
      Result.map_error
        (fun e -> `Storage ("undecodable ciphertext: " ^ e))
        (Storage.Codec.decode_result ct_bytes))

(* The sizes a derivation names: its statement must be well formed, and
   its source sizes must be its parents' ciphertext lengths, which their
   pi_e bind, one per parent. *)
let sizes_match (kind : Transform.kind) (lengths : int list) =
  fst (kind_sizes kind) = lengths && Circuits.well_formed (Circuits.Transform kind)

(** Full provenance audit (Fig. 3): walk prevIds[] back to the sources and,
    for every token, check its manifest against the chain, its pi_e, and
    the pi_t that made it.

    The walk checks everything but the proofs, and stops at its first
    failure. Each pi_e and pi_t it finds is deferred, in walk order, with
    the failure that names it; one {!Env.verify_all} then checks them
    all in one pairing check. Only when that rejects are they checked
    one by one, so the verdict is the first failure in walk order,
    whether a proof or the walk's own. *)
let audit_provenance (m : t) ~(auditor_id : string) (token_id : int) :
    (int, audit_failure) result =
  Obs.with_span "marketplace.audit_provenance" @@ fun () ->
  let auditor = node m ~id:auditor_id in
  let ( let* ) = Result.bind in
  (* Each manifest and each ciphertext is fetched and decoded once per
     audit: a parent's are read when its child's link is checked, before
     the walk reaches the parent, and a partition output's siblings are
     read by each of them. *)
  let memo f =
    let tbl = Hashtbl.create 8 in
    fun key ->
      match Hashtbl.find_opt tbl key with
      | Some r -> r
      | None ->
        let r = f key in
        Hashtbl.replace tbl key r;
        r
  in
  let meta = memo (token_meta m auditor) in
  let ciphertext = memo (fetch_ciphertext m auditor) in
  let rec all f = function
    | [] -> Ok []
    | x :: rest ->
      let* y = f x in
      let* ys = all f rest in
      Ok (y :: ys)
  in
  (* The outputs of one partition share its single parent and its origin,
     pi_t included; collect their c_d in token-id order. A second
     partition of the same parent names another pi_t, so its children
     stay out. *)
  let siblings parent origin =
    Hashtbl.fold
      (fun id t acc ->
        if t.Erc721.prev_ids = [ parent ]
           && t.Erc721.transform = Some Erc721.Partition
        then id :: acc
        else acc)
      m.nft.Erc721.tokens []
    |> List.sort compare
    |> List.filter_map (fun id ->
           match meta id with
           | Ok pm when pm.origin = origin -> Some pm.c_d
           | _ -> None)
  in
  (* (statement, publics, proof, the failure it names), last found first *)
  let deferred = ref [] in
  let defer statement publics proof failure =
    deferred := (statement, publics, proof, failure) :: !deferred
  in
  let check (tok : Erc721.token) =
    let id = tok.Erc721.token_id in
    let* me = meta id in
    let* ct = ciphertext me.ct_cid in
    let* pi_e = fetch_proof m auditor me.enc_proof_cid in
    defer
      (Circuits.Encryption (Array.length ct))
      (Circuits.encryption_publics ~nonce:me.nonce ~c_d:me.c_d ~c_k:me.c_k
         ~ciphertext:ct)
      pi_e (`Bad_encryption_proof id);
    match (me.origin, tok.Erc721.transform) with
    | None, None -> Ok ()
    | Some (kind, pi_t_cid), Some on_chain
      when Transform.chain_kind kind = on_chain -> (
      let* parents =
        all (fun pid -> Result.map_error (fun _ -> `No_meta) (meta pid))
          tok.Erc721.prev_ids
      in
      let* lengths =
        all (fun pm -> Result.map Array.length (ciphertext pm.ct_cid)) parents
      in
      if not (sizes_match kind lengths) then Error `No_meta
      else
        let* proof = fetch_proof m auditor pi_t_cid in
        let dst_commitments =
          match (kind, tok.Erc721.prev_ids) with
          | Transform.Partition _, [ parent ] -> siblings parent me.origin
          | _ -> [ me.c_d ]
        in
        let link =
          { Transform.kind;
            src_commitments = List.map (fun pm -> pm.c_d) parents;
            dst_commitments; proof }
        in
        match Transform.link_publics link with
        | Some publics ->
          defer (Circuits.Transform kind) publics proof (`Bad_transform_proof id);
          Ok ()
        | None -> Error (`Bad_transform_proof id))
    | _ -> Error `No_meta
  in
  let walked = Result.map List.length (all check (Erc721.provenance m.nft token_id)) in
  let deferred = List.rev !deferred in
  let item (statement, publics, proof, _) = (statement, publics, proof) in
  if Env.verify_all m.env (List.map item deferred) then walked
  else
    match List.find_opt (fun d -> not (Env.verify_all m.env [ item d ])) deferred with
    | Some (_, _, _, failure) -> Error failure
    | None -> walked

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
