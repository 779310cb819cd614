(* Deterministic constructions behind the committed golden vectors in
   test/vectors/.  [gen_vectors] writes them; [test_codec] re-derives the
   bytes and compares against the committed hex, so any accidental change
   to a wire format shows up as a byte-level diff.

   Everything here is pinned to fixed literal seeds (never
   ZKDET_TEST_SEED) and bypasses the SRS disk cache: the vectors assert
   the encodings, independent of the test environment. *)

module Fr = Zkdet_field.Bn254.Fr
module Cs = Zkdet_plonk.Cs
module Preprocess = Zkdet_plonk.Preprocess
module Prover = Zkdet_plonk.Prover
module Proof = Zkdet_plonk.Proof
module Groth16 = Zkdet_groth16.Groth16
module Srs = Zkdet_kzg.Srs
module Chain = Zkdet_chain.Chain
module Storage = Zkdet_storage.Storage
module C = Zkdet_codec.Codec

(* Lowercase hex, 64 chars (32 bytes) per line, trailing newline. *)
let to_hex (s : string) : string =
  let b = Buffer.create ((String.length s * 2) + (String.length s / 32) + 2) in
  String.iteri
    (fun i c ->
      if i > 0 && i mod 32 = 0 then Buffer.add_char b '\n';
      Buffer.add_string b (Printf.sprintf "%02x" (Char.code c)))
    s;
  Buffer.add_char b '\n';
  Buffer.contents b

(* Inverse of {!to_hex}; whitespace-insensitive. *)
let of_hex (s : string) : string =
  let b = Buffer.create (String.length s / 2) in
  let hi = ref (-1) in
  String.iter
    (fun c ->
      let v =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> -1
      in
      if v >= 0 then
        if !hi < 0 then hi := v
        else begin
          Buffer.add_char b (Char.chr ((!hi * 16) + v));
          hi := -1
        end)
    s;
  Buffer.contents b

(* The toy circuit shared with the plonk/groth16 suites:
   x*y + x + 3 = pub, witness (4, 6). *)
let circuit () =
  let x = Fr.of_int 4 and y = Fr.of_int 6 in
  let cs = Cs.create () in
  let pub = Cs.public_input cs (Fr.add (Fr.add (Fr.mul x y) x) (Fr.of_int 3)) in
  let xw = Cs.fresh cs x in
  let yw = Cs.fresh cs y in
  let xy = Cs.mul cs xw yw in
  let sum = Cs.add cs xy xw in
  let out = Cs.add_const cs sum (Fr.of_int 3) in
  Cs.assert_equal cs out pub;
  Cs.compile cs

let plonk_vectors () =
  let compiled = circuit () in
  let srs =
    Srs.unsafe_generate ~st:(Random.State.make [| 0xC0DEC; 1 |]) ~size:64 ()
  in
  let pk = Preprocess.setup srs compiled in
  let proof = Prover.prove ~st:(Random.State.make [| 0xC0DEC; 2 |]) pk compiled in
  [ ("proof_plonk.hex", Proof.wire_encode proof);
    ("vk_plonk.hex", Preprocess.vk_to_bytes pk.Preprocess.vk) ]

let groth16_vectors () =
  let compiled = circuit () in
  let pk = Groth16.setup ~st:(Random.State.make [| 0xC0DEC; 3 |]) compiled in
  let proof = Groth16.prove ~st:(Random.State.make [| 0xC0DEC; 4 |]) pk compiled in
  [ ("proof_groth16.hex", Groth16.proof_to_bytes proof);
    ("vk_groth16.hex", Groth16.vk_to_bytes pk.Groth16.vk) ]

(* A small ledger exercising every snapshot field: balances, a mined
   block with an event, a pending transaction, a reverted transaction and
   per-contract storage. *)
let demo_chain () =
  let chain = Chain.create () in
  let alice = Chain.Address.of_seed "alice" in
  let bob = Chain.Address.of_seed "bob" in
  Chain.faucet chain alice 1_000_000;
  Chain.faucet chain bob 250_000;
  ignore
    (Chain.execute chain ~sender:alice ~label:"registry:mint" ~contract:"registry" (fun env ->
         Chain.emit env ~contract:"registry" ~name:"Mint"
           ~data:[ "token-1"; alice ]));
  Chain.storage_set chain ~contract:"registry" ~key:"token-1/owner" ~value:alice;
  Chain.storage_set chain ~contract:"registry" ~key:"token-1/uri"
    ~value:"zb00demo";
  ignore (Chain.mine chain);
  ignore
    (Chain.execute chain ~sender:bob ~label:"market:bid" ~contract:"market" (fun env ->
         Chain.emit env ~contract:"market" ~name:"Bid" ~data:[ "token-1"; "42" ]));
  ignore
    (Chain.execute chain ~sender:bob ~label:"market:fail" ~contract:"market" (fun _ ->
         raise (Chain.Revert "demo revert")));
  chain

(* A complete ZSRS v2 envelope with a persisted fixed-base table section
   at a non-default window width, pinning the cache-file layout described
   in FORMATS.md (window byte + pre-shifted row array + row validation). *)
let srs_v2_vector () =
  let srs =
    Srs.unsafe_generate ~st:(Random.State.make [| 0xC0DEC; 5 |]) ~size:4 ()
  in
  srs.Srs.fb <-
    Some (Zkdet_curve.G1.Fixed_base.msm_create ~window:12 srs.Srs.g1_powers);
  ("srs_v2.hex", Srs.to_bytes srs)

let manifest_cids =
  [ Storage.Cid.of_bytes "chunk-0"; Storage.Cid.of_bytes "chunk-1";
    Storage.Cid.of_bytes "chunk-2" ]

module Marketplace = Zkdet_core.Marketplace
module Transform = Zkdet_core.Transform

(* One zkdet-meta-v1 token manifest per origin, over fixed field values
   and CIDs: a source, then one of each derivation kind. *)
let token_manifests () =
  let pi_t = Storage.Cid.of_bytes "pi_t" in
  let meta n origin =
    { Marketplace.n; nonce = Fr.of_int 7;
      ct_cid = Storage.Cid.of_bytes "ciphertext";
      c_d = Fr.neg (Fr.of_int 11); c_k = Fr.neg (Fr.of_int 13);
      enc_proof_cid = Storage.Cid.of_bytes "pi_e"; origin }
  in
  [ meta 2 None;
    meta 2 (Some (Transform.Duplication 2, pi_t));
    meta 2 (Some (Transform.Aggregation [ 1; 1 ], pi_t));
    meta 1 (Some (Transform.Partition (2, [ 1; 1 ]), pi_t));
    meta 1 (Some (Transform.Processing ("sum", 2), pi_t)) ]

module Env = Zkdet_core.Env
module Circuits = Zkdet_core.Circuits

(* (cache key, verification key) of one statement per protocol circuit,
   set up in a 2^12 env: a change to a circuit or to its setup witness
   shows here even when its prover and verifier change together. *)
let statement_vks () =
  let env = Env.create ~log2_max_gates:12 ~seed:[| 0xC0DEC; 6 |] () in
  let vk statement =
    ( Circuits.cache_key statement,
      Preprocess.vk_to_bytes (Env.proving_key env statement).Preprocess.vk )
  in
  let validation p = Circuits.Validation (2, p) in
  ( "statement_vks.hex",
    C.encode
      (C.list (C.pair C.str C.bytes))
      (List.map vk
         [ Circuits.Encryption 2;
           Circuits.Transform (Circuits.Duplication 2);
           Circuits.Transform (Circuits.Aggregation [ 1; 1 ]);
           Circuits.Transform (Circuits.Partition (2, [ 1; 1 ]));
           Circuits.Transform (Circuits.Processing ("sum", 2));
           validation Circuits.Trivial;
           validation (Circuits.Entries_bounded 8);
           validation (Circuits.Sum_equals (Fr.of_int 5));
           Circuits.Zkcp (2, Circuits.Trivial);
           Circuits.Key ]) )

(* (filename, raw bytes) for every committed vector but
   [statement_vks], whose keys take seconds to set up. *)
let all () : (string * string) list =
  plonk_vectors () @ groth16_vectors ()
  @ [ ("srs_header.hex", Srs.header_bytes ~size:16);
      srs_v2_vector ();
      ("chain_snapshot.hex", Chain.snapshot (demo_chain ()));
      ("manifest.hex", C.encode Storage.manifest_codec manifest_cids);
      ( "token_manifest.hex",
        C.encode (C.list C.str)
          (List.map Marketplace.meta_to_string (token_manifests ())) ) ]
