(* The property-based testing + deterministic fuzzing harness.

   Three families over the zkdet_proptest engine:
   - differential: every generated circuit proves and verifies under BOTH
     Plonk and Groth16 from the same builder output; a mutated witness is
     rejected by both;
   - metamorphic/algebraic: field/curve laws, pairing bilinearity,
     FFT/IFFT and polynomial identities, hash sensitivity, storage
     round-trips at chunk boundaries;
   - model-based: random operation sequences driven against the real
     contracts AND a naive OCaml reference model, comparing
     success/revert, resulting state, and exact balance accounting.

   Failures print a replayable seed (ZKDET_TEST_SEED) and the shrunk
   counterexample; ZKDET_PROPTEST_ITERS scales the iteration counts. *)

module P = Zkdet_proptest.Proptest
module Gen = Zkdet_proptest.Gen
module Rng = Zkdet_proptest.Rng
module Gz = Zkdet_proptest.Gen_zk
module Go = Zkdet_proptest.Gen_ops
module Fr = Zkdet_field.Bn254.Fr
module Fp = Zkdet_field.Bn254.Fp
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Pairing = Zkdet_curve.Pairing
module Poly = Zkdet_poly.Poly
module Domain = Zkdet_poly.Domain
module Srs = Zkdet_kzg.Srs
module Cs = Zkdet_plonk.Cs
module Preprocess = Zkdet_plonk.Preprocess
module Prover = Zkdet_plonk.Prover
module Verifier = Zkdet_plonk.Verifier
module Groth16 = Zkdet_groth16.Groth16
module Merkle = Zkdet_circuit.Merkle
module Mimc = Zkdet_mimc.Mimc
module Poseidon = Zkdet_poseidon.Poseidon
module Storage = Zkdet_storage.Storage
module Chain = Zkdet_chain.Chain
module Erc721 = Zkdet_contracts.Erc721
module Zkcp = Zkdet_contracts.Zkcp_escrow
module Fairswap_escrow = Zkdet_contracts.Fairswap_escrow
module Auction = Zkdet_contracts.Auction
module Fairswap = Zkdet_core.Fairswap

open Test_util

let pp_fr = Fr.to_string
let pp_g1 p =
  match G1.to_affine p with
  | None -> "inf"
  | Some (x, y) -> Printf.sprintf "(%s, %s)" (Fp.to_string x) (Fp.to_string y)

(* ---------------------------------------------------------------- *)
(* Framework self-tests: replay determinism and shrink minimality.   *)
(* ---------------------------------------------------------------- *)

let selftest_replay () =
  (* Identical (seed, label) => byte-identical draws, independent of any
     other stream. *)
  let draw () =
    let rng = Rng.of_seed_and_label (P.seed ()) "selftest-replay" in
    List.init 50 (fun _ -> Rng.next_int64 (Rng.split rng))
  in
  Alcotest.(check bool) "int64 stream replays" true (draw () = draw ());
  let draw_fr () =
    let rng = Rng.of_seed_and_label (P.seed ()) "selftest-replay-fr" in
    List.init 20 (fun _ -> Gen.generate Gz.fr (Rng.split rng))
  in
  Alcotest.(check bool) "Fr stream replays" true
    (List.for_all2 Fr.equal (draw_fr ()) (draw_fr ()));
  (* Different seeds diverge. *)
  let at seed =
    let rng = Rng.of_seed_and_label seed "selftest-replay" in
    List.init 50 (fun _ -> Rng.next_int64 (Rng.split rng))
  in
  Alcotest.(check bool) "seeds diverge" false (at 1L = at 2L)

let selftest_run_replay () =
  (* The engine reports the same failure twice for the same seed. *)
  let gen = Gen.list (Gen.int_range 0 99) in
  let p l = List.fold_left ( + ) 0 l < 50 in
  match (P.run ~seed:7L ~name:"rr" gen p, P.run ~seed:7L ~name:"rr" gen p) with
  | Error a, Error b ->
    Alcotest.(check bool) "same counterexample" true
      (a.P.counterexample = b.P.counterexample && a.P.case = b.P.case
     && a.P.original = b.P.original)
  | _ -> Alcotest.fail "expected both runs to fail identically"

let selftest_shrink_int () =
  match P.run ~name:"shrink-int" (Gen.int_range 0 1000) (fun x -> x < 10) with
  | Ok () -> Alcotest.fail "property must fail"
  | Error f -> Alcotest.(check int) "minimal counterexample" 10 f.P.counterexample

let selftest_shrink_list () =
  (* sum >= 15 fails; the shrunk list must still fail but be locally
     minimal: dropping any one element makes it pass. *)
  match
    P.run ~name:"shrink-list"
      (Gen.list_size (Gen.int_range 0 20) (Gen.int_range 0 9))
      (fun l -> List.fold_left ( + ) 0 l < 15)
  with
  | Ok () -> Alcotest.fail "property must fail"
  | Error f ->
    let l = f.P.counterexample in
    let sum = List.fold_left ( + ) 0 l in
    Alcotest.(check bool) "still failing" true (sum >= 15);
    Alcotest.(check bool) "dropping any element passes" true
      (List.for_all (fun x -> sum - x < 15) l)

(* Every node of a shrink tree must be a value its generator can draw.
   Walk the first [limit] nodes breadth-first, for 20 seeds, and return
   the first value [ok] rejects. *)
let first_bad_shrink ~limit (gen : 'a Gen.t) (ok : 'a -> bool) =
  let bad = ref None in
  for seed = 1 to 20 do
    let q = Queue.create () in
    Queue.add (gen (Rng.of_seed_and_label (Int64.of_int seed) "shrink-range")) q;
    let queued = ref 1 in
    while !bad = None && not (Queue.is_empty q) do
      let node = Queue.pop q in
      if not (ok (Gen.root node)) then bad := Some (Gen.root node)
      else
        Seq.iter
          (fun c ->
            if !queued < limit then begin
              incr queued;
              Queue.add c q
            end)
          (Gen.children node)
    done
  done;
  !bad

let selftest_shrink_in_range () =
  let digit = Gen.int_range 0 9 in
  (match
     first_bad_shrink ~limit:2000 (Gen.list_size (Gen.int_range 2 3) digit)
       (fun l -> List.length l >= 2 && List.length l <= 3)
   with
  | Some l -> Alcotest.failf "list_size 2..3 shrank to length %d" (List.length l)
  | None -> ());
  (match
     first_bad_shrink ~limit:2000 (Gen.array_size (Gen.return 5) digit) (fun a ->
         Array.length a = 5)
   with
  | Some a -> Alcotest.failf "array_size 5 shrank to length %d" (Array.length a)
  | None -> ());
  match
    first_bad_shrink ~limit:2000 Gz.circuit_desc (fun (d : Gz.circuit_desc) ->
        let within lo hi l = List.length l >= lo && List.length l <= hi in
        within 1 3 d.Gz.publics && within 0 3 d.Gz.witnesses && within 1 12 d.Gz.ops)
  with
  | Some d -> Alcotest.failf "circuit_desc shrank out of range: %s" (Gz.pp_circuit_desc d)
  | None -> ()

let selftest_seed_env () =
  match Sys.getenv_opt "ZKDET_TEST_SEED" with
  | None | Some "" -> Alcotest.(check int) "default seed" 31337 (Int64.to_int (P.seed ()))
  | Some s -> Alcotest.(check bool) "env seed parsed" true (P.seed () = Int64.of_string s)

(* ---------------------------------------------------------------- *)
(* Metamorphic / algebraic laws.                                     *)
(* ---------------------------------------------------------------- *)

let fr_laws =
  prop ~count:200 "Fr ring laws" (pp3 pp_fr pp_fr pp_fr)
    (Gen.triple Gz.fr Gz.fr Gz.fr) (fun (a, b, c) ->
      Fr.equal (Fr.add (Fr.add a b) c) (Fr.add a (Fr.add b c))
      && Fr.equal (Fr.mul (Fr.mul a b) c) (Fr.mul a (Fr.mul b c))
      && Fr.equal (Fr.mul a b) (Fr.mul b a)
      && Fr.equal (Fr.mul a (Fr.add b c)) (Fr.add (Fr.mul a b) (Fr.mul a c))
      && Fr.equal (Fr.sub a b) (Fr.add a (Fr.neg b))
      && Fr.equal (Fr.add a Fr.zero) a
      && Fr.equal (Fr.mul a Fr.one) a)

let fr_inverse =
  prop ~count:100 "Fr inverses" pp_fr Gz.fr_nonzero (fun a ->
      Fr.equal (Fr.mul a (Fr.inv a)) Fr.one && Fr.equal (Fr.inv (Fr.inv a)) a)

let fr_pow_hom =
  prop ~count:50 "Fr pow homomorphism" (pp3 pp_fr string_of_int string_of_int)
    (Gen.triple Gz.fr (Gen.int_range 0 40) (Gen.int_range 0 40))
    (fun (a, m, n) ->
      Fr.equal (Fr.pow a (m + n)) (Fr.mul (Fr.pow a m) (Fr.pow a n)))

let fq_laws =
  prop ~count:100 "Fq ring laws" (pp3 Fp.to_string Fp.to_string Fp.to_string)
    (Gen.triple Gz.fq Gz.fq Gz.fq) (fun (a, b, c) ->
      Fp.equal (Fp.add (Fp.add a b) c) (Fp.add a (Fp.add b c))
      && Fp.equal (Fp.mul a b) (Fp.mul b a)
      && Fp.equal (Fp.mul a (Fp.add b c)) (Fp.add (Fp.mul a b) (Fp.mul a c))
      && (Fp.is_zero a || Fp.equal (Fp.mul a (Fp.inv a)) Fp.one))

let g1_group_laws =
  prop ~count:60 "G1 group laws" (pp3 pp_g1 pp_g1 pp_g1)
    (Gen.triple Gz.g1 Gz.g1 Gz.g1) (fun (p, q, r) ->
      G1.equal (G1.add (G1.add p q) r) (G1.add p (G1.add q r))
      && G1.equal (G1.add p q) (G1.add q p)
      && G1.equal (G1.add p G1.zero) p
      && G1.equal (G1.add p (G1.neg p)) G1.zero
      && G1.equal (G1.double p) (G1.add p p))

let g1_scalar_distributes =
  prop ~count:40 "G1 scalar distributivity"
    (pp3 pp_g1 string_of_int string_of_int)
    (Gen.triple Gz.g1 (Gen.int_origin ~origin:0 (-50) 50)
       (Gen.int_origin ~origin:0 (-50) 50)) (fun (p, m, n) ->
      G1.equal (G1.mul_int p (m + n)) (G1.add (G1.mul_int p m) (G1.mul_int p n))
      && G1.equal
           (G1.mul p (Fr.of_int m))
           (G1.mul_int p m))

let g1_affine_validation =
  prop ~count:100 "G1 affine validation"
    (pp2 Fp.to_string Fp.to_string) Gz.g1_raw_candidate (fun (x, y) ->
      match G1.of_affine (x, y) with
      | exception Invalid_argument _ -> true (* rejected: off-curve *)
      | p -> (
        (* accepted: must round-trip to the same coordinates *)
        match G1.to_affine p with
        | Some (x', y') -> Fp.equal x x' && Fp.equal y y'
        | None -> false))

let g2_group_laws =
  prop ~count:25 "G2 group laws" (fun _ -> "<g2 triple>")
    (Gen.triple Gz.g2 Gz.g2 Gz.g2) (fun (p, q, r) ->
      G2.equal (G2.add (G2.add p q) r) (G2.add p (G2.add q r))
      && G2.equal (G2.add p q) (G2.add q p)
      && G2.equal (G2.add p G2.zero) p
      && G2.equal (G2.add p (G2.neg p)) G2.zero)

let pairing_bilinear =
  prop ~count:3 "pairing bilinearity" (pp2 string_of_int string_of_int)
    (Gen.pair (Gen.int_range 1 50) (Gen.int_range 1 50)) (fun (a, b) ->
      let p = G1.generator and q = G2.generator in
      let lhs = Pairing.pairing (G1.mul_int p a) (G2.mul_int q b) in
      let rhs = Pairing.Gt.pow (Pairing.pairing p q) (Fr.of_int (a * b)) in
      Pairing.Gt.equal lhs rhs)

let fft_roundtrip =
  prop ~count:20 "FFT . IFFT = id" (fun (k, _) -> Printf.sprintf "2^%d points" k)
    (Gen.bind (Gen.int_range 0 6) (fun k ->
         Gen.map (fun l -> (k, Array.of_list l))
           (Gen.list_size (Gen.return (1 lsl k)) Gz.fr)))
    (fun (k, xs) ->
      let d = Domain.create k in
      let roundtrip f g =
        let b = Fr.buf_of_array xs in
        f d b;
        g d b;
        Array.for_all2 Fr.equal (Fr.buf_to_array b) xs
      in
      roundtrip Domain.fft_buf Domain.ifft_buf
      && roundtrip Domain.coset_fft_buf Domain.coset_ifft_buf)

let poly_eval_vs_coeffs =
  prop ~count:100 "poly eval = Horner" (pp2 (pp_list pp_fr) pp_fr)
    (Gen.pair (Gen.list_size (Gen.int_range 0 8) Gz.fr) Gz.fr)
    (fun (coeffs, x) ->
      let p = Poly.of_coeffs (Array.of_list coeffs) in
      let horner =
        List.fold_right (fun c acc -> Fr.add c (Fr.mul x acc)) coeffs Fr.zero
      in
      Fr.equal (Poly.eval p x) horner)

let poly_mul_hom =
  prop ~count:40 "poly mul eval homomorphism"
    (pp3 (pp_list pp_fr) (pp_list pp_fr) pp_fr)
    (Gen.triple
       (Gen.list_size (Gen.int_range 0 6) Gz.fr)
       (Gen.list_size (Gen.int_range 0 6) Gz.fr)
       Gz.fr)
    (fun (ca, cb, x) ->
      let pa = Poly.of_coeffs (Array.of_list ca)
      and pb = Poly.of_coeffs (Array.of_list cb) in
      Fr.equal (Poly.eval (Poly.mul pa pb) x)
        (Fr.mul (Poly.eval pa x) (Poly.eval pb x)))

let hash_sensitivity =
  prop ~count:60 "hash determinism and sensitivity" (pp2 pp_fr pp_fr)
    (Gen.pair Gz.fr Gz.fr) (fun (a, b) ->
      Fr.equal (Poseidon.hash [ a; b ]) (Poseidon.hash [ a; b ])
      && Fr.equal (Mimc.hash [ a; b ]) (Mimc.hash [ a; b ])
      && (Fr.equal a b
         || (not (Fr.equal (Poseidon.hash [ a ]) (Poseidon.hash [ b ])))
            && not (Fr.equal (Mimc.hash [ a ]) (Mimc.hash [ b ]))))

let mimc_block_injective =
  prop ~count:60 "MiMC block cipher injective" (pp3 pp_fr pp_fr pp_fr)
    (Gen.triple Gz.fr Gz.fr Gz.fr) (fun (k, x, y) ->
      Fr.equal x y
      || not (Fr.equal (Mimc.encrypt_block k x) (Mimc.encrypt_block k y)))

let merkle_membership =
  prop ~count:30 "Merkle membership" Gz.pp_merkle_desc Gz.merkle_desc (fun d ->
      let tree, path = Gz.build_merkle d in
      let root = Merkle.root tree in
      let leaf = tree.Merkle.levels.(0).(d.Gz.index) in
      Merkle.verify_membership ~root ~leaf path
      && (not (Merkle.verify_membership ~root ~leaf:(Fr.add leaf Fr.one) path))
      && not
           (Merkle.verify_membership ~root:(Fr.add root Fr.one) ~leaf path))

(* Storage round-trips at chunk boundaries. *)
let storage_roundtrip =
  let interesting_len =
    let c = Storage.chunk_size in
    Gen.frequency
      [ (3, Gen.oneof_const [ 0; 1; c - 1; c; c + 1; (2 * c) - 1; 2 * c; (2 * c) + 7 ]);
        (1, Gen.int_range 0 300) ]
  in
  prop ~count:25 "storage put/get round-trip" (pp2 string_of_int string_of_int)
    (Gen.pair interesting_len (Gen.int_range 0 1000)) (fun (len, salt) ->
      let data = String.init len (fun i -> Char.chr ((i * 131 + salt) land 0xff)) in
      let net = Storage.create () in
      let a = Storage.add_node net ~id:"a" in
      let b = Storage.add_node net ~id:"b" in
      let cid = Storage.put net a data in
      let cid2 = Storage.put net a data in
      Storage.Cid.equal cid cid2
      && match Storage.get net b cid with Ok d -> String.equal d data | Error _ -> false)

let storage_codec_roundtrip =
  prop ~count:30 "storage Fr codec round-trip" (pp_list pp_fr)
    (Gen.list_size (Gen.int_range 0 12) Gz.fr) (fun l ->
      let arr = Array.of_list l in
      let back = Storage.Codec.decode (Storage.Codec.encode arr) in
      Array.length back = Array.length arr && Array.for_all2 Fr.equal back arr)

(* ---------------------------------------------------------------- *)
(* Differential harness: any two Proof_system backends on generated   *)
(* circuits (instantiated Plonk vs Groth16 below).                    *)
(* ---------------------------------------------------------------- *)

module Proof_system = Zkdet_core.Proof_system

(* Proof blinding randomness. Its own stream: determinism of the values
   under test never depends on how much blinding was drawn. *)
let prover_st = Test_util.rng ~salt:"properties-prover" ()

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

module Differential (A : Proof_system.S) (B : Proof_system.S) = struct
  module Check (P : Proof_system.S) = struct
    (* setup + prove + verify + serialization sanity, and rejection of a
       mutated witness, all through the shared backend signature. *)
    let run (compiled : Cs.compiled) (target : int option) =
      let pk = P.setup ~st:prover_st compiled in
      let proof = P.prove ~st:prover_st pk compiled in
      let accepts =
        P.verify (P.vk pk) compiled.Cs.public_values proof
        && String.length (P.proof_to_bytes proof) = P.proof_size_bytes proof
      in
      let rejects_mutation =
        match target with
        | None -> true
        | Some c ->
          (* bump the output wire of the last arithmetic gate *)
          let w = Array.copy compiled.Cs.witness in
          w.(c) <- Fr.add w.(c) Fr.one;
          let mutated = { compiled with Cs.witness = w } in
          (not (Cs.satisfied mutated))
          && raises_invalid (fun () -> P.prove ~st:prover_st pk mutated)
      in
      accepts && rejects_mutation
  end

  module Check_a = Check (A)
  module Check_b = Check (B)

  let check (d : Gz.circuit_desc) =
    let cs, target = Gz.build_circuit d in
    let compiled = Cs.compile cs in
    if not (Cs.satisfied compiled) then failwith "generated circuit not satisfied";
    Check_a.run compiled target && Check_b.run compiled target

  let property =
    (* >= 50 generated circuits per default run (scaled by ITERS). *)
    prop ~count:50
      (Printf.sprintf "differential: %s vs %s" A.name B.name)
      Gz.pp_circuit_desc Gz.circuit_desc check
end

module Diff_plonk_groth16 = Differential (Proof_system.Plonk) (Proof_system.Groth16)

let differential_plonk_groth16 = Diff_plonk_groth16.property

(* -- batched verification vs the per-proof verifier ------------------ *)

(* The RLC fold must be EXACTLY the conjunction of the individual
   verdicts, on generated circuit batches (mixed circuits in one batch)
   where any member may carry corrupted public inputs. *)
module Batch_differential (P : Proof_system.S) = struct
  let gen =
    Gen.list_size (Gen.int_range 0 3) (Gen.pair Gz.circuit_desc Gen.bool)

  let pp = pp_list (pp2 Gz.pp_circuit_desc string_of_bool)

  let check batch =
    let items =
      List.map
        (fun (d, corrupt) ->
          let cs, _ = Gz.build_circuit d in
          let compiled = Cs.compile cs in
          let pk = P.setup ~st:prover_st compiled in
          let proof = P.prove ~st:prover_st pk compiled in
          let publics =
            if corrupt && Array.length compiled.Cs.public_values > 0 then begin
              let p = Array.copy compiled.Cs.public_values in
              p.(0) <- Fr.add p.(0) Fr.one;
              p
            end
            else compiled.Cs.public_values
          in
          (P.vk pk, publics, proof))
        batch
    in
    P.verify_batch items
    = List.for_all (fun (vk, publics, proof) -> P.verify vk publics proof) items

  let property =
    prop ~count:8
      (Printf.sprintf "batch differential: %s" P.name)
      pp gen check
end

module Batch_plonk = Batch_differential (Proof_system.Plonk)
module Batch_groth16 = Batch_differential (Proof_system.Groth16)

(* -- batch determinism across parallel-domain counts ----------------- *)

let with_domains n f =
  let prev = Zkdet_parallel.Pool.num_domains () in
  Zkdet_parallel.Pool.set_num_domains n;
  Fun.protect ~finally:(fun () -> Zkdet_parallel.Pool.set_num_domains prev) f

(* The RLC scalars come from a Fiat-Shamir transcript and the fold from a
   sequential accumulation, so neither may depend on how many domains the
   parallel runtime uses (the on-chain verdict must be reproducible on
   any host). *)
let batch_determinism_case (module P : Proof_system.S) =
  Alcotest.test_case
    (P.name ^ ": batch scalars and verdict domain-independent")
    `Quick
    (fun () ->
      let small_circuit k =
        let cs = Cs.create () in
        let x = Fr.of_int (3 + k) in
        let pub = Cs.public_input cs (Fr.mul x x) in
        let w = Cs.fresh cs x in
        Cs.assert_equal cs (Cs.mul cs w w) pub;
        Cs.compile cs
      in
      let items =
        List.init 3 (fun k ->
            let compiled = small_circuit k in
            let pk = P.setup ~st:prover_st compiled in
            let proof = P.prove ~st:prover_st pk compiled in
            (P.vk pk, compiled.Cs.public_values, proof))
      in
      let run () = (P.batch_scalars items, P.verify_batch items) in
      let scalars1, ok1 = with_domains 1 run in
      let scalars4, ok4 = with_domains 4 run in
      Alcotest.(check bool) "verdict at 1 domain" true ok1;
      Alcotest.(check bool) "verdict at 4 domains" true ok4;
      Alcotest.(check bool) "same RLC scalars" true
        (List.for_all2 Fr.equal scalars1 scalars4);
      (* and the scalars are input-sensitive: a different batch order
         yields a different transcript *)
      let scalars_rev = P.batch_scalars (List.rev items) in
      Alcotest.(check bool) "scalars depend on batch contents" false
        (List.for_all2 Fr.equal scalars1 scalars_rev))

(* ---------------------------------------------------------------- *)
(* Model-based contract testing.                                     *)
(* ---------------------------------------------------------------- *)

let actors = [| Chain.Address.of_seed "alice"; Chain.Address.of_seed "bob";
                Chain.Address.of_seed "carol" |]
let alice = actors.(0)
let bob = actors.(1)
let funding = 100_000_000

let fresh_chain () =
  let chain = Chain.create () in
  Array.iter (fun a -> Chain.faucet chain a funding) actors;
  chain

(* Every receipt must at least pay the base transaction cost, and fees
   must be debited exactly (checked against the model's ledger). *)
let base_gas_ok (r : Chain.receipt) = r.Chain.gas_used >= 21_000

let succeeded (r : Chain.receipt) =
  match r.Chain.status with Ok () -> true | Error _ -> false

(* -- ERC-721 vs a naive ownership map -------------------------------- *)

let nft_model_prop (ops : Go.nft_op list) =
  let chain = fresh_chain () in
  let nft, _ = Erc721.deploy chain ~deployer:alice in
  let st = Test_util.rng ~salt:"properties-nft" () in
  (* reference model *)
  let owners : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let approvals : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let tokens = ref [] (* newest first *) in
  let fees = Array.make 3 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  let resolve_token i =
    match !tokens with
    | [] -> 999_999
    | l -> List.nth l (i mod List.length l)
  in
  List.iter
    (fun op ->
      match op with
      | Go.Mint { owner } ->
        let id, r =
          Erc721.mint nft chain ~sender:actors.(owner) ~recipient:actors.(owner)
            ~uri:"zb_prop" ~key_commitment:(Fr.random st)
            ~data_commitment:(Fr.random st) ~proof_refs:[]
        in
        check (succeeded r && base_gas_ok r);
        fees.(owner) <- fees.(owner) + r.Chain.gas_used;
        let id = Option.get id in
        Hashtbl.replace owners id owner;
        tokens := id :: !tokens
      | Go.Transfer { by; to_; token } | Go.Transfer_from { by; to_; token } ->
        let tok = resolve_token token in
        (* [from] is the true owner when the token exists, so the contract
           exercises only the authorization check. *)
        let from_idx = Option.value (Hashtbl.find_opt owners tok) ~default:by in
        let model_ok =
          match Hashtbl.find_opt owners tok with
          | None -> false
          | Some o -> o = by || Hashtbl.find_opt approvals tok = Some by
        in
        let r =
          Erc721.transfer_from nft chain ~sender:actors.(by)
            ~from:actors.(from_idx) ~to_:actors.(to_) ~token_id:tok
        in
        check (base_gas_ok r);
        fees.(by) <- fees.(by) + r.Chain.gas_used;
        check (succeeded r = model_ok);
        if model_ok then begin
          Hashtbl.replace owners tok to_;
          Hashtbl.remove approvals tok
        end
      | Go.Approve { by; spender; token } ->
        let tok = resolve_token token in
        let model_ok = Hashtbl.find_opt owners tok = Some by in
        let r =
          Erc721.approve nft chain ~sender:actors.(by) ~spender:actors.(spender)
            ~token_id:tok
        in
        check (base_gas_ok r);
        fees.(by) <- fees.(by) + r.Chain.gas_used;
        check (succeeded r = model_ok);
        if model_ok then Hashtbl.replace approvals tok spender
      | Go.Burn { by; token } ->
        let tok = resolve_token token in
        (* burn honors only the owner, never approvals *)
        let model_ok = Hashtbl.find_opt owners tok = Some by in
        let r = Erc721.burn nft chain ~sender:actors.(by) ~token_id:tok in
        check (base_gas_ok r);
        fees.(by) <- fees.(by) + r.Chain.gas_used;
        check (succeeded r = model_ok);
        if model_ok then begin
          Hashtbl.remove owners tok;
          Hashtbl.remove approvals tok;
          tokens := List.filter (fun t -> t <> tok) !tokens
        end)
    ops;
  (* final state: ownership, balances, and exact fee accounting (NFT ops
     move no value, so balance = funding - own gas) *)
  List.iter
    (fun tok ->
      check
        (Erc721.owner_of nft tok
        = Option.map (fun i -> actors.(i)) (Hashtbl.find_opt owners tok)))
    !tokens;
  Array.iteri
    (fun i a ->
      let model_count =
        Hashtbl.fold (fun _ o acc -> if o = i then acc + 1 else acc) owners 0
      in
      check (Erc721.balance_of nft a = model_count);
      if i > 0 then (* alice also paid the deploy *)
        check (Chain.balance chain a = funding - fees.(i)))
    actors;
  !ok

let nft_model_based =
  prop ~count:40 "model-based: erc721" (Go.pp_ops Go.pp_nft_op "; ")
    (Go.ops Go.nft_op) nft_model_prop

(* -- ZKCP escrow vs a status-machine model --------------------------- *)

type zkcp_model = {
  mutable z_status : [ `Locked | `Settled | `Refunded ];
  z_amount : int;
  z_deadline : int;
}

let zkcp_model_prop (ops : Go.escrow_op list) =
  let chain = fresh_chain () in
  let zkcp, _ = Zkcp.deploy chain ~deployer:actors.(2) in
  let st = Test_util.rng ~salt:"properties-zkcp" () in
  let k = Fr.random st in
  let h = Poseidon.hash [ k ] in
  let wrong_key = Fr.add k Fr.one in
  let deals = ref [] (* (chain id, model) newest first *) in
  let fees = Array.make 3 0 in
  let credits = Array.make 3 0 in
  (* buyer escrow debits, tracked separately from gas *)
  let escrowed = ref 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  let head () = (Chain.head chain).Chain.number in
  let resolve i =
    match !deals with
    | [] -> None
    | l -> Some (List.nth l (i mod List.length l))
  in
  let pay actor (r : Chain.receipt) =
    check (base_gas_ok r);
    fees.(actor) <- fees.(actor) + r.Chain.gas_used
  in
  List.iter
    (fun op ->
      match op with
      | Go.Lock { amount; window } ->
        let id, r =
          Zkcp.lock zkcp chain ~buyer:bob ~seller:alice ~amount ~h
            ~timeout_blocks:window
        in
        pay 1 r;
        check (succeeded r);
        escrowed := !escrowed + amount;
        deals :=
          (Option.get id,
           { z_status = `Locked; z_amount = amount; z_deadline = head () + window })
          :: !deals
      | Go.Reveal { deal; correct } -> (
        match resolve deal with
        | None ->
          let r =
            Zkcp.open_key zkcp chain ~seller:alice ~deal_id:999 ~key:k
          in
          pay 0 r;
          check (not (succeeded r))
        | Some (id, m) ->
          let key = if correct then k else wrong_key in
          let r = Zkcp.open_key zkcp chain ~seller:alice ~deal_id:id ~key in
          pay 0 r;
          let model_ok = m.z_status = `Locked && correct in
          check (succeeded r = model_ok);
          if model_ok then begin
            m.z_status <- `Settled;
            credits.(0) <- credits.(0) + m.z_amount
          end)
      | Go.Finalize { deal; by } -> (
        (* an open attempt by an arbitrary actor with the correct key *)
        match resolve deal with
        | None -> ()
        | Some (id, m) ->
          let r = Zkcp.open_key zkcp chain ~seller:actors.(by) ~deal_id:id ~key:k in
          pay by r;
          let model_ok = m.z_status = `Locked && by = 0 in
          check (succeeded r = model_ok);
          if model_ok then begin
            m.z_status <- `Settled;
            credits.(0) <- credits.(0) + m.z_amount
          end)
      | Go.Refund { deal; by } | Go.Complain { deal; by } -> (
        match resolve deal with
        | None -> ()
        | Some (id, m) ->
          let r = Zkcp.refund zkcp chain ~buyer:actors.(by) ~deal_id:id in
          pay by r;
          let model_ok = m.z_status = `Locked && by = 1 && head () >= m.z_deadline in
          check (succeeded r = model_ok);
          if model_ok then begin
            m.z_status <- `Refunded;
            credits.(1) <- credits.(1) + m.z_amount
          end)
      | Go.Mine { blocks } ->
        for _ = 1 to blocks do
          ignore (Chain.mine chain)
        done)
    ops;
  (* exact double-entry accounting: buyer paid escrow + gas and got
     refunds back; seller earned settlements minus gas *)
  check
    (Chain.balance chain alice = funding - fees.(0) + credits.(0));
  check
    (Chain.balance chain bob = funding - fees.(1) - !escrowed + credits.(1));
  !ok

let zkcp_model_based =
  prop ~count:40 "model-based: zkcp escrow" (Go.pp_ops Go.pp_escrow_op "; ")
    (Go.ops Go.escrow_op) zkcp_model_prop

(* -- FairSwap escrow vs a dispute-window model ----------------------- *)

type fs_model = {
  mutable f_status : [ `Locked | `Revealed | `Refunded | `Finalized ];
  f_amount : int;
  f_window : int;
  mutable f_reveal_block : int;
}

let fairswap_model_prop (ops : Go.escrow_op list) =
  let chain = fresh_chain () in
  let fs, _ = Fairswap_escrow.deploy chain ~deployer:actors.(2) in
  let st = Test_util.rng ~salt:"properties-fairswap" () in
  (* A cheating seller, so a valid misbehavior proof always exists. *)
  let advertised = Array.init 8 (fun i -> Fr.of_int (1000 + i)) in
  let actual = Array.init 8 (fun i -> Fr.of_int i) in
  let seller = Fairswap.seller_cheat ~st advertised actual in
  let r_c, r_d = Fairswap.roots seller in
  let h_k = Poseidon.hash [ seller.Fairswap.key ] in
  let wrong_key = Fr.add seller.Fairswap.key Fr.one in
  let pom =
    match
      Fairswap.buyer_check ~key:seller.Fairswap.key
        ~ciphertext:seller.Fairswap.ciphertext
        ~ciphertext_tree:seller.Fairswap.ciphertext_tree
        ~advertised_tree:seller.Fairswap.plaintext_tree
    with
    | Some p -> p
    | None -> failwith "cheating seller must be detectable"
  in
  let deals = ref [] in
  let fees = Array.make 3 0 in
  let credits = Array.make 3 0 in
  let escrowed = ref 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  let head () = (Chain.head chain).Chain.number in
  let resolve i =
    match !deals with
    | [] -> None
    | l -> Some (List.nth l (i mod List.length l))
  in
  let pay actor (r : Chain.receipt) =
    check (base_gas_ok r);
    fees.(actor) <- fees.(actor) + r.Chain.gas_used
  in
  List.iter
    (fun op ->
      match op with
      | Go.Lock { amount; window } ->
        let id, r =
          Fairswap_escrow.lock fs chain ~buyer:bob ~seller:alice ~amount
            ~root_ciphertext:r_c ~root_plaintext:r_d ~depth:seller.Fairswap.depth
            ~h_k ~dispute_window:window
        in
        pay 1 r;
        check (succeeded r);
        escrowed := !escrowed + amount;
        deals :=
          (Option.get id,
           { f_status = `Locked; f_amount = amount; f_window = window;
             f_reveal_block = 0 })
          :: !deals
      | Go.Reveal { deal; correct } -> (
        match resolve deal with
        | None -> ()
        | Some (id, m) ->
          let key = if correct then seller.Fairswap.key else wrong_key in
          let r = Fairswap_escrow.reveal_key fs chain ~seller:alice ~deal_id:id ~key in
          pay 0 r;
          let model_ok = m.f_status = `Locked && correct in
          check (succeeded r = model_ok);
          if model_ok then begin
            m.f_status <- `Revealed;
            m.f_reveal_block <- head ()
          end)
      | Go.Complain { deal; by } -> (
        match resolve deal with
        | None -> ()
        | Some (id, m) ->
          let r = Fairswap_escrow.complain fs chain ~buyer:actors.(by) ~deal_id:id pom in
          pay by r;
          let model_ok =
            m.f_status = `Revealed && by = 1
            && head () <= m.f_reveal_block + m.f_window
          in
          check (succeeded r = model_ok);
          if model_ok then begin
            m.f_status <- `Refunded;
            credits.(1) <- credits.(1) + m.f_amount
          end)
      | Go.Finalize { deal; by } -> (
        match resolve deal with
        | None -> ()
        | Some (id, m) ->
          let r = Fairswap_escrow.finalize fs chain ~seller:actors.(by) ~deal_id:id in
          pay by r;
          let model_ok =
            m.f_status = `Revealed && by = 0
            && head () > m.f_reveal_block + m.f_window
          in
          check (succeeded r = model_ok);
          if model_ok then begin
            m.f_status <- `Finalized;
            credits.(0) <- credits.(0) + m.f_amount
          end)
      | Go.Refund { deal; by } -> (
        (* a complaint attempt, routed through the same dispute logic *)
        match resolve deal with
        | None -> ()
        | Some (id, m) ->
          let r = Fairswap_escrow.complain fs chain ~buyer:actors.(by) ~deal_id:id pom in
          pay by r;
          let model_ok =
            m.f_status = `Revealed && by = 1
            && head () <= m.f_reveal_block + m.f_window
          in
          check (succeeded r = model_ok);
          if model_ok then begin
            m.f_status <- `Refunded;
            credits.(1) <- credits.(1) + m.f_amount
          end)
      | Go.Mine { blocks } ->
        for _ = 1 to blocks do
          ignore (Chain.mine chain)
        done)
    ops;
  check (Chain.balance chain alice = funding - fees.(0) + credits.(0));
  check (Chain.balance chain bob = funding - fees.(1) - !escrowed + credits.(1));
  !ok

let fairswap_model_based =
  prop ~count:25 "model-based: fairswap escrow" (Go.pp_ops Go.pp_escrow_op "; ")
    (Go.ops Go.escrow_op) fairswap_model_prop

(* -- Clock auction vs a price-decay model ---------------------------- *)

type auction_model = {
  a_seller : int;
  a_token : int;
  a_start : int;
  a_floor : int;
  a_decay : int;
  a_start_block : int;
  mutable a_status : [ `Open | `Sold | `Cancelled ];
}

let auction_model_prop (ops : Go.auction_op list) =
  let chain = fresh_chain () in
  let nft, _ = Erc721.deploy chain ~deployer:alice in
  let auction, _ = Auction.deploy chain ~deployer:alice nft in
  let st = Test_util.rng ~salt:"properties-auction" () in
  let listings = ref [] in
  let fees = Array.make 3 0 in
  let sales = Array.make 3 0 in
  (* value paid by each bidder / earned by each seller *)
  let spent = Array.make 3 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  let head () = (Chain.head chain).Chain.number in
  let price m = max m.a_floor (m.a_start - ((head () - m.a_start_block) * m.a_decay)) in
  let resolve i =
    match !listings with
    | [] -> None
    | l -> Some (List.nth l (i mod List.length l))
  in
  let pay actor (r : Chain.receipt) =
    check (base_gas_ok r);
    fees.(actor) <- fees.(actor) + r.Chain.gas_used
  in
  List.iter
    (fun op ->
      match op with
      | Go.List_token { seller; start_price; floor; decay } ->
        let tok, rm =
          Erc721.mint nft chain ~sender:actors.(seller) ~recipient:actors.(seller)
            ~uri:"zb_lot" ~key_commitment:(Fr.random st)
            ~data_commitment:(Fr.random st) ~proof_refs:[]
        in
        pay seller rm;
        check (succeeded rm);
        let tok = Option.get tok in
        let id, r =
          Auction.list_token auction chain ~seller:actors.(seller) ~token_id:tok
            ~start_price ~reserve_price:floor ~decay_per_block:decay
            ~predicate:"entries > 0"
        in
        pay seller r;
        check (succeeded r);
        listings :=
          (Option.get id,
           { a_seller = seller; a_token = tok; a_start = start_price;
             a_floor = floor; a_decay = decay; a_start_block = head ();
             a_status = `Open })
          :: !listings
      | Go.Bid { bidder; listing; offer } -> (
        match resolve listing with
        | None ->
          let r = Auction.bid auction chain ~bidder:actors.(bidder) ~listing_id:999 ~offer in
          pay bidder r;
          check (not (succeeded r))
        | Some (id, m) ->
          let p = price m in
          let model_ok = m.a_status = `Open && offer >= p in
          (* the contract charges the clock price, not the offer *)
          let r = Auction.bid auction chain ~bidder:actors.(bidder) ~listing_id:id ~offer in
          pay bidder r;
          check (succeeded r = model_ok);
          if model_ok then begin
            m.a_status <- `Sold;
            spent.(bidder) <- spent.(bidder) + p;
            sales.(m.a_seller) <- sales.(m.a_seller) + p;
            check (Erc721.owner_of nft m.a_token = Some actors.(bidder))
          end;
          (* the on-chain clock must agree with the model's *)
          check
            (Auction.current_price auction chain id
            = if m.a_status = `Open then Some (price m) else None))
      | Go.Cancel { by; listing } -> (
        match resolve listing with
        | None -> ()
        | Some (id, m) ->
          let r = Auction.cancel auction chain ~seller:actors.(by) ~listing_id:id in
          pay by r;
          let model_ok = m.a_status = `Open && by = m.a_seller in
          check (succeeded r = model_ok);
          if model_ok then m.a_status <- `Cancelled)
      | Go.Advance { blocks } ->
        for _ = 1 to blocks do
          ignore (Chain.mine chain)
        done)
    ops;
  Array.iteri
    (fun i a ->
      if i > 0 then
        check (Chain.balance chain a = funding - fees.(i) - spent.(i) + sales.(i)))
    actors;
  !ok

let auction_model_based =
  prop ~count:40 "model-based: clock auction" (Go.pp_ops Go.pp_auction_op "; ")
    (Go.ops Go.auction_op) auction_model_prop

(* -- Mempool + parallel block production ----------------------------- *)

module Tx = Zkdet_chain.Tx
module Pool = Zkdet_parallel.Pool

(* A random workload mixing disjoint transfers with bumps of a handful
   of shared storage slots (the conflicting part).  Senders draw
   contiguous nonces in submission order, so every batch is fully
   executable. *)
type load_op = Transfer of int * int * int | Bump of int * int
(* Transfer (sender, recipient, amount) | Bump (sender, slot) *)

let pp_load_op = function
  | Transfer (s, r, a) -> Printf.sprintf "transfer(%d->%d, %d)" s r a
  | Bump (s, slot) -> Printf.sprintf "bump(%d, slot%d)" s slot

let n_load_actors = 4

let load_op_gen =
  Gen.frequency
    [ (2,
       Gen.map3
         (fun s r a -> Transfer (s, r, a))
         (Gen.int_range 0 (n_load_actors - 1))
         (Gen.int_range 0 (n_load_actors - 1))
         (Gen.int_range 1 1_000));
      (1,
       Gen.map2
         (fun s slot -> Bump (s, slot))
         (Gen.int_range 0 (n_load_actors - 1))
         (Gen.int_range 0 2)) ]

let load_ops_gen = Gen.list_size (Gen.int_range 1 24) load_op_gen

(* Replay [ops] through the mempool in blocks of [block_size] at a given
   domain count; returns the chain. *)
let run_load_ops ~domains ~block_size ops =
  Pool.with_domains domains @@ fun () ->
  let chain = Chain.create () in
  let addr =
    Array.init n_load_actors (fun i ->
        Chain.Address.of_seed (Printf.sprintf "prop-load/%d" i))
  in
  Array.iter (fun a -> Chain.faucet chain a funding) addr;
  let nonces = Array.make n_load_actors 0 in
  let in_flight = ref 0 in
  List.iter
    (fun op ->
      let sender_idx, tx =
        match op with
        | Transfer (s, r, amount) ->
          let sender = addr.(s) and to_ = addr.(r) in
          ( s,
            Tx.make ~sender ~nonce:nonces.(s) ~label:"prop:transfer"
              ~contract:"bank"
              ~calldata:(Printf.sprintf "%d/%d" r amount)
              (fun env ->
                (match Chain.env_debit env sender amount with
                | Ok () -> ()
                | Error e -> raise (Chain.Revert (Chain.error_to_string e)));
                Chain.env_credit env to_ amount) )
        | Bump (s, slot) ->
          let key = Printf.sprintf "slot/%d" slot in
          ( s,
            Tx.make ~sender:addr.(s) ~nonce:nonces.(s) ~label:"prop:bump"
              ~contract:"ctr" ~calldata:key
              (fun env ->
                let n =
                  match Chain.env_storage_get env ~contract:"ctr" ~key with
                  | Some v -> int_of_string v
                  | None -> 0
                in
                Chain.env_storage_set env ~contract:"ctr" ~key
                  ~value:(string_of_int (n + 1))) )
      in
      (match Chain.submit chain tx with
      | Zkdet_chain.Mempool.Admitted -> ()
      | a ->
        failwith ("unexpected admit verdict: "
                  ^ Zkdet_chain.Mempool.admit_to_string a));
      nonces.(sender_idx) <- nonces.(sender_idx) + 1;
      incr in_flight;
      if !in_flight >= block_size then begin
        ignore (Chain.produce_block chain);
        in_flight := 0
      end)
    ops;
  if !in_flight > 0 then ignore (Chain.produce_block chain);
  chain

let load_parallel_prop ops =
  let seq = run_load_ops ~domains:1 ~block_size:6 ops in
  let par = run_load_ops ~domains:4 ~block_size:6 ops in
  (* 1. parallel and sequential execution agree byte-for-byte *)
  let same_state = String.equal (Chain.state_hash seq) (Chain.state_hash par) in
  (* 2. value conservation: total balances shrink by exactly the burned
     fees (transfers move value, failed debits move nothing) *)
  let total chain =
    List.fold_left
      (fun acc a -> acc + Chain.balance chain a)
      0
      (List.init n_load_actors (fun i ->
           Chain.Address.of_seed (Printf.sprintf "prop-load/%d" i)))
  in
  let fees chain =
    List.fold_left
      (fun acc (r : Chain.receipt) -> acc + r.Chain.gas_used)
      0 (Chain.receipts chain)
  in
  let conserved = total par = (n_load_actors * funding) - fees par in
  (* 3. every bump landed: per-slot counters equal the op counts *)
  let bumps_ok =
    List.for_all
      (fun slot ->
        let expect =
          List.length
            (List.filter (function Bump (_, s) -> s = slot | _ -> false) ops)
        in
        let got =
          match
            Chain.storage_get par ~contract:"ctr"
              ~key:(Printf.sprintf "slot/%d" slot)
          with
          | Some v -> int_of_string v
          | None -> 0
        in
        expect = got)
      [ 0; 1; 2 ]
  in
  (* 4. the pool drained and every nonce was consumed in order *)
  let drained = Chain.mempool_size par = 0 in
  same_state && conserved && bumps_ok && drained

let load_parallel_based =
  prop ~count:30 "mempool: parallel blocks match sequential"
    (pp_list pp_load_op) load_ops_gen load_parallel_prop

(* ---------------------------------------------------------------- *)

let () =
  Alcotest.run "zkdet_properties"
    [ ( "framework",
        [ Alcotest.test_case "replay determinism" `Quick selftest_replay;
          Alcotest.test_case "run-level replay" `Quick selftest_run_replay;
          Alcotest.test_case "int shrinks to bound" `Quick selftest_shrink_int;
          Alcotest.test_case "list shrinks to local minimum" `Quick
            selftest_shrink_list;
          Alcotest.test_case "shrinks stay in the size range" `Quick
            selftest_shrink_in_range;
          Alcotest.test_case "seed env plumbing" `Quick selftest_seed_env ] );
      ( "metamorphic",
        [ fr_laws; fr_inverse; fr_pow_hom; fq_laws; g1_group_laws;
          g1_scalar_distributes; g1_affine_validation; g2_group_laws;
          pairing_bilinear; fft_roundtrip; poly_eval_vs_coeffs; poly_mul_hom;
          hash_sensitivity; mimc_block_injective; merkle_membership;
          storage_roundtrip; storage_codec_roundtrip ] );
      ( "differential",
        [ differential_plonk_groth16; Batch_plonk.property;
          Batch_groth16.property;
          batch_determinism_case (module Proof_system.Plonk);
          batch_determinism_case (module Proof_system.Groth16) ] );
      ( "model-based",
        [ nft_model_based; zkcp_model_based; fairswap_model_based;
          auction_model_based; load_parallel_based ] ) ]
