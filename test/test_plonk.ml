module Fr = Zkdet_field.Bn254.Fr
module Cs = Zkdet_plonk.Cs
module Preprocess = Zkdet_plonk.Preprocess
module Prover = Zkdet_plonk.Prover
module Verifier = Zkdet_plonk.Verifier
module Proof = Zkdet_plonk.Proof
module Srs = Zkdet_kzg.Srs
module Gen = Zkdet_proptest.Gen
module Gz = Zkdet_proptest.Gen_zk

let rng = Test_util.rng ~salt:"plonk" ()
let srs = Srs.unsafe_generate ~st:(Test_util.rng ~salt:"plonk-srs" ()) ~size:300 ()

(* A toy circuit: prove knowledge of x, y with x*y + x + 3 = pub. *)
let build_toy ~x ~y =
  let cs = Cs.create () in
  let expected = Fr.add (Fr.add (Fr.mul x y) x) (Fr.of_int 3) in
  let pub = Cs.public_input cs expected in
  let xw = Cs.fresh cs x in
  let yw = Cs.fresh cs y in
  let xy = Cs.mul cs xw yw in
  let sum = Cs.add cs xy xw in
  let out = Cs.add_const cs sum (Fr.of_int 3) in
  Cs.assert_equal cs out pub;
  cs

let prove_and_verify cs =
  let compiled = Cs.compile cs in
  let pk = Preprocess.setup srs compiled in
  let proof = Prover.prove ~st:rng pk compiled in
  (pk, compiled, proof, Verifier.verify pk.Preprocess.vk compiled.Cs.public_values proof)

let test_completeness () =
  let cs = build_toy ~x:(Fr.of_int 5) ~y:(Fr.of_int 7) in
  let _, _, _, ok = prove_and_verify cs in
  Alcotest.(check bool) "honest proof verifies" true ok

let test_satisfied_check () =
  let cs = build_toy ~x:(Fr.of_int 2) ~y:(Fr.of_int 9) in
  let compiled = Cs.compile cs in
  Alcotest.(check bool) "witness satisfies" true (Cs.satisfied compiled)

let test_wrong_public_rejected () =
  let cs = build_toy ~x:(Fr.of_int 5) ~y:(Fr.of_int 7) in
  let compiled = Cs.compile cs in
  let pk = Preprocess.setup srs compiled in
  let proof = Prover.prove ~st:rng pk compiled in
  let bad_publics = Array.map (fun x -> Fr.add x Fr.one) compiled.Cs.public_values in
  Alcotest.(check bool) "wrong public input rejected" false
    (Verifier.verify pk.Preprocess.vk bad_publics proof)

let test_tampered_proof_rejected () =
  let cs = build_toy ~x:(Fr.of_int 5) ~y:(Fr.of_int 7) in
  let compiled = Cs.compile cs in
  let pk = Preprocess.setup srs compiled in
  let proof = Prover.prove ~st:rng pk compiled in
  let tampered = { proof with Proof.eval_a = Fr.add proof.Proof.eval_a Fr.one } in
  Alcotest.(check bool) "tampered eval rejected" false
    (Verifier.verify pk.Preprocess.vk compiled.Cs.public_values tampered);
  let tampered2 = { proof with Proof.cm_z = Zkdet_curve.G1.random rng } in
  Alcotest.(check bool) "tampered commitment rejected" false
    (Verifier.verify pk.Preprocess.vk compiled.Cs.public_values tampered2)

let test_bad_witness_rejected () =
  (* Build an unsatisfied circuit: claim a wrong public output. *)
  let cs = Cs.create () in
  let pub = Cs.public_input cs (Fr.of_int 999) in
  let xw = Cs.fresh cs (Fr.of_int 5) in
  let sq = Cs.mul cs xw xw in
  Cs.assert_equal cs sq pub;
  let compiled = Cs.compile cs in
  Alcotest.(check bool) "unsatisfied" false (Cs.satisfied compiled);
  let pk = Preprocess.setup srs compiled in
  Alcotest.check_raises "prover refuses"
    (Invalid_argument "Prover.prove: witness does not satisfy the circuit")
    (fun () -> ignore (Prover.prove ~st:rng pk compiled))

let test_proof_size_constant () =
  let sizes =
    List.map
      (fun ngates ->
        let cs = Cs.create () in
        let pub = Cs.public_input cs (Fr.of_int (2 * ngates)) in
        let acc = ref (Cs.constant cs Fr.zero) in
        for _ = 1 to ngates do
          acc := Cs.add_const cs !acc (Fr.of_int 2)
        done;
        Cs.assert_equal cs !acc pub;
        let compiled = Cs.compile cs in
        let pk = Preprocess.setup srs compiled in
        let proof = Prover.prove ~st:rng pk compiled in
        Alcotest.(check bool)
          (Printf.sprintf "verifies at %d gates" ngates)
          true
          (Verifier.verify pk.Preprocess.vk compiled.Cs.public_values proof);
        Proof.size_bytes proof)
      [ 4; 40; 200 ]
  in
  match sizes with
  | s1 :: rest ->
    List.iter (fun s -> Alcotest.(check int) "constant proof size" s1 s) rest;
    (* 9 uncompressed G1 points (65 bytes incl. tag) + 6 scalars (32) *)
    Alcotest.(check int) "expected size" ((9 * 65) + (6 * 32)) s1
  | [] -> Alcotest.fail "no sizes"

let test_multiple_publics () =
  let cs = Cs.create () in
  let a = Fr.of_int 11 and b = Fr.of_int 13 in
  let pa = Cs.public_input cs a in
  let pb = Cs.public_input cs b in
  let psum = Cs.public_input cs (Fr.add a b) in
  let sum = Cs.add cs pa pb in
  Cs.assert_equal cs sum psum;
  let _, _, _, ok = prove_and_verify cs in
  Alcotest.(check bool) "3 public inputs" true ok

let test_boolean_and_constants () =
  let cs = Cs.create () in
  let one_pub = Cs.public_input cs Fr.one in
  let b = Cs.fresh cs Fr.one in
  Cs.assert_boolean cs b;
  let c5 = Cs.constant cs (Fr.of_int 5) in
  let c5' = Cs.constant cs (Fr.of_int 5) in
  Alcotest.(check int) "constants cached" c5 c5';
  let prod = Cs.mul cs b one_pub in
  Cs.assert_equal cs prod b;
  let _, _, _, ok = prove_and_verify cs in
  Alcotest.(check bool) "boolean circuit ok" true ok

let test_proof_serialization () =
  let cs = build_toy ~x:(Fr.of_int 3) ~y:(Fr.of_int 8) in
  let compiled = Cs.compile cs in
  let pk = Preprocess.setup srs compiled in
  let proof = Prover.prove ~st:rng pk compiled in
  let bytes = Proof.wire_encode proof in
  Alcotest.(check int) "495 bytes" (4 + 2 + (9 * 33) + (6 * 32)) (String.length bytes);
  let back =
    match Proof.wire_decode bytes with
    | Ok p -> p
    | Error _ -> Alcotest.fail "the encoded proof does not decode"
  in
  Alcotest.(check string) "roundtrip stable" bytes (Proof.wire_encode back);
  Alcotest.(check bool) "deserialized proof verifies" true
    (Verifier.verify pk.Preprocess.vk compiled.Cs.public_values back);
  Alcotest.(check bool) "truncated rejected" true
    (Result.is_error (Proof.wire_decode (String.sub bytes 0 100)))

let test_transcript_binding () =
  let module T = Zkdet_plonk.Transcript in
  let t1 = T.create ~label:"x" in
  let t2 = T.create ~label:"x" in
  T.absorb_fr t1 ~label:"a" (Fr.of_int 1);
  T.absorb_fr t2 ~label:"a" (Fr.of_int 1);
  Alcotest.(check bool) "same absorptions, same challenge" true
    (Fr.equal (T.challenge_fr t1 ~label:"c") (T.challenge_fr t2 ~label:"c"));
  let t3 = T.create ~label:"x" in
  T.absorb_fr t3 ~label:"a" (Fr.of_int 2);
  let t4 = T.create ~label:"x" in
  T.absorb_fr t4 ~label:"b" (Fr.of_int 1);
  let c1 = T.challenge_fr t3 ~label:"c" and c2 = T.challenge_fr t4 ~label:"c" in
  Alcotest.(check bool) "value-sensitive" false
    (Fr.equal c1 (T.challenge_fr (T.create ~label:"x") ~label:"c"));
  Alcotest.(check bool) "label-sensitive" false (Fr.equal c1 c2);
  (* sequential challenges differ *)
  let t5 = T.create ~label:"x" in
  let a = T.challenge_fr t5 ~label:"c" in
  let b = T.challenge_fr t5 ~label:"c" in
  Alcotest.(check bool) "state advances" false (Fr.equal a b)

let test_proof_not_transferable () =
  (* A proof for one circuit/publics must not verify for another. *)
  let cs1 = build_toy ~x:(Fr.of_int 2) ~y:(Fr.of_int 3) in
  let cs2 = build_toy ~x:(Fr.of_int 4) ~y:(Fr.of_int 5) in
  let c1 = Cs.compile cs1 and c2 = Cs.compile cs2 in
  let pk1 = Preprocess.setup srs c1 in
  let proof1 = Prover.prove ~st:rng pk1 c1 in
  Alcotest.(check bool) "replay under other publics rejected" false
    (Verifier.verify pk1.Preprocess.vk c2.Cs.public_values proof1)

(* ---- adversarial soundness: every single-element proof mutation must be
   rejected (the paper's security claim for the 9 G1 + 6 Fr proof). ---- *)

let g1_mutations (p : Proof.t) =
  [ ("cm_a", fun q -> { p with Proof.cm_a = q });
    ("cm_b", fun q -> { p with Proof.cm_b = q });
    ("cm_c", fun q -> { p with Proof.cm_c = q });
    ("cm_z", fun q -> { p with Proof.cm_z = q });
    ("cm_t_lo", fun q -> { p with Proof.cm_t_lo = q });
    ("cm_t_mid", fun q -> { p with Proof.cm_t_mid = q });
    ("cm_t_hi", fun q -> { p with Proof.cm_t_hi = q });
    ("cm_w_zeta", fun q -> { p with Proof.cm_w_zeta = q });
    ("cm_w_zeta_omega", fun q -> { p with Proof.cm_w_zeta_omega = q }) ]

let fr_mutations (p : Proof.t) =
  [ ("eval_a", { p with Proof.eval_a = Fr.add p.Proof.eval_a Fr.one });
    ("eval_b", { p with Proof.eval_b = Fr.add p.Proof.eval_b Fr.one });
    ("eval_c", { p with Proof.eval_c = Fr.add p.Proof.eval_c Fr.one });
    ("eval_s1", { p with Proof.eval_s1 = Fr.add p.Proof.eval_s1 Fr.one });
    ("eval_s2", { p with Proof.eval_s2 = Fr.add p.Proof.eval_s2 Fr.one });
    ("eval_z_omega",
     { p with Proof.eval_z_omega = Fr.add p.Proof.eval_z_omega Fr.one }) ]

let test_soundness_single_element_mutations () =
  let module G1 = Zkdet_curve.G1 in
  let cs = build_toy ~x:(Fr.of_int 6) ~y:(Fr.of_int 9) in
  let compiled = Cs.compile cs in
  let pk = Preprocess.setup srs compiled in
  let proof = Prover.prove ~st:rng pk compiled in
  let publics = compiled.Cs.public_values in
  let verify = Verifier.verify pk.Preprocess.vk in
  Alcotest.(check bool) "baseline proof verifies" true (verify publics proof);
  (* each G1 element: replaced by a random point AND nudged by +G, so both
     far and near mutations are covered *)
  List.iter
    (fun (name, set) ->
      Alcotest.(check bool) (name ^ " <- random point rejected") false
        (verify publics (set (G1.random rng)));
      let original =
        List.nth (Proof.g1_points proof)
          (match name with
          | "cm_a" -> 0 | "cm_b" -> 1 | "cm_c" -> 2 | "cm_z" -> 3
          | "cm_t_lo" -> 4 | "cm_t_mid" -> 5 | "cm_t_hi" -> 6
          | "cm_w_zeta" -> 7 | _ -> 8)
      in
      Alcotest.(check bool) (name ^ " <- +G rejected") false
        (verify publics (set (G1.add original G1.generator))))
    (g1_mutations proof);
  (* each Fr evaluation: +1 *)
  List.iter
    (fun (name, mutated) ->
      Alcotest.(check bool) (name ^ " +1 rejected") false
        (verify publics mutated))
    (fr_mutations proof);
  (* each public input: +1 *)
  Array.iteri
    (fun i _ ->
      let bad = Array.copy publics in
      bad.(i) <- Fr.add bad.(i) Fr.one;
      Alcotest.(check bool)
        (Printf.sprintf "public input %d +1 rejected" i)
        false (verify bad proof))
    publics;
  (* wrong number of public inputs *)
  Alcotest.(check bool) "extra public input rejected" false
    (verify (Array.append publics [| Fr.one |]) proof);
  Alcotest.(check bool) "missing public input rejected" false
    (verify [||] proof)

let test_soundness_multi_public_circuit () =
  (* Same sweep over a circuit with several public inputs, so the
     Lagrange-interpolated PI polynomial is exercised at every index. *)
  let cs = Cs.create () in
  let a = Fr.of_int 17 and b = Fr.of_int 23 in
  let pa = Cs.public_input cs a in
  let pb = Cs.public_input cs b in
  let psum = Cs.public_input cs (Fr.add a b) in
  let sum = Cs.add cs pa pb in
  Cs.assert_equal cs sum psum;
  let compiled = Cs.compile cs in
  let pk = Preprocess.setup srs compiled in
  let proof = Prover.prove ~st:rng pk compiled in
  let publics = compiled.Cs.public_values in
  Alcotest.(check bool) "baseline verifies" true
    (Verifier.verify pk.Preprocess.vk publics proof);
  Array.iteri
    (fun i _ ->
      let bad = Array.copy publics in
      bad.(i) <- Fr.sub bad.(i) Fr.one;
      Alcotest.(check bool)
        (Printf.sprintf "public %d mutation rejected" i)
        false
        (Verifier.verify pk.Preprocess.vk bad proof))
    publics;
  List.iter
    (fun (name, mutated) ->
      Alcotest.(check bool) (name ^ " rejected") false
        (Verifier.verify pk.Preprocess.vk publics mutated))
    (fr_mutations proof)

let prop_completeness =
  Test_util.prop ~count:5 "completeness on random witnesses"
    (Test_util.pp2 Fr.to_string Fr.to_string)
    (Gen.pair Gz.fr Gz.fr) (fun (x, y) ->
      let cs = build_toy ~x ~y in
      let _, _, _, ok = prove_and_verify cs in
      ok)

let () =
  Alcotest.run "zkdet_plonk"
    [ ( "plonk",
        [ Alcotest.test_case "witness satisfaction" `Quick test_satisfied_check;
          Alcotest.test_case "completeness" `Quick test_completeness;
          Alcotest.test_case "wrong public rejected" `Quick test_wrong_public_rejected;
          Alcotest.test_case "tampered proof rejected" `Quick test_tampered_proof_rejected;
          Alcotest.test_case "bad witness rejected" `Quick test_bad_witness_rejected;
          Alcotest.test_case "proof size constant" `Slow test_proof_size_constant;
          Alcotest.test_case "multiple publics" `Quick test_multiple_publics;
          Alcotest.test_case "booleans and constants" `Quick test_boolean_and_constants;
          Alcotest.test_case "proof serialization" `Quick test_proof_serialization;
          Alcotest.test_case "transcript binding" `Quick test_transcript_binding;
          Alcotest.test_case "proof not transferable" `Quick test_proof_not_transferable ] );
      ( "soundness",
        [ Alcotest.test_case "single-element mutations rejected" `Slow
            test_soundness_single_element_mutations;
          Alcotest.test_case "multi-public mutations rejected" `Quick
            test_soundness_multi_public_circuit ] );
      ("plonk-properties", [ prop_completeness ]) ]
