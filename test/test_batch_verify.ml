(* Adversarial soundness suite for batched verification (ISSUE 6).

   The RLC fold replaces N pairing checks with one, so the thing that
   must not regress is REJECTION: a forged batch member has to sink the
   whole batch no matter where it sits.  For each backend the suite
   builds a block of four proofs of distinct statements and then sweeps
   every slot with every single-element forgery — swapping in another
   member's proof, flipping a public input, swapping in another member's
   vk — asserting the batch rejects each time.  Valid blocks (including
   mixed-circuit blocks), the empty block and singletons pin the accept
   side; the scalar tests pin the Fiat-Shamir derivation the fold's
   soundness argument relies on. *)

module Fr = Zkdet_field.Bn254.Fr
module Cs = Zkdet_plonk.Cs
module Proof_system = Zkdet_core.Proof_system

let replace l i x = List.mapi (fun j y -> if j = i then x else y) l
let nth = List.nth

module Make (P : Proof_system.S) = struct
  let prover_st = Test_util.rng ~salt:("batch-verify-" ^ P.name) ()

  (* Distinct statements with the same public arity: slot k proves
     knowledge of a square root of the public value (5+k)^2, so a
     cross-slot proof swap is only caught cryptographically, not by an
     arity check.  The slot-distinct constant gate keeps the four vks
     different even under Plonk's deterministic setup (the vk-swap sweep
     would otherwise be vacuous there). *)
  let square_circuit k =
    let cs = Cs.create () in
    let x = Fr.of_int (5 + k) in
    let pub = Cs.public_input cs (Fr.mul x x) in
    let w = Cs.fresh cs x in
    Cs.assert_equal cs (Cs.mul cs w w) pub;
    ignore (Cs.add_const cs w (Fr.of_int (100 + k)));
    Cs.compile cs

  (* A different shape entirely, for the mixed-circuit batch: knowledge
     of factors behind a public product and sum. *)
  let factor_circuit () =
    let cs = Cs.create () in
    let x = Fr.of_int 11 and y = Fr.of_int 13 in
    let prod = Cs.public_input cs (Fr.mul x y) in
    let sum = Cs.public_input cs (Fr.add x y) in
    let xw = Cs.fresh cs x in
    let yw = Cs.fresh cs y in
    Cs.assert_equal cs (Cs.mul cs xw yw) prod;
    Cs.assert_equal cs (Cs.add cs xw yw) sum;
    Cs.compile cs

  let item_of compiled =
    let pk = P.setup ~st:prover_st compiled in
    let proof = P.prove ~st:prover_st pk compiled in
    (P.vk pk, compiled.Cs.public_values, proof)

  let batch = lazy (List.init 4 (fun k -> item_of (square_circuit k)))
  let mixed_item = lazy (item_of (factor_circuit ()))

  let valid_accepts () =
    Alcotest.(check bool) "4 valid proofs accept" true
      (P.verify_batch (Lazy.force batch))

  let mixed_accepts () =
    Alcotest.(check bool) "mixed-circuit batch accepts" true
      (P.verify_batch (Lazy.force batch @ [ Lazy.force mixed_item ]))

  let empty_accepts () =
    Alcotest.(check bool) "empty batch accepts" true (P.verify_batch [])

  let singleton_matches_verify () =
    let ((vk, publics, proof) as item) = nth (Lazy.force batch) 0 in
    Alcotest.(check bool) "valid singleton" (P.verify vk publics proof)
      (P.verify_batch [ item ]);
    let bad = Array.copy publics in
    bad.(0) <- Fr.add bad.(0) Fr.one;
    Alcotest.(check bool) "invalid singleton" (P.verify vk bad proof)
      (P.verify_batch [ (vk, bad, proof) ])

  (* One forged slot sinks the batch, wherever it sits. *)
  let sweep name forge () =
    let batch = Lazy.force batch in
    List.iteri
      (fun i _ ->
        Alcotest.(check bool)
          (Printf.sprintf "%s at slot %d rejects" name i)
          false
          (P.verify_batch (replace batch i (forge batch i))))
      batch

  let proof_swap_rejects =
    sweep "proof swap" (fun batch i ->
        let vk, publics, _ = nth batch i in
        let _, _, other = nth batch ((i + 1) mod List.length batch) in
        (vk, publics, other))

  let public_flip_rejects =
    sweep "public flip" (fun batch i ->
        let vk, publics, proof = nth batch i in
        let bad = Array.copy publics in
        bad.(0) <- Fr.add bad.(0) Fr.one;
        (vk, bad, proof))

  let vk_swap_rejects =
    sweep "vk swap" (fun batch i ->
        let _, publics, proof = nth batch i in
        let other_vk, _, _ = nth batch ((i + 1) mod List.length batch) in
        (other_vk, publics, proof))

  (* The RLC scalars: same batch, same scalars (replayable transcript);
     any change to a member changes them (no precomputable fold). *)
  let scalars_deterministic () =
    let batch = Lazy.force batch in
    let s1 = P.batch_scalars batch and s2 = P.batch_scalars batch in
    Alcotest.(check bool) "same batch, same scalars" true
      (List.for_all2 Fr.equal s1 s2);
    let vk, publics, proof = nth batch 0 in
    let bad = Array.copy publics in
    bad.(0) <- Fr.add bad.(0) Fr.one;
    let s3 = P.batch_scalars (replace batch 0 (vk, bad, proof)) in
    Alcotest.(check bool) "mutated member, different scalars" false
      (List.for_all2 Fr.equal s1 s3)

  let tests =
    ( P.name,
      [ Alcotest.test_case "batch of valid proofs accepts" `Quick valid_accepts;
        Alcotest.test_case "mixed-circuit batch accepts" `Quick mixed_accepts;
        Alcotest.test_case "empty batch accepts" `Quick empty_accepts;
        Alcotest.test_case "singleton agrees with verify" `Quick
          singleton_matches_verify;
        Alcotest.test_case "proof swap rejects at every slot" `Quick
          proof_swap_rejects;
        Alcotest.test_case "public flip rejects at every slot" `Quick
          public_flip_rejects;
        Alcotest.test_case "vk swap rejects at every slot" `Quick
          vk_swap_rejects;
        Alcotest.test_case "RLC scalars deterministic and input-bound" `Quick
          scalars_deterministic ] )
end

module Plonk_suite = Make (Proof_system.Plonk)
module Groth16_suite = Make (Proof_system.Groth16)

let () =
  Alcotest.run "zkdet_batch_verify" [ Plonk_suite.tests; Groth16_suite.tests ]
