module Fr = Zkdet_field.Bn254.Fr
module Cs = Zkdet_plonk.Cs
module Gadgets = Zkdet_circuit.Gadgets
module Fixed = Zkdet_circuit.Fixed_point
module Mimc = Zkdet_mimc.Mimc
module Mimc_gadget = Zkdet_circuit.Mimc_gadget
module Poseidon = Zkdet_poseidon.Poseidon
module Poseidon_gadget = Zkdet_circuit.Poseidon_gadget
module Merkle = Zkdet_circuit.Merkle
module Gen = Zkdet_proptest.Gen

let rng = Test_util.rng ~salt:"circuit" ()
let fr = Alcotest.testable Fr.pp Fr.equal

(* Build a circuit, return (cs, result-of-f) and check satisfiability. *)
let with_sat_check name f =
  let cs = Cs.create () in
  let out = f cs in
  let compiled = Cs.compile cs in
  Alcotest.(check bool) (name ^ ": satisfied") true (Cs.satisfied compiled);
  (cs, out)

let test_linear_combination () =
  let cs, w =
    with_sat_check "lc" (fun cs ->
        let a = Cs.fresh cs (Fr.of_int 3) in
        let b = Cs.fresh cs (Fr.of_int 4) in
        let c = Cs.fresh cs (Fr.of_int 5) in
        Gadgets.linear_combination cs
          [ (Fr.of_int 2, a); (Fr.of_int 3, b); (Fr.of_int 10, c) ]
          (Fr.of_int 7))
  in
  Alcotest.check fr "2*3+3*4+10*5+7" (Fr.of_int 75) (Cs.value cs w)

let test_booleans () =
  let cs, (band, bor, bxor, bnot) =
    with_sat_check "bool" (fun cs ->
        let t = Gadgets.boolean cs true in
        let f = Gadgets.boolean cs false in
        ( Gadgets.band cs t f, Gadgets.bor cs t f, Gadgets.bxor cs t t,
          Gadgets.bnot cs f ))
  in
  Alcotest.check fr "and" Fr.zero (Cs.value cs band);
  Alcotest.check fr "or" Fr.one (Cs.value cs bor);
  Alcotest.check fr "xor" Fr.zero (Cs.value cs bxor);
  Alcotest.check fr "not" Fr.one (Cs.value cs bnot)

let test_select () =
  let cs, (x, y) =
    with_sat_check "select" (fun cs ->
        let s1 = Gadgets.boolean cs true in
        let s0 = Gadgets.boolean cs false in
        let a = Cs.fresh cs (Fr.of_int 10) in
        let b = Cs.fresh cs (Fr.of_int 20) in
        (Gadgets.select cs s1 a b, Gadgets.select cs s0 a b))
  in
  Alcotest.check fr "select true" (Fr.of_int 10) (Cs.value cs x);
  Alcotest.check fr "select false" (Fr.of_int 20) (Cs.value cs y)

let test_is_zero () =
  let cs, (z1, z2) =
    with_sat_check "is_zero" (fun cs ->
        let zero = Cs.fresh cs Fr.zero in
        let nz = Cs.fresh cs (Fr.of_int 42) in
        (Gadgets.is_zero cs zero, Gadgets.is_zero cs nz))
  in
  Alcotest.check fr "is_zero 0" Fr.one (Cs.value cs z1);
  Alcotest.check fr "is_zero 42" Fr.zero (Cs.value cs z2)

let test_bits_roundtrip () =
  let cs, back =
    with_sat_check "bits" (fun cs ->
        let w = Cs.fresh cs (Fr.of_int 0b101101) in
        let bits = Gadgets.to_bits cs w ~nbits:8 in
        Gadgets.from_bits cs bits)
  in
  Alcotest.check fr "roundtrip" (Fr.of_int 0b101101) (Cs.value cs back)

let test_bits_overflow_unsat () =
  (* A value exceeding nbits makes the recomposition constraint fail. *)
  let cs = Cs.create () in
  let w = Cs.fresh cs (Fr.of_int 300) in
  ignore (Gadgets.to_bits cs w ~nbits:8);
  let compiled = Cs.compile cs in
  Alcotest.(check bool) "unsatisfied" false (Cs.satisfied compiled)

let test_less_than () =
  let check a b expect =
    let cs, lt =
      with_sat_check "lt" (fun cs ->
          let wa = Cs.fresh cs (Fr.of_int a) in
          let wb = Cs.fresh cs (Fr.of_int b) in
          Gadgets.less_than cs wa wb ~nbits:16)
    in
    Alcotest.check fr
      (Printf.sprintf "%d < %d" a b)
      (if expect then Fr.one else Fr.zero)
      (Cs.value cs lt)
  in
  check 3 5 true;
  check 5 3 false;
  check 7 7 false;
  check 0 65535 true;
  check 65535 0 false

let test_matrix_ops () =
  let cs, prod =
    with_sat_check "matmul" (fun cs ->
        let w v = Cs.fresh cs (Fr.of_int v) in
        let a = [| [| w 1; w 2 |]; [| w 3; w 4 |] |] in
        let b = [| [| w 5; w 6 |]; [| w 7; w 8 |] |] in
        Gadgets.mat_mul cs a b)
  in
  let expected = [| [| 19; 22 |]; [| 43; 50 |] |] in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          Alcotest.check fr
            (Printf.sprintf "m(%d,%d)" i j)
            (Fr.of_int expected.(i).(j))
            (Cs.value cs v))
        row)
    prod

let test_mimc_gadget_matches_native () =
  let key = Fr.random rng and m = Fr.random rng in
  let cs, out =
    with_sat_check "mimc" (fun cs ->
        let kw = Cs.fresh cs key in
        let mw = Cs.fresh cs m in
        Mimc_gadget.encrypt_block cs ~key:kw mw)
  in
  Alcotest.check fr "in-circuit = native" (Mimc.encrypt_block key m) (Cs.value cs out)

let test_mimc_ctr_gadget () =
  let key = Fr.random rng and nonce = Fr.random rng in
  let pt = Array.init 4 (fun _ -> Fr.random rng) in
  let ct = Mimc.Ctr.encrypt ~key ~nonce pt in
  let _ =
    with_sat_check "mimc-ctr" (fun cs ->
        let kw = Cs.fresh cs key in
        let nw = Cs.fresh cs nonce in
        let ptw = Array.map (Cs.fresh cs) pt in
        let ctw = Array.map (Cs.fresh cs) ct in
        Mimc_gadget.assert_ctr_encryption cs ~key:kw ~nonce:nw ptw ctw)
  in
  (* Wrong ciphertext must be unsatisfiable. *)
  let cs = Cs.create () in
  let kw = Cs.fresh cs key in
  let nw = Cs.fresh cs nonce in
  let ptw = Array.map (Cs.fresh cs) pt in
  let bad_ct = Array.copy ct in
  bad_ct.(2) <- Fr.add bad_ct.(2) Fr.one;
  let ctw = Array.map (Cs.fresh cs) bad_ct in
  Mimc_gadget.assert_ctr_encryption cs ~key:kw ~nonce:nw ptw ctw;
  Alcotest.(check bool) "bad ct unsat" false (Cs.satisfied (Cs.compile cs))

let test_poseidon_gadget_matches_native () =
  let a = Fr.random rng and b = Fr.random rng and c = Fr.random rng in
  let cs, out =
    with_sat_check "poseidon" (fun cs ->
        let ws = List.map (Cs.fresh cs) [ a; b; c ] in
        Poseidon_gadget.hash cs ws)
  in
  Alcotest.check fr "in-circuit = native" (Poseidon.hash [ a; b; c ]) (Cs.value cs out)

let test_commitment_gadget () =
  let msgs = [ Fr.random rng; Fr.random rng ] in
  let c, o = Poseidon.Commitment.commit ~st:rng msgs in
  let _ =
    with_sat_check "commit-open" (fun cs ->
        let cw = Cs.fresh cs c in
        let ow = Cs.fresh cs o in
        let msgws = List.map (Cs.fresh cs) msgs in
        Poseidon_gadget.assert_commitment_opens cs ~commitment:cw msgws ~opening:ow)
  in
  (* Wrong opening is unsatisfiable. *)
  let cs = Cs.create () in
  let cw = Cs.fresh cs c in
  let ow = Cs.fresh cs (Fr.add o Fr.one) in
  let msgws = List.map (Cs.fresh cs) msgs in
  Poseidon_gadget.assert_commitment_opens cs ~commitment:cw msgws ~opening:ow;
  Alcotest.(check bool) "wrong opening unsat" false (Cs.satisfied (Cs.compile cs))

let test_merkle_tree () =
  let leaves = Array.init 10 (fun i -> Fr.of_int (100 + i)) in
  let tree = Merkle.build ~depth:4 leaves in
  let root = Merkle.root tree in
  for i = 0 to 9 do
    let path = Merkle.prove_membership tree i in
    Alcotest.(check bool)
      (Printf.sprintf "member %d" i)
      true
      (Merkle.verify_membership ~root ~leaf:leaves.(i) path)
  done;
  let path = Merkle.prove_membership tree 3 in
  Alcotest.(check bool) "wrong leaf fails" false
    (Merkle.verify_membership ~root ~leaf:(Fr.of_int 999) path)

let test_merkle_gadget () =
  let leaves = Array.init 8 (fun i -> Fr.of_int (7 * i)) in
  let tree = Merkle.build ~depth:3 leaves in
  let path = Merkle.prove_membership tree 5 in
  let _ =
    with_sat_check "merkle-gadget" (fun cs ->
        let rw = Cs.fresh cs (Merkle.root tree) in
        let lw = Cs.fresh cs leaves.(5) in
        Merkle.assert_membership cs ~root_wire:rw ~leaf:lw path)
  in
  (* wrong root unsatisfiable *)
  let cs = Cs.create () in
  let rw = Cs.fresh cs (Fr.random rng) in
  let lw = Cs.fresh cs leaves.(5) in
  Merkle.assert_membership cs ~root_wire:rw ~leaf:lw path;
  Alcotest.(check bool) "wrong root unsat" false (Cs.satisfied (Cs.compile cs))

(* ---- fixed point ---- *)

let close ?(tol = 0.01) name expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %f, got %f" name expected actual

let test_fixed_point_basics () =
  let cs, (m, d, r, a) =
    with_sat_check "fixed" (fun cs ->
        let x = Fixed.constant cs 3.5 in
        let y = Fixed.constant cs (-2.25) in
        ( Fixed.mul cs x y, Fixed.div cs x y, Fixed.relu cs y, Fixed.abs cs y ))
  in
  close "3.5 * -2.25" (-7.875) (Fixed.to_float (Cs.value cs m));
  close "3.5 / -2.25" (-1.5555) (Fixed.to_float (Cs.value cs d));
  close "relu(-2.25)" 0.0 (Fixed.to_float (Cs.value cs r));
  close "abs(-2.25)" 2.25 (Fixed.to_float (Cs.value cs a))

let test_fixed_point_roundtrip () =
  List.iter
    (fun x -> close "of/to float" x (Fixed.to_float (Fixed.of_float x)))
    [ 0.0; 1.0; -1.0; 3.14159; -123.456; 0.0001 ]

let test_fixed_exp_sigmoid () =
  let cs, (e1, s0, s2) =
    with_sat_check "exp" (fun cs ->
        let one = Fixed.constant cs 1.0 in
        let zero = Fixed.constant cs 0.0 in
        let two = Fixed.constant cs 2.0 in
        (Fixed.exp cs one, Fixed.sigmoid cs zero, Fixed.sigmoid cs two))
  in
  close ~tol:0.02 "e^1" 2.718 (Fixed.to_float (Cs.value cs e1));
  close ~tol:0.02 "sigmoid(0)" 0.5 (Fixed.to_float (Cs.value cs s0));
  close ~tol:0.05 "sigmoid(2)" 0.8808 (Fixed.to_float (Cs.value cs s2))

let test_fixed_softplus () =
  let cs, (s0, s1) =
    with_sat_check "softplus" (fun cs ->
        let zero = Fixed.constant cs 0.0 in
        let one = Fixed.constant cs 1.0 in
        (Fixed.softplus cs zero, Fixed.softplus cs one))
  in
  close ~tol:0.02 "softplus(0)" (Float.log 2.0) (Fixed.to_float (Cs.value cs s0));
  close ~tol:0.05 "softplus(1)" 1.3133 (Fixed.to_float (Cs.value cs s1))

let test_value_mirrors_gadgets () =
  (* Fixed.Value must reproduce the gadget arithmetic bit-for-bit — the
     soundness basis of the pure processing specs. *)
  let inputs = [ 0.75; -0.4; 1.2; -1.9; 0.001 ] in
  List.iter
    (fun x ->
      let vx = Fixed.of_float x in
      let cs = Cs.create () in
      let wx = Cs.fresh cs vx in
      let m = Fixed.mul cs wx (Fixed.constant cs 0.3) in
      let d = Fixed.div cs wx (Fixed.constant cs 1.7) in
      let e = Fixed.exp cs wx in
      let r = Fixed.relu cs wx in
      Alcotest.(check bool) "circuit satisfiable" true (Cs.satisfied (Cs.compile cs));
      let vm = Fixed.Value.mul vx (Fixed.of_float 0.3) in
      let vd = Fixed.Value.div vx (Fixed.of_float 1.7) in
      let ve = Fixed.Value.exp vx in
      let vr = Fixed.Value.relu vx in
      Alcotest.check fr "mul mirrors" vm (Cs.value cs m);
      Alcotest.check fr "div mirrors" vd (Cs.value cs d);
      Alcotest.check fr "exp mirrors" ve (Cs.value cs e);
      Alcotest.check fr "relu mirrors" vr (Cs.value cs r))
    inputs

let test_split_memoization_consistent () =
  (* Reusing a wire across many fixed-point ops must not change results
     or satisfiability (the memo cache is an optimization only). *)
  let cs = Cs.create () in
  let x = Fixed.constant cs (-2.5) in
  let y = Cs.fresh cs (Fixed.of_float 3.0) in
  let a = Fixed.mul cs x y in
  let b = Fixed.mul cs x y in
  let c = Fixed.mul cs y x in
  Alcotest.check fr "repeated mul deterministic" (Cs.value cs a) (Cs.value cs b);
  Alcotest.check fr "commutative" (Cs.value cs a) (Cs.value cs c);
  Alcotest.(check bool) "still satisfiable" true (Cs.satisfied (Cs.compile cs))

(* ---- end-to-end: prove knowledge of a Poseidon preimage ---- *)

let test_preimage_proof_end_to_end () =
  let secret = Fr.of_int 123456789 in
  let digest = Poseidon.hash [ secret ] in
  let cs = Cs.create () in
  let pub = Cs.public_input cs digest in
  let sw = Cs.fresh cs secret in
  let hw = Poseidon_gadget.hash cs [ sw ] in
  Cs.assert_equal cs hw pub;
  let compiled = Cs.compile cs in
  Alcotest.(check bool) "satisfied" true (Cs.satisfied compiled);
  let srs = Zkdet_kzg.Srs.unsafe_generate ~st:(Test_util.rng ~salt:"circuit-srs" ()) ~size:2100 () in
  let pk = Zkdet_plonk.Preprocess.setup srs compiled in
  let proof = Zkdet_plonk.Prover.prove ~st:rng pk compiled in
  Alcotest.(check bool) "preimage proof verifies" true
    (Zkdet_plonk.Verifier.verify pk.Zkdet_plonk.Preprocess.vk
       compiled.Cs.public_values proof)

let props =
  let prop = Test_util.prop in
  [ prop ~count:50 "less_than matches ints"
      (Test_util.pp2 string_of_int string_of_int)
      (Gen.pair (Gen.int_range 0 10000) (Gen.int_range 0 10000)) (fun (a, b) ->
        let cs = Cs.create () in
        let wa = Cs.fresh cs (Fr.of_int a) in
        let wb = Cs.fresh cs (Fr.of_int b) in
        let lt = Gadgets.less_than cs wa wb ~nbits:14 in
        Cs.satisfied (Cs.compile cs) && Fr.equal (Cs.value cs lt)
          (if a < b then Fr.one else Fr.zero));
    prop ~count:30 "fixed mul close to float mul"
      (Test_util.pp2 (Printf.sprintf "%.17g") (Printf.sprintf "%.17g"))
      (Gen.pair (Gen.float_range (-50.) 50.) (Gen.float_range (-50.) 50.))
      (fun (x, y) ->
        let cs = Cs.create () in
        let wx = Fixed.constant cs x in
        let wy = Fixed.constant cs y in
        let m = Fixed.mul cs wx wy in
        Cs.satisfied (Cs.compile cs)
        && Float.abs (Fixed.to_float (Cs.value cs m) -. (x *. y)) < 0.01) ]

let () =
  Alcotest.run "zkdet_circuit"
    [ ( "gadgets",
        [ Alcotest.test_case "linear combination" `Quick test_linear_combination;
          Alcotest.test_case "booleans" `Quick test_booleans;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "is_zero" `Quick test_is_zero;
          Alcotest.test_case "bits roundtrip" `Quick test_bits_roundtrip;
          Alcotest.test_case "bits overflow unsat" `Quick test_bits_overflow_unsat;
          Alcotest.test_case "less_than" `Quick test_less_than;
          Alcotest.test_case "matrix ops" `Quick test_matrix_ops ] );
      ( "crypto-gadgets",
        [ Alcotest.test_case "mimc matches native" `Quick test_mimc_gadget_matches_native;
          Alcotest.test_case "mimc ctr" `Quick test_mimc_ctr_gadget;
          Alcotest.test_case "poseidon matches native" `Quick
            test_poseidon_gadget_matches_native;
          Alcotest.test_case "commitment opening" `Quick test_commitment_gadget;
          Alcotest.test_case "merkle tree" `Quick test_merkle_tree;
          Alcotest.test_case "merkle gadget" `Quick test_merkle_gadget ] );
      ( "fixed-point",
        [ Alcotest.test_case "basics" `Quick test_fixed_point_basics;
          Alcotest.test_case "float roundtrip" `Quick test_fixed_point_roundtrip;
          Alcotest.test_case "exp/sigmoid" `Quick test_fixed_exp_sigmoid;
          Alcotest.test_case "softplus" `Quick test_fixed_softplus;
          Alcotest.test_case "value mirrors gadgets" `Quick test_value_mirrors_gadgets;
          Alcotest.test_case "split memoization" `Quick test_split_memoization_consistent ] );
      ( "end-to-end",
        [ Alcotest.test_case "poseidon preimage snark" `Slow
            test_preimage_proof_end_to_end ] );
      ("properties", props) ]
