(* Determinism and robustness tests for the zkdet_parallel fork-join
   runtime: every prover kernel must produce byte-identical results with
   ZKDET_DOMAINS=1 and 4, and the pool must survive edge cases (empty
   ranges, tiny inputs, exceptions thrown mid-batch). *)

module Pool = Zkdet_parallel.Pool
module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Pairing = Zkdet_curve.Pairing
module Domain = Zkdet_poly.Domain
module Srs = Zkdet_kzg.Srs
module Kzg = Zkdet_kzg.Kzg
module Cs = Zkdet_plonk.Cs
module Preprocess = Zkdet_plonk.Preprocess
module Prover = Zkdet_plonk.Prover
module Verifier = Zkdet_plonk.Verifier
module Proof = Zkdet_plonk.Proof
module Gen = Zkdet_proptest.Gen
module Gz = Zkdet_proptest.Gen_zk

let srs = Srs.unsafe_generate ~st:(Test_util.rng ~salt:"parallel-srs" ()) ~size:300 ()

(* Run the same computation under 1 and 4 total domains. *)
let both f = (Pool.with_domains 1 f, Pool.with_domains 4 f)

let fr_array_bytes a =
  String.concat "" (Array.to_list (Array.map Fr.to_bytes_be a))

(* ---- pool unit tests ---- *)

let test_parallel_for_basic () =
  Pool.with_domains 4 (fun () ->
      let n = 1000 in
      let out = Array.make n 0 in
      Pool.parallel_for 0 n (fun i -> out.(i) <- i * i);
      Alcotest.(check bool) "all indices written" true
        (Array.for_all2 ( = ) out (Array.init n (fun i -> i * i)));
      (* empty and reversed ranges are no-ops *)
      Pool.parallel_for 5 5 (fun _ -> Alcotest.fail "empty range ran");
      Pool.parallel_for 7 3 (fun _ -> Alcotest.fail "reversed range ran");
      (* n smaller than the chunk count *)
      let tiny = Array.make 3 0 in
      Pool.parallel_for ~chunks:32 0 3 (fun i -> tiny.(i) <- i + 1);
      Alcotest.(check bool) "n < chunks" true (tiny = [| 1; 2; 3 |]))

let test_map_and_init_edge_cases () =
  Pool.with_domains 4 (fun () ->
      Alcotest.(check int) "map on empty" 0
        (Array.length (Pool.parallel_map_array (fun x -> x + 1) [||]));
      Alcotest.(check int) "init 0" 0 (Array.length (Pool.parallel_init 0 (fun i -> i)));
      Alcotest.(check bool) "map singleton" true
        (Pool.parallel_map_array (fun x -> 2 * x) [| 21 |] = [| 42 |]);
      Alcotest.(check bool) "init matches Array.init" true
        (Pool.parallel_init 100 (fun i -> 3 * i) = Array.init 100 (fun i -> 3 * i)))

let test_parallel_reduce () =
  let sum lo hi =
    Pool.parallel_reduce ~neutral:0 ~combine:( + ) lo hi (fun i -> i)
  in
  let seq, par = both (fun () -> sum 0 1000) in
  Alcotest.(check int) "sum formula" (999 * 1000 / 2) seq;
  Alcotest.(check int) "1 vs 4 domains" seq par;
  Pool.with_domains 4 (fun () ->
      Alcotest.(check int) "empty reduce" 0 (sum 3 3);
      Alcotest.(check int) "singleton reduce" 7 (sum 7 8);
      Alcotest.(check int) "chunks=1" (999 * 1000 / 2)
        (Pool.parallel_reduce ~chunks:1 ~neutral:0 ~combine:( + ) 0 1000 (fun i -> i)))

let test_exception_and_reuse () =
  Pool.with_domains 4 (fun () ->
      (* An exception from any task must reach the caller... *)
      Alcotest.check_raises "task exception propagates" (Failure "boom")
        (fun () -> Pool.parallel_for 0 100 (fun i -> if i = 99 then failwith "boom"));
      Alcotest.check_raises "caller-chunk exception propagates" (Failure "early")
        (fun () -> Pool.parallel_for 0 100 (fun i -> if i = 0 then failwith "early"));
      (* ...and the pool must stay usable afterwards. *)
      let out = Array.make 64 0 in
      Pool.parallel_for 0 64 (fun i -> out.(i) <- i);
      Alcotest.(check bool) "pool reusable after exception" true
        (out = Array.init 64 (fun i -> i));
      Alcotest.(check int) "reduce after exception" 2016
        (Pool.parallel_reduce ~neutral:0 ~combine:( + ) 0 64 (fun i -> i)))

let test_config () =
  Alcotest.check_raises "0 domains rejected"
    (Invalid_argument "Pool.set_num_domains: need at least 1 domain") (fun () ->
      Pool.set_num_domains 0);
  let before = Pool.num_domains () in
  let inside = Pool.with_domains 3 (fun () -> Pool.num_domains ()) in
  Alcotest.(check int) "with_domains applies" 3 inside;
  Alcotest.(check int) "with_domains restores" before (Pool.num_domains ());
  (* restore also on exception *)
  (try Pool.with_domains 2 (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "restored after exception" before (Pool.num_domains ())

(* ---- kernel determinism (1 vs 4 domains, byte-identical) ---- *)

let toy_circuit ~x ~y =
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

(* Exactly [n] coefficients, shrunk forms included. *)
let coeffs n = Gen.array_size (Gen.return n) Gz.fr

(* Transforms run in place on buffers; this copies in and out. *)
let transform f d (a : Fr.t array) =
  let b = Fr.buf_of_array a in
  f d b;
  Fr.buf_to_array b

let pp_frs a = Test_util.pp_list Fr.to_string (Array.to_list a)
let prop = Test_util.prop

let prop_msm_deterministic =
  prop ~count:5 "msm byte-identical at 1 vs 4 domains"
    (fun terms ->
      Test_util.pp_list
        (Test_util.pp2 (Format.asprintf "%a" G1.pp) Fr.to_string)
        (Array.to_list terms))
    (Gen.array_size (Gen.return 32) (Gen.pair Gz.g1 Gz.fr)) (fun terms ->
      let points = Array.map fst terms and scalars = Array.map snd terms in
      let s1, s4 = both (fun () -> G1.to_bytes (G1.msm points scalars)) in
      String.equal s1 s4)

let prop_fft_deterministic =
  prop ~count:5 "fft/ifft byte-identical at 1 vs 4 domains" pp_frs (coeffs 1024)
    (fun coeffs ->
      let d = Domain.create 10 in
      let evals1, evals4 = both (fun () -> transform Domain.fft_buf d coeffs) in
      let back1, back4 = both (fun () -> transform Domain.ifft_buf d evals1) in
      String.equal (fr_array_bytes evals1) (fr_array_bytes evals4)
      && String.equal (fr_array_bytes back1) (fr_array_bytes back4)
      && String.equal (fr_array_bytes back1) (fr_array_bytes coeffs))

let prop_coset_deterministic =
  prop ~count:5 "coset evals byte-identical at 1 vs 4 domains" pp_frs
    (coeffs 1024) (fun coeffs ->
      let d = Domain.create 10 in
      let evals1, evals4 =
        both (fun () -> transform Domain.coset_fft_buf d coeffs)
      in
      let back1, back4 =
        both (fun () -> transform Domain.coset_ifft_buf d evals1)
      in
      String.equal (fr_array_bytes evals1) (fr_array_bytes evals4)
      && String.equal (fr_array_bytes back1) (fr_array_bytes back4)
      && String.equal (fr_array_bytes back1) (fr_array_bytes coeffs))

let prop_commit_batch_consistent =
  prop ~count:3 "commit_batch = sequential commits"
    (fun ps -> Test_util.pp_list pp_frs (Array.to_list ps))
    (Gen.array_size (Gen.return 4) (coeffs 200)) (fun ps ->
      let batched =
        Pool.with_domains 4 (fun () -> Kzg.commit_batch srs ps)
      in
      let single =
        Pool.with_domains 1 (fun () -> Array.map (Kzg.commit srs) ps)
      in
      Array.for_all2
        (fun a b -> String.equal (G1.to_bytes a) (G1.to_bytes b))
        batched single)

let prop_pairing_check_deterministic =
  prop ~count:3 "pairing_check stable at 1 vs 4 domains" Fr.to_string
    Gz.fr_nonzero (fun a ->
      (* e(aP, Q) * e(-P, aQ) = 1: a valid multi-pairing batch. *)
      let valid =
        [ (G1.mul G1.generator a, G2.generator);
          (G1.neg G1.generator, G2.mul G2.generator a) ]
      in
      let broken =
        [ (G1.mul G1.generator a, G2.generator);
          (G1.generator, G2.mul G2.generator a) ]
      in
      let v1, v4 = both (fun () -> Pairing.pairing_check valid) in
      let b1, b4 = both (fun () -> Pairing.pairing_check broken) in
      v1 && v4 && (not b1) && not b4)

let prop_prove_transcript_deterministic =
  let small = Gen.int_range 0 99 in
  prop ~count:3 "Prover.prove byte-identical at 1 vs 4 domains"
    (Test_util.pp2 string_of_int string_of_int) (Gen.pair small small)
    (fun (x, y) ->
      let cs = toy_circuit ~x:(Fr.of_int x) ~y:(Fr.of_int y) in
      let compiled = Cs.compile cs in
      let pk = Preprocess.setup srs compiled in
      let prove () =
        (* identical blinding randomness on both runs *)
        let st = Random.State.make [| x; y; 0x9e |] in
        Proof.wire_encode (Prover.prove ~st pk compiled)
      in
      let p1, p4 = both prove in
      String.equal p1 p4
      &&
      match Proof.wire_decode p1 with
      | Ok proof -> Verifier.verify pk.Preprocess.vk compiled.Cs.public_values proof
      | Error _ -> false)

let () =
  Alcotest.run "zkdet_parallel"
    [ ( "pool",
        [ Alcotest.test_case "parallel_for basics" `Quick test_parallel_for_basic;
          Alcotest.test_case "map/init edge cases" `Quick test_map_and_init_edge_cases;
          Alcotest.test_case "parallel_reduce" `Quick test_parallel_reduce;
          Alcotest.test_case "exceptions and reuse" `Quick test_exception_and_reuse;
          Alcotest.test_case "configuration" `Quick test_config ] );
      ( "determinism",
        [ prop_msm_deterministic;
          prop_fft_deterministic;
          prop_coset_deterministic;
          prop_commit_batch_consistent;
          prop_pairing_check_deterministic;
          prop_prove_transcript_deterministic ] ) ]
