(* Benchmark harness regenerating every figure and table of the paper's
   evaluation (§VI). Run everything:

     dune exec bench/main.exe            # all experiments, paper-style rows
     dune exec bench/main.exe -- fig5    # one experiment
     dune exec bench/main.exe -- all --scale 2   # larger sweeps

   Datasets are scaled down relative to the paper (a pure-OCaml prover on
   one shared core vs. the authors' i9-11900K + Snarkjs WASM); every sweep
   keeps the same independent variable as the corresponding figure so the
   scaling *shapes* are comparable. EXPERIMENTS.md records paper-vs-measured.

   The [micro] experiment registers one Bechamel Test.make group per
   figure/table, benchmarking the kernel each experiment is dominated by.

   Besides the text tables, every experiment writes a machine-readable
   BENCH_<experiment>.json sidecar (rows + the telemetry snapshot covering
   that experiment); [--profile] additionally prints the span tree. *)

module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module Pairing = Zkdet_curve.Pairing
module Mimc = Zkdet_mimc.Mimc
module Poseidon = Zkdet_poseidon.Poseidon
module Sha256 = Zkdet_hash.Sha256
module Domain = Zkdet_poly.Domain
module Poly = Zkdet_poly.Poly
module Srs = Zkdet_kzg.Srs
module Kzg = Zkdet_kzg.Kzg
module Cs = Zkdet_plonk.Cs
module Preprocess = Zkdet_plonk.Preprocess
module Prover = Zkdet_plonk.Prover
module Verifier = Zkdet_plonk.Verifier
module Proof = Zkdet_plonk.Proof
module Env = Zkdet_core.Env
module Circuits = Zkdet_core.Circuits
module Transform = Zkdet_core.Transform
module Exchange = Zkdet_core.Exchange
module Zkcp = Zkdet_core.Zkcp
module Logreg = Zkdet_apps.Logreg
module Transformer = Zkdet_apps.Transformer
module Chain = Zkdet_chain.Chain
module Erc721 = Zkdet_contracts.Erc721
module Verifier_contract = Zkdet_contracts.Verifier_contract
module Telemetry = Zkdet_telemetry.Telemetry
module Json = Zkdet_telemetry.Json

let rng = Random.State.make [| 0xbe9c |]

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

(* Machine-readable output: experiments accumulate [emit_row]s mirroring
   their printed tables; the driver writes them to BENCH_<experiment>.json
   together with the telemetry snapshot covering that experiment. *)
let bench_rows : Json.t list ref = ref []
let emit_row kvs = bench_rows := Json.Obj kvs :: !bench_rows
let jint k v = (k, Json.Int v)
let jfloat k v = (k, Json.Float v)
let jstr k v = (k, Json.String v)
let jbool k v = (k, Json.Bool v)

let write_bench_json ~scale name =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let doc =
    Json.Obj
      [ ("schema", Json.String "zkdet-bench");
        ("version", Json.Int 1);
        ("experiment", Json.String name);
        ("scale", Json.Int scale);
        ("domains", Json.Int (Zkdet_parallel.Pool.num_domains ()));
        ("rows", Json.List (List.rev !bench_rows));
        ("telemetry", Telemetry.Report.to_json (Telemetry.snapshot ())) ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "[wrote %s]\n%!" path

(* The shared environment for proof-generation experiments; sized for the
   largest Table I circuit. Built once on first use. *)
let shared_env = lazy (
  let (), t = wall (fun () -> ()) in
  ignore t;
  let env, t = wall (fun () -> Env.create ~log2_max_gates:16 ~seed:[| 0xbe9c |] ()) in
  Printf.printf "[shared universal setup: 2^16 constraints, %.1fs]\n%!" t;
  env)

(* ---------------------------------------------------------------- *)
(* Figure 5: circuit setup time vs. number of constraints            *)
(* ---------------------------------------------------------------- *)

(* A synthetic circuit with exactly the requested number of rows, like the
   paper's constraint-count sweep. *)
let filler_circuit ~gates () =
  let cs = Cs.create () in
  let pub = Cs.public_input cs (Fr.of_int gates) in
  let acc = ref (Cs.constant cs Fr.zero) in
  for _ = 1 to gates - 4 do
    acc := Cs.add_const cs !acc Fr.one
  done;
  ignore pub;
  cs

let fig5 ~scale () =
  header "Figure 5: time consumed for circuit setup";
  Printf.printf "%14s %14s %16s %12s\n" "constraints" "srs-gen (s)"
    "preprocess (s)" "total (s)";
  let max_log2 = min 17 (13 + scale) in
  let logs = List.init (max_log2 - 9) (fun i -> i + 10) in
  List.iter
    (fun log2 ->
      let n = 1 lsl log2 in
      let srs, srs_t =
        wall (fun () -> Srs.unsafe_generate ~st:rng ~size:(n + 8) ())
      in
      let compiled = Cs.compile (filler_circuit ~gates:n ()) in
      let _pk, pre_t = wall (fun () -> Preprocess.setup srs compiled) in
      emit_row
        [ jint "constraints" n; jfloat "srs_gen_s" srs_t;
          jfloat "preprocess_s" pre_t ];
      Printf.printf "%14d %14.2f %16.2f %12.2f\n%!" n srs_t pre_t (srs_t +. pre_t))
    logs;
  print_endline
    "shape check: setup grows quasi-linearly in the constraint count\n\
     (paper: < 2 min at 2^20 constraints on an i9-11900K)."

(* ---------------------------------------------------------------- *)
(* Figure 6: proof generation time vs. data size                     *)
(* ---------------------------------------------------------------- *)

let fig6_sizes ~scale = List.init (3 + scale) (fun i -> 2 lsl i) (* 2,4,8,(16..) *)

let fig6 ~scale () =
  header "Figure 6: time consumed for proof generation";
  let env = Lazy.force shared_env in
  Printf.printf "%10s %12s %14s %14s\n" "entries" "bytes" "pi_e/pi_p (s)"
    "pi_t dup (s)";
  List.iter
    (fun n ->
      let data = Array.init n (fun i -> Fr.of_int (i + 1)) in
      let sealed = Transform.seal ~st:rng data in
      let _, enc_t = wall (fun () -> Transform.prove_encryption env sealed) in
      let (_, _), dup_t = wall (fun () -> Transform.duplicate env sealed) in
      emit_row
        [ jint "entries" n; jint "bytes" (32 * n);
          jfloat "prove_encryption_s" enc_t; jfloat "duplicate_s" dup_t ];
      Printf.printf "%10d %12d %14.2f %14.2f\n%!" n (32 * n) enc_t dup_t)
    (fig6_sizes ~scale);
  (* pi_k is independent of the data size *)
  let sealed = Transform.seal ~st:rng [| Fr.of_int 1; Fr.of_int 2 |] in
  let k_v, _ = Exchange.buyer_blinding ~st:rng () in
  ignore (Exchange.prove_key env sealed ~k_v);
  let _, k_t = wall (fun () -> Exchange.prove_key env sealed ~k_v) in
  emit_row [ jstr "series" "pi_k"; jfloat "prove_key_s" k_t ];
  Printf.printf "pi_k (any size): %.2f s  (paper: ~120 ms, constant)\n" k_t;
  (* Ablation (§IV-B): decoupling pi_e from pi_t. A second transformation
     of the same dataset reuses the existing pi_e; the naive protocol
     re-proves the encryption every time. *)
  let n = List.nth (fig6_sizes ~scale) 1 in
  let data = Array.init n (fun i -> Fr.of_int (i + 1)) in
  let sealed = Transform.seal ~st:rng data in
  let (_, _), decoupled_t = wall (fun () -> Transform.duplicate env sealed) in
  let _, monolithic_extra =
    wall (fun () -> Transform.prove_encryption env sealed)
  in
  emit_row
    [ jstr "series" "ablation"; jint "entries" n;
      jfloat "decoupled_s" decoupled_t;
      jfloat "monolithic_s" (decoupled_t +. monolithic_extra) ];
  Printf.printf
    "ablation (decoupled proofs, n=%d): pi_t alone %.2f s vs pi_t + re-proved \
     pi_e %.2f s (%.2fx)\n"
    n decoupled_t
    (decoupled_t +. monolithic_extra)
    ((decoupled_t +. monolithic_extra) /. decoupled_t);
  print_endline
    "shape check: pi_e/pi_t grow with data size; pi_k flat\n\
     (paper: ~3 min at 5 MB for pi_e; ~10 s for dup/agg/part at 5 MB)."

(* ---------------------------------------------------------------- *)
(* Figure 7: running time, ZKDET vs ZKCP verification                 *)
(* ---------------------------------------------------------------- *)

let fig7 ~scale () =
  header "Figure 7: running time of ZKDET and ZKCP (verification)";
  let env = Lazy.force shared_env in
  (* ZKDET's on-chain verification is the pi_k statement: 2 pairings and a
     fixed number of group operations, independent of the data size. The
     ZKCP comparator in the paper is Groth16-based [10]: 3 pairings plus
     one G1 exponentiation per public input, where the whole ciphertext
     (l = entries) is public input — modeled here with real curve ops
     (see DESIGN.md's substitution table). *)
  let sealed2 = Transform.seal ~st:rng [| Fr.of_int 5; Fr.of_int 6 |] in
  let k_v, h_v = Exchange.buyer_blinding ~st:rng () in
  let k_c, pi_k = Exchange.prove_key env sealed2 ~k_v in
  let zkcp_groth16_verify ~l () =
    (* full-width scalars: each public input costs a ~254-bit G1
       exponentiation, as in the Groth16 verification equation *)
    let base_scalar = Fr.inv (Fr.of_int 3) in
    let acc = ref G1.generator in
    for i = 1 to l do
      acc := G1.add !acc (G1.mul G1.generator (Fr.add base_scalar (Fr.of_int i)))
    done;
    let f1 = Pairing.pairing !acc Zkdet_curve.G2.generator in
    let f2 = Pairing.pairing G1.generator Zkdet_curve.G2.generator in
    let f3 = Pairing.pairing (G1.double G1.generator) Zkdet_curve.G2.generator in
    ignore (Pairing.Gt.mul f1 (Pairing.Gt.mul f2 f3))
  in
  (* Part A: the REAL comparator — actual Groth16 (lib/groth16) over the
     actual ZKCP circuit, per-circuit trusted setup included. *)
  Printf.printf "real Groth16 ZKCP verification (circuit-specific setup):\n";
  Printf.printf "%10s %14s %12s %18s %20s\n" "entries" "g16 setup(s)"
    "g16 prove(s)" "g16 verify (s)" "zkdet verify (s)";
  List.iter
    (fun n ->
      let data = Array.init n (fun i -> Fr.of_int (i + 3)) in
      let s = Transform.seal ~st:rng data in
      let compiled =
        Cs.compile
          (Circuits.zkcp_circuit ~data ~key:s.Transform.key
             ~nonce:s.Transform.nonce ~predicate:Circuits.Trivial)
      in
      let g16_pk, setup_t =
        wall (fun () -> Zkdet_groth16.Groth16.setup ~st:rng compiled)
      in
      let g16_proof, prove_t =
        wall (fun () -> Zkdet_groth16.Groth16.prove ~st:rng g16_pk compiled)
      in
      let ok_g16, g16_verify_t =
        wall (fun () ->
            Zkdet_groth16.Groth16.verify g16_pk.Zkdet_groth16.Groth16.vk
              compiled.Cs.public_values g16_proof)
      in
      assert ok_g16;
      let ok_zkdet, zkdet_t =
        wall (fun () ->
            Exchange.verify_key env ~k_c ~c_k:sealed2.Transform.c_k ~h_v pi_k)
      in
      assert ok_zkdet;
      emit_row
        [ jstr "series" "real_groth16"; jint "entries" n;
          jfloat "g16_setup_s" setup_t; jfloat "g16_prove_s" prove_t;
          jfloat "g16_verify_s" g16_verify_t; jfloat "zkdet_verify_s" zkdet_t ];
      Printf.printf "%10d %14.1f %12.1f %18.3f %20.3f\n%!" n setup_t prove_t
        g16_verify_t zkdet_t)
    [ 2; 8; 16 ];
  (* Part B: extend the sweep with the comparator's verification-equation
     cost (3 pairings + l full-width G1 exponentiations) so large l is
     reachable without proving megabyte circuits. *)
  Printf.printf
    "\nmodeled sweep (3 pairings + l G1 exponentiations, real curve ops):\n";
  Printf.printf "%10s %20s %22s %14s\n" "entries" "zkdet verify (s)"
    "zkcp verify (s)" "proof bytes";
  let sizes = List.init (5 + scale) (fun i -> 16 lsl (2 * i)) in
  List.iter
    (fun n ->
      let ok_zkdet, zkdet_t =
        wall (fun () ->
            Exchange.verify_key env ~k_c ~c_k:sealed2.Transform.c_k ~h_v pi_k)
      in
      assert ok_zkdet;
      let (), zkcp_t = wall (zkcp_groth16_verify ~l:n) in
      emit_row
        [ jstr "series" "modeled"; jint "entries" n;
          jfloat "zkdet_verify_s" zkdet_t; jfloat "zkcp_verify_s" zkcp_t;
          jint "proof_bytes" (Proof.size_bytes pi_k) ];
      Printf.printf "%10d %20.3f %22.3f %14d\n%!" n zkdet_t zkcp_t
        (Proof.size_bytes pi_k))
    sizes;
  print_endline
    "shape check: ZKDET verification is constant in the input size; ZKCP\n\
     pays one exponentiation per public input and overtakes ZKDET quickly\n\
     (paper: ZKDET < 0.1 s flat while ZKCP grows with the input)."

(* ---------------------------------------------------------------- *)
(* Ablation: FairSwap dispute gas vs ZKDET on-chain verification      *)
(* ---------------------------------------------------------------- *)

let fairswap_ablation () =
  header "Ablation (§VII): FairSwap dispute cost vs ZKDET on-chain verification";
  let env = Lazy.force shared_env in
  let alice = Chain.Address.of_seed "alice" and bob = Chain.Address.of_seed "bob" in
  (* constant ZKDET side: one pi_k settlement through the escrow *)
  let chain = Chain.create () in
  List.iter (fun a -> Chain.faucet chain a 1_000_000_000) [ alice; bob ];
  let verifier, _ =
    Verifier_contract.deploy chain ~deployer:alice (Exchange.key_vk env)
  in
  let escrow, _ = Zkdet_contracts.Escrow.deploy chain ~deployer:alice verifier in
  let sealed = Transform.seal ~st:rng [| Fr.of_int 1; Fr.of_int 2 |] in
  let k_v, h_v = Exchange.buyer_blinding ~st:rng () in
  let deal, _ =
    Zkdet_contracts.Escrow.lock escrow chain ~buyer:bob ~seller:alice
      ~amount:1_000 ~h_v ~key_commitment:sealed.Transform.c_k ~timeout_blocks:10
  in
  let k_c, pi_k = Exchange.prove_key env sealed ~k_v in
  let settle =
    Zkdet_contracts.Escrow.settle escrow chain ~seller:alice
      ~deal_id:(Option.get deal) ~k_c ~proof:pi_k
  in
  let zkdet_gas = settle.Chain.gas_used in
  Printf.printf "%12s %22s %22s\n" "blocks" "fairswap dispute gas" "zkdet settle gas";
  List.iter
    (fun n ->
      let chain = Chain.create () in
      List.iter (fun a -> Chain.faucet chain a 1_000_000_000) [ alice; bob ];
      let fs, _ = Zkdet_contracts.Fairswap_escrow.deploy chain ~deployer:alice in
      let advertised = Array.init n (fun i -> Fr.of_int (9000 + i)) in
      let actual = Array.init n (fun i -> Fr.of_int i) in
      let seller = Zkdet_core.Fairswap.seller_cheat ~st:rng advertised actual in
      let r_c, r_d = Zkdet_core.Fairswap.roots seller in
      let id, _ =
        Zkdet_contracts.Fairswap_escrow.lock fs chain ~buyer:bob ~seller:alice
          ~amount:1_000 ~root_ciphertext:r_c ~root_plaintext:r_d
          ~depth:seller.Zkdet_core.Fairswap.depth
          ~h_k:(Poseidon.hash [ seller.Zkdet_core.Fairswap.key ])
          ~dispute_window:5
      in
      let id = Option.get id in
      ignore
        (Zkdet_contracts.Fairswap_escrow.reveal_key fs chain ~seller:alice
           ~deal_id:id ~key:seller.Zkdet_core.Fairswap.key);
      let pom =
        Option.get
          (Zkdet_core.Fairswap.buyer_check ~key:seller.Zkdet_core.Fairswap.key
             ~ciphertext:seller.Zkdet_core.Fairswap.ciphertext
             ~ciphertext_tree:seller.Zkdet_core.Fairswap.ciphertext_tree
             ~advertised_tree:seller.Zkdet_core.Fairswap.plaintext_tree)
      in
      let r =
        Zkdet_contracts.Fairswap_escrow.complain fs chain ~buyer:bob ~deal_id:id
          pom
      in
      emit_row
        [ jint "blocks" n; jint "fairswap_dispute_gas" r.Chain.gas_used;
          jint "zkdet_settle_gas" zkdet_gas ];
      Printf.printf "%12d %22d %22d\n%!" n r.Chain.gas_used zkdet_gas)
    [ 8; 64; 512; 4096 ];
  Printf.printf
    "throughput: at a 30M-gas block limit, %d ZKDET settlements fit per\n\
     block regardless of the traded data volume (the abstract's \"high\n\
     throughput despite large data volumes\").\n"
    (30_000_000 / zkdet_gas);
  print_endline
    "shape check: FairSwap's on-chain dispute grows with the data size\n\
     (Merkle depth); ZKDET's settlement is constant (the paper's §VII\n\
     motivation for zero-knowledge over authenticated data structures)."

(* ---------------------------------------------------------------- *)
(* Table I: proofs of transformation for data processing apps         *)
(* ---------------------------------------------------------------- *)

let table1 ~scale () =
  header "Table I: proof of transformation for data processing applications";
  let env = Lazy.force shared_env in
  Printf.printf "%-22s %10s %14s %18s %12s\n" "task" "entries/"
    "constraints" "proof gen (s)" "proof (KB)";
  Printf.printf "%-22s %10s %14s %18s %12s\n" "" "params" "" "" "";
  let logreg_row n_samples =
    let c =
      { Logreg.n_samples; n_features = 1; learning_rate = 0.1; epsilon = 0.05 }
    in
    Logreg.register c;
    let xs, ys = Logreg.synthetic_dataset c in
    let source = Transform.seal ~st:rng (Logreg.encode_source xs ys) in
    let spec = Logreg.spec c in
    let (_, link), t = wall (fun () -> Transform.process env source ~spec) in
    let constraints =
      let cs = Cs.create () in
      let s_ws = Array.map (Cs.fresh cs) source.Transform.data in
      let d_ws =
        Array.map (Cs.fresh cs) (spec.Circuits.reference source.Transform.data)
      in
      spec.Circuits.check cs s_ws d_ws;
      Cs.num_gates (Cs.compile cs)
    in
    emit_row
      [ jstr "task" "logreg"; jint "entries" (Logreg.source_size c);
        jint "constraints" constraints; jfloat "prove_s" t;
        jint "proof_bytes" (Proof.size_bytes link.Transform.proof) ];
    Printf.printf "%-22s %10d %14d %18.1f %12.2f\n%!" "Logistic Regression"
      (Logreg.source_size c) constraints t
      (float_of_int (Proof.size_bytes link.Transform.proof) /. 1024.0)
  in
  let transformer_row (tc : Transformer.config) =
    Transformer.register tc;
    let input = Transformer.synthetic_input tc in
    let source = Transform.seal ~st:rng input in
    let spec = Transformer.spec tc in
    let (_, link), t = wall (fun () -> Transform.process env source ~spec) in
    let constraints =
      let cs = Cs.create () in
      let s_ws = Array.map (Cs.fresh cs) input in
      let d_ws = Array.map (Cs.fresh cs) (spec.Circuits.reference input) in
      spec.Circuits.check cs s_ws d_ws;
      Cs.num_gates (Cs.compile cs)
    in
    emit_row
      [ jstr "task" "transformer"; jint "params" (Transformer.parameter_count tc);
        jint "constraints" constraints; jfloat "prove_s" t;
        jint "proof_bytes" (Proof.size_bytes link.Transform.proof) ];
    Printf.printf "%-22s %10d %14d %18.1f %12.2f\n%!" "Transformer"
      (Transformer.parameter_count tc)
      constraints t
      (float_of_int (Proof.size_bytes link.Transform.proof) /. 1024.0)
  in
  logreg_row 2;
  logreg_row 3;
  if scale > 1 then logreg_row 4;
  transformer_row Transformer.default_config;
  if scale > 1 then
    transformer_row { Transformer.default_config with Transformer.d_ff = 4 };
  print_endline
    "shape check: proof generation grows with the task size; proof size is\n\
     constant (paper: 2.41-2.45 KB across 495 entries .. 1M parameters)."

(* ---------------------------------------------------------------- *)
(* Table II: gas consumption of smart contracts                       *)
(* ---------------------------------------------------------------- *)

let table2 () =
  header "Table II: gas consumption of smart contracts in ZKDET";
  let env = Lazy.force shared_env in
  let chain = Chain.create () in
  let alice = Chain.Address.of_seed "alice" and bob = Chain.Address.of_seed "bob" in
  List.iter (fun a -> Chain.faucet chain a 1_000_000_000) [ alice; bob ];
  let nft, deploy_r = Erc721.deploy chain ~deployer:alice in
  let _verifier, verifier_r =
    Verifier_contract.deploy chain ~deployer:alice (Exchange.key_vk env)
  in
  let commitments () = (Fr.random rng, Fr.random rng) in
  let mint () =
    let ck, cd = commitments () in
    Erc721.mint nft chain ~sender:alice ~recipient:alice
      ~uri:"zb6c9f2e8d7a5b4c3e2f1a0d9c8b7a6f5e4d3c2b1a09f8e7d6c5b4a3f2e1d0c9"
      ~key_commitment:ck ~data_commitment:cd ~proof_refs:[ "zb_pi_e" ]
  in
  let t1 = Option.get (fst (mint ())) in
  let t2 = Option.get (fst (mint ())) in
  let _warm_bob =
    let ck, cd = commitments () in
    Erc721.mint nft chain ~sender:alice ~recipient:bob ~uri:"zb_w"
      ~key_commitment:ck ~data_commitment:cd ~proof_refs:[]
  in
  let _, mint_r = mint () in
  let derived transform prev =
    let ck, cd = commitments () in
    snd
      (Erc721.mint_derived nft chain ~sender:alice ~prev_ids:prev ~transform
         ~uri:"zb6c9f2e8d7a5b4c3e2f1a0d9c8b7a6f5e4d3c2b1a09f8e7d6c5b4a3f2e1d0c9"
         ~key_commitment:ck ~data_commitment:cd ~proof_refs:[ "zb_pi_t" ])
  in
  let agg_r = derived Erc721.Aggregation [ t1; t2 ] in
  let dup_r = derived Erc721.Duplication [ t1 ] in
  let part_r =
    let child () =
      let ck, cd = commitments () in
      ("zb6c9f2e8d7a5b4c3e2f1a0d9c8b7a6f5e4d3c2b1a0", ck, cd, [ "zb_pi_t" ])
    in
    snd
      (Erc721.mint_partition nft chain ~sender:alice ~parent:t1
         ~children:[ child (); child () ])
  in
  let transfer_r =
    Erc721.transfer_from nft chain ~sender:alice ~from:alice ~to_:bob ~token_id:t2
  in
  let burn_r = Erc721.burn nft chain ~sender:alice ~token_id:t1 in
  let row name paper (r : Chain.receipt) =
    (match r.Chain.status with
    | Ok () -> ()
    | Error e -> Printf.printf "!! %s failed: %s\n" name (Chain.error_to_string e));
    emit_row
      [ jstr "operation" name; jint "paper_gas" paper;
        jint "measured_gas" r.Chain.gas_used ];
    Printf.printf "%-28s %12d %12d %9.1f%%\n" name paper r.Chain.gas_used
      (100.0 *. float_of_int (r.Chain.gas_used - paper) /. float_of_int paper)
  in
  Printf.printf "%-28s %12s %12s %10s\n" "operation" "paper" "measured" "delta";
  row "ZKDET contract deployment" 1_020_954 deploy_r;
  row "Verifier contract deploym." 1_644_969 verifier_r;
  row "Token minting" 106_048 mint_r;
  row "Token transferring" 36_574 transfer_r;
  row "Token burning" 50_084 burn_r;
  row "Transform: aggregation" 96_780 agg_r;
  row "Transform: duplication" 94_012 dup_r;
  (match part_r.Chain.status with
  | Ok () ->
    emit_row
      [ jstr "operation" "Transform: partition (per child)"; jint "paper_gas" 83_124;
        jint "measured_gas" (part_r.Chain.gas_used / 2) ];
    Printf.printf "%-28s %12d %12d %9.1f%%  (tx %d / 2 children)\n"
      "Transform: partition" 83_124 (part_r.Chain.gas_used / 2)
      (100.0
      *. float_of_int ((part_r.Chain.gas_used / 2) - 83_124)
      /. float_of_int 83_124)
      part_r.Chain.gas_used
  | Error e -> Printf.printf "!! partition failed: %s\n" (Chain.error_to_string e));
  ignore (Chain.mine chain);
  Printf.printf "chain validates after the workload: %b\n" (Chain.validate chain)

(* ---------------------------------------------------------------- *)
(* Micro-benchmarks: one Bechamel group per figure/table              *)
(* ---------------------------------------------------------------- *)

let micro () =
  header "Bechamel micro-benchmarks (kernel of each experiment)";
  let open Bechamel in
  let open Toolkit in
  let env = Lazy.force shared_env in
  let srs256 = Srs.truncate env.Env.srs 257 in
  let poly255 = Poly.random rng 255 in
  let a = Fr.random rng and b = Fr.random rng in
  let p = G1.random rng in
  let perm_state = [| a; b; Fr.one |] in
  let sealed = Transform.seal ~st:rng [| a; b |] in
  let k_v, h_v = Exchange.buyer_blinding ~st:rng () in
  let k_c, pi_k = Exchange.prove_key env sealed ~k_v in
  let vk = Exchange.key_vk env in
  let publics = Circuits.key_publics ~k_c ~c_k:sealed.Transform.c_k ~h_v in
  let d10 = Domain.create 10 in
  let buf10 = Domain.buf_of_coeffs d10 (Poly.random rng 1024) in
  let stage name f = Test.make ~name (Staged.stage f) in
  let groups =
    [ Test.make_grouped ~name:"fig5-setup-kernels"
        [ stage "kzg-commit-255" (fun () -> Kzg.commit srs256 poly255);
          stage "fft-2^10" (fun () -> Domain.fft_buf d10 buf10) ];
      Test.make_grouped ~name:"fig6-prover-kernels"
        [ stage "fr-mul" (fun () -> Fr.mul a b);
          stage "g1-add" (fun () -> G1.add p p);
          stage "mimc-block" (fun () -> Mimc.encrypt_block a b);
          stage "poseidon-permute" (fun () -> Poseidon.permute perm_state) ];
      Test.make_grouped ~name:"fig7-verifier-kernels"
        [ stage "pairing" (fun () -> Pairing.pairing G1.generator Zkdet_curve.G2.generator);
          stage "plonk-verify-pi_k" (fun () -> Verifier.verify vk publics pi_k) ];
      Test.make_grouped ~name:"table1-gadget-kernels"
        [ stage "sha256-1KiB" (fun () -> Sha256.digest (String.make 1024 'x'));
          stage "logreg-train-ref" (fun () ->
              let c = { Logreg.n_samples = 4; n_features = 2;
                        learning_rate = 0.1; epsilon = 0.05 } in
              let xs, ys = Logreg.synthetic_dataset c in
              Logreg.train c xs ys) ];
      Test.make_grouped ~name:"table2-contract-kernels"
        [ stage "mint-gas-metering" (fun () ->
              let chain = Chain.create () in
              let alice = Chain.Address.of_seed "a" in
              Chain.faucet chain alice 10_000_000;
              let nft, _ = Erc721.deploy chain ~deployer:alice in
              Erc721.mint nft chain ~sender:alice ~recipient:alice ~uri:"zb_x"
                ~key_commitment:Fr.one ~data_commitment:Fr.one ~proof_refs:[]) ] ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.3) () in
  List.iter
    (fun group ->
      let raw = Benchmark.all cfg [ instance ] group in
      let results = Analyze.all ols instance raw in
      let rows =
        Hashtbl.fold
          (fun name ols_result acc ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> (name, est) :: acc
            | _ -> acc)
          results []
      in
      List.iter
        (fun (name, ns) ->
          emit_row [ jstr "name" name; jfloat "ns_per_run" ns ];
          if ns > 1e6 then Printf.printf "%-48s %12.2f ms\n" name (ns /. 1e6)
          else if ns > 1e3 then Printf.printf "%-48s %12.2f us\n" name (ns /. 1e3)
          else Printf.printf "%-48s %12.0f ns\n" name ns)
        (List.sort compare rows))
    groups

(* ---------------------------------------------------------------- *)
(* Parallel runtime: sequential vs multi-domain prover                *)
(* ---------------------------------------------------------------- *)

let parallel_bench ~scale () =
  header "Parallel runtime: Plonk prover, sequential vs multi-domain";
  let module Pool = Zkdet_parallel.Pool in
  let par_domains = max (Pool.num_domains ()) 4 in
  Printf.printf
    "host cores: %d recommended domains; comparing ZKDET_DOMAINS=1 vs %d\n"
    (Stdlib.Domain.recommended_domain_count ())
    par_domains;
  Printf.printf "%14s %14s %14s %10s %10s\n" "constraints" "seq (s)"
    "par (s)" "speedup" "identical";
  let max_log2 = min 14 (11 + scale) in
  List.iter
    (fun log2 ->
      let n = 1 lsl log2 in
      let srs = Srs.unsafe_generate ~st:rng ~size:(n + 8) () in
      let compiled = Cs.compile (filler_circuit ~gates:n ()) in
      let pk = Preprocess.setup srs compiled in
      let prove () =
        Proof.to_bytes (Prover.prove ~st:(Random.State.make [| 42 |]) pk compiled)
      in
      let seq_proof, seq_t = wall (fun () -> Pool.with_domains 1 prove) in
      let par_proof, par_t =
        wall (fun () -> Pool.with_domains par_domains prove)
      in
      emit_row
        [ jint "constraints" n; jfloat "seq_s" seq_t; jfloat "par_s" par_t;
          jbool "identical" (String.equal seq_proof par_proof) ];
      Printf.printf "%14d %14.2f %14.2f %9.2fx %10b\n%!" n seq_t par_t
        (seq_t /. par_t)
        (String.equal seq_proof par_proof);
      assert (String.equal seq_proof par_proof))
    (List.init (max_log2 - 9) (fun i -> i + 10));
  print_endline
    "determinism check: proofs are byte-identical at every domain count.\n\
     On a single-core host the multi-domain run is slower (oversubscription\n\
     + GC rendezvous); the speedup column is only meaningful with >= 4 cores."

(* ---------------------------------------------------------------- *)
(* Property-testing engine: generation and shrinking throughput       *)
(* ---------------------------------------------------------------- *)

let proptest_smoke ~scale () =
  header "Property-testing engine: generation + shrinking throughput";
  let module Rng = Zkdet_proptest.Rng in
  let module Gen = Zkdet_proptest.Gen in
  let module P = Zkdet_proptest.Proptest in
  let module Gz = Zkdet_proptest.Gen_zk in
  let cases = 200 * scale in
  (* generator throughput: circuit descriptions synthesized through the
     builder, the inner loop of the differential harness *)
  let root = Rng.of_seed_and_label 0xbe9cL "bench-proptest" in
  let built = ref 0 and gates = ref 0 in
  let (), gen_t =
    wall (fun () ->
        for _ = 1 to cases do
          let d = Gen.generate Gz.circuit_desc (Rng.split root) in
          let cs, _ = Gz.build_circuit d in
          let compiled = Cs.compile cs in
          assert (Cs.satisfied compiled);
          incr built;
          gates := !gates + Array.length compiled.Cs.gates_arr
        done)
  in
  emit_row
    [ jstr "series" "generation"; jint "circuits" !built;
      jfloat "seconds" gen_t; jint "total_gates" !gates ];
  Printf.printf
    "%d circuits generated+built+checked in %.3fs (%.0f/s, avg %.1f gates)\n"
    !built gen_t
    (float_of_int !built /. gen_t)
    (float_of_int !gates /. float_of_int !built);
  (* shrinking throughput: engine runs that must fail and walk the shrink
     tree to the minimal list counterexample *)
  let shrunk = ref 0 in
  let (), shrink_t =
    wall (fun () ->
        for i = 1 to 50 * scale do
          match
            P.run ~seed:(Int64.of_int i) ~name:"bench"
              (Gen.list_size (Gen.int_range 0 40) (Gen.int_range 0 9))
              (fun l -> List.fold_left ( + ) 0 l < 30)
          with
          | Ok () -> ()
          | Error f -> shrunk := !shrunk + f.P.shrink_steps
        done)
  in
  emit_row
    [ jstr "series" "shrinking"; jint "runs" (50 * scale);
      jfloat "seconds" shrink_t; jint "shrink_steps" !shrunk ];
  Printf.printf "50x%d failing runs shrunk in %.3fs (%d shrink steps)\n"
    scale shrink_t !shrunk

(* ---------------------------------------------------------------- *)
(* Setup smoke: smallest end-to-end lifecycle with a per-phase profile *)
(* ---------------------------------------------------------------- *)

let setup_exp () =
  header "Setup smoke: SRS -> preprocess -> prove -> verify (2^10 gates)";
  let n = 1 lsl 10 in
  (* Served from the ZKDET_SRS_CACHE disk cache when the variable is set:
     a warm second run skips the ceremony entirely (no "srs.generate" span
     in the telemetry snapshot). *)
  let srs, srs_t =
    wall (fun () -> Srs.load_or_generate ~st:rng ~size:(n + 8) ())
  in
  let compiled = Cs.compile (filler_circuit ~gates:n ()) in
  let pk, pre_t = wall (fun () -> Preprocess.setup srs compiled) in
  let proof, prove_t =
    wall (fun () -> Prover.prove ~st:(Random.State.make [| 42 |]) pk compiled)
  in
  let ok, verify_t =
    wall (fun () ->
        Verifier.verify pk.Preprocess.vk compiled.Cs.public_values proof)
  in
  assert ok;
  List.iter
    (fun (phase, t) ->
      emit_row [ jstr "phase" phase; jfloat "seconds" t ];
      Printf.printf "%-12s %10.3f s\n" phase t)
    [ ("srs_gen", srs_t); ("preprocess", pre_t); ("prove", prove_t);
      ("verify", verify_t);
      ("total", srs_t +. pre_t +. prove_t +. verify_t) ]

(* ---------------------------------------------------------------- *)
(* Codec: canonical wire-format encode/decode throughput              *)
(* ---------------------------------------------------------------- *)

let codec_exp ~scale () =
  header "Codec: canonical wire format encode/decode throughput";
  let module C = Zkdet_codec.Codec in
  let module Groth16 = Zkdet_groth16.Groth16 in
  let module Chain = Zkdet_chain.Chain in
  let module Storage = Zkdet_storage.Storage in
  let iters = 500 * scale in
  Printf.printf "%-26s %10s %14s %14s\n" "artifact" "bytes" "encode (us)"
    "decode (us)";
  (* Polymorphic so one helper covers every artifact; decode runs on the
     bytes encode produced, so the loop also re-validates canonicity. *)
  let bench : 'a. string -> ?iters:int -> 'a C.t -> 'a -> unit =
    fun name ?(iters = iters) codec value ->
     let bytes = C.encode codec value in
     let (), enc_t =
       wall (fun () ->
           for _ = 1 to iters do
             ignore (C.encode codec value)
           done)
     in
     let (), dec_t =
       wall (fun () ->
           for _ = 1 to iters do
             match C.decode codec bytes with
             | Ok _ -> ()
             | Error e -> failwith (C.error_to_string e)
           done)
     in
     let per t = 1e6 *. t /. float_of_int iters in
     emit_row
       [ jstr "artifact" name; jint "bytes" (String.length bytes);
         jint "iters" iters; jfloat "encode_us" (per enc_t);
         jfloat "decode_us" (per dec_t) ];
     Printf.printf "%-26s %10d %14.2f %14.2f\n%!" name (String.length bytes)
       (per enc_t) (per dec_t)
  in
  let p = G1.random rng in
  bench "fr" Fr.codec (Fr.random rng);
  bench "g1-compressed" G1.codec p;
  bench "g1-uncompressed" G1.codec_uncompressed p;
  bench "g2-compressed" Zkdet_curve.G2.codec (Zkdet_curve.G2.random rng);
  (* proof-system artifacts over a real (small) circuit *)
  let compiled = Cs.compile (filler_circuit ~gates:64 ()) in
  let srs = Srs.unsafe_generate ~st:rng ~size:128 () in
  let pk = Preprocess.setup srs compiled in
  let proof = Prover.prove ~st:(Random.State.make [| 7 |]) pk compiled in
  bench "plonk-proof" Proof.codec proof;
  bench "plonk-vk" Preprocess.vk_codec pk.Preprocess.vk;
  let g16_pk = Groth16.setup ~st:rng compiled in
  let g16_proof = Groth16.prove ~st:rng g16_pk compiled in
  bench "groth16-proof" Groth16.proof_codec g16_proof;
  bench "groth16-vk" Groth16.vk_codec g16_pk.Groth16.vk;
  (* bulk artifacts: fewer iterations, decode dominated by validation *)
  let bulk = max 1 (iters / 50) in
  bench "srs-128" ~iters:bulk Srs.codec srs;
  let chain = Chain.create () in
  let alice = Chain.Address.of_seed "alice" in
  Chain.faucet chain alice 1_000_000;
  for i = 1 to 20 do
    ignore
      (Chain.execute chain ~sender:alice ~label:(Printf.sprintf "bench:tx%d" i) ~contract:"bench"
         (fun env ->
           Chain.emit env ~contract:"bench" ~name:"Tick" ~data:[ string_of_int i ]));
    if i mod 5 = 0 then ignore (Chain.mine chain)
  done;
  Chain.storage_set chain ~contract:"bench" ~key:"k" ~value:"v";
  bench "chain-snapshot-20tx" ~iters:bulk Chain.snapshot_codec chain;
  bench "storage-manifest-64" Storage.manifest_codec
    (List.init 64 (fun i -> Storage.Cid.of_bytes (string_of_int i)));
  (* the raw-concat dataset encoding sits outside the combinator library *)
  let data = Array.init 256 (fun i -> Fr.of_int (i * 31)) in
  let ds_bytes = Storage.Codec.encode data in
  let (), ds_enc = wall (fun () -> for _ = 1 to iters do ignore (Storage.Codec.encode data) done) in
  let (), ds_dec =
    wall (fun () ->
        for _ = 1 to iters do
          match Storage.Codec.decode_result ds_bytes with
          | Ok _ -> ()
          | Error e -> failwith e
        done)
  in
  emit_row
    [ jstr "artifact" "dataset-256"; jint "bytes" (String.length ds_bytes);
      jint "iters" iters; jfloat "encode_us" (1e6 *. ds_enc /. float_of_int iters);
      jfloat "decode_us" (1e6 *. ds_dec /. float_of_int iters) ];
  Printf.printf "%-26s %10d %14.2f %14.2f\n%!" "dataset-256"
    (String.length ds_bytes)
    (1e6 *. ds_enc /. float_of_int iters)
    (1e6 *. ds_dec /. float_of_int iters);
  (* the layer's own counters, from the snapshot embedded in the JSON *)
  let report = Telemetry.snapshot () in
  List.iter
    (fun (c : Telemetry.Report.counter) ->
      if String.length c.Telemetry.Report.counter_name >= 6
         && String.sub c.Telemetry.Report.counter_name 0 6 = "codec." then
        Printf.printf "%s = %d\n" c.Telemetry.Report.counter_name
          c.Telemetry.Report.total)
    report.Telemetry.Report.counters;
  print_endline
    "shape check: compressed points decode slower than uncompressed (sqrt\n\
     per point) but halve the bytes; all decoders re-validate on every run."

(* ---------------------------------------------------------------- *)
(* Proving: per-backend setup/prove/verify on one fixed circuit       *)
(* ---------------------------------------------------------------- *)

(* Light enough to run on every CI push; the committed baseline pins
   both the deterministic fields (constraints, proof bytes) and the
   timings this host class should achieve.  Each (backend, size) point
   runs one untimed warmup prove first: the first prove pays one-time
   process costs (GC heap growth, lazy FFT twiddle tables, the SRS
   fixed-base table build), and the baseline pins the steady state a
   long-lived prover actually sees.  Plonk sweeps 2^8..2^12 constraints
   so a superlinear MSM regression shows up in the curve shape; groth16
   is pinned at 2^10. *)
let proving_exp () =
  header "Proving: per-backend lifecycle (steady-state, one warmup prove)";
  Printf.printf "%-10s %12s %12s %10s %10s %10s\n" "backend" "constraints"
    "proof (B)" "setup (s)" "prove (s)" "verify (s)";
  let bench_one (module B : Zkdet_core.Proof_system.S) gates =
    let compiled = Cs.compile (filler_circuit ~gates ()) in
    let pk, setup_t =
      wall (fun () -> B.setup ~st:(Random.State.make [| 5 |]) compiled)
    in
    ignore (B.prove ~st:(Random.State.make [| 6 |]) pk compiled);
    let proof, prove_t =
      wall (fun () -> B.prove ~st:(Random.State.make [| 6 |]) pk compiled)
    in
    let ok, verify_t =
      wall (fun () -> B.verify (B.vk pk) compiled.Cs.public_values proof)
    in
    assert ok;
    emit_row
      [ jstr "backend" B.name; jint "constraints" (Cs.num_gates compiled);
        jint "proof_bytes" (B.proof_size_bytes proof);
        jfloat "setup_s" setup_t; jfloat "prove_s" prove_t;
        jfloat "verify_s" verify_t ];
    Printf.printf "%-10s %12d %12d %10.2f %10.2f %10.3f\n%!" B.name
      (Cs.num_gates compiled) (B.proof_size_bytes proof) setup_t prove_t
      verify_t
  in
  (match Zkdet_core.Proof_system.by_name "plonk" with
  | Some b -> List.iter (fun log2 -> bench_one b (1 lsl log2)) [ 8; 9; 10; 11; 12 ]
  | None -> ());
  match Zkdet_core.Proof_system.by_name "groth16" with
  | Some b -> bench_one b (1 lsl 10)
  | None -> ()

(* ---------------------------------------------------------------- *)
(* MSM: kernel-level ns/point for the two Pippenger paths             *)
(* ---------------------------------------------------------------- *)

(* Amortized per-point cost at the sizes the prover actually issues
   (wire/quotient commitments): the generic signed-wNAF Pippenger and the
   fixed-base table path used for SRS powers.  Points are generated
   incrementally (one group add each) so harness setup stays cheap at
   every size; timings take the best of three runs.  The committed
   BENCH_msm.json pins ns/point per (n, window) on this host class, and
   the window column pins the tuned lookup so an accidental change to the
   window table is a deterministic-field diff, not a timing blip. *)
let msm_exp () =
  header "MSM: amortized ns/point, generic Pippenger vs fixed-base tables";
  let st = Random.State.make [| 0x3513 |] in
  Printf.printf "%-8s %8s %18s %18s\n" "n" "window" "generic (ns/pt)"
    "table (ns/pt)";
  List.iter
    (fun n ->
      let points = Array.make n G1.zero in
      let acc = ref (G1.random st) in
      for i = 0 to n - 1 do
        points.(i) <- !acc;
        acc := G1.add !acc G1.generator
      done;
      let scalars = Array.init n (fun _ -> Fr.random st) in
      let best f =
        List.fold_left
          (fun b _ -> let _, t = wall f in Float.min b t)
          infinity [ 1; 2; 3 ]
      in
      let generic = best (fun () -> ignore (G1.msm points scalars)) in
      let tb = G1.Fixed_base.msm_create points in
      let table = best (fun () -> ignore (G1.Fixed_base.msm tb scalars)) in
      let window = G1.Fixed_base.msm_window_for n in
      let per t = 1e9 *. t /. float_of_int n in
      emit_row
        [ jint "n" n; jint "window" window;
          jfloat "generic_ns_per_point" (per generic);
          jfloat "table_ns_per_point" (per table) ];
      Printf.printf "%-8d %8d %18.0f %18.0f\n%!" n window (per generic)
        (per table))
    [ 256; 1024; 4096 ]

(* ---------------------------------------------------------------- *)
(* Field: scalar-kernel ns/op                                         *)
(* ---------------------------------------------------------------- *)

(* Montgomery multiplication, addition and inversion on Bn254.Fp.  Work
   runs through the flat-buffer entry points (one destination cell,
   operands cycling through a 1024-element buffer) so the measurement
   matches how FFT/MSM actually drive the kernels; inversion is scalar
   (it has no hot buf path).  Timings take the best of three runs.  Rows
   keep the "unboxed64" backend label of the committed baseline. *)
let field_exp () =
  header "Field: Montgomery kernel ns/op";
  Printf.printf "%-10s %10s %12s\n" "backend" "op" "ns/op";
  let best f =
    List.fold_left (fun b _ -> let _, t = wall f in Float.min b t)
      infinity [ 1; 2; 3 ]
  in
  let module F = Zkdet_field.Bn254.Fp in
  let name = "unboxed64" in
  let st = Random.State.make [| 0xf1e1d |] in
  let n = 1024 in
  let xs = F.buf_of_array (Array.init n (fun _ -> F.random st)) in
  let d = F.buf_create 1 in
  F.buf_set d 0 (F.random st);
  let report op iters t =
    let ns = 1e9 *. t /. float_of_int iters in
    emit_row [ jstr "backend" name; jstr "op" op; jfloat "ns_per_op" ns ];
    Printf.printf "%-10s %10s %12.1f\n%!" name op ns
  in
  let mul_iters = 1_000_000 in
  report "mont_mul" mul_iters
    (best (fun () ->
         for i = 0 to mul_iters - 1 do
           F.buf_mul d 0 d 0 xs (i land (n - 1))
         done));
  let add_iters = 1_000_000 in
  report "add" add_iters
    (best (fun () ->
         for i = 0 to add_iters - 1 do
           F.buf_add d 0 d 0 xs (i land (n - 1))
         done));
  let inv_iters = 2_000 in
  let ys = F.buf_to_array xs in
  report "inv" inv_iters
    (best (fun () ->
         for i = 0 to inv_iters - 1 do
           ignore (F.inv ys.(i land (n - 1)))
         done))

(* ---------------------------------------------------------------- *)
(* Perf-regression gating against committed baselines                 *)
(* ---------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let regression_failures = ref 0

(* Set from [--check-regression] in main: in-harness monotonicity checks
   (e.g. the verify amortization curve) always print a warning on
   violation, but only count toward the exit-1 gate when gating was
   requested. *)
let gate_enabled = ref false

(* ---------------------------------------------------------------- *)
(* Verify: amortized batched verification cost per backend            *)
(* ---------------------------------------------------------------- *)

(* The settlement-at-scale claim in numbers: one RLC-folded multi-pairing
   for a block of N proofs instead of N independent pairing checks, so
   the per-proof cost must fall as the batch grows.  One proof is
   generated per backend and replicated — batched verification does not
   care whether statements repeat, and this keeps the experiment about
   verification, not proving.  The harness checks that [per_proof_s]
   decreases 1 -> 4 -> 16 -> 64, with a 5% noise margin between adjacent
   sizes so scheduler jitter on a shared runner cannot trip it; a
   violation always prints a warning but only counts toward the exit-1
   gate under [--check-regression], which also pins the timings against
   the committed baseline. *)
let verify_exp () =
  header "Verify: amortized per-proof cost of batched verification";
  let compiled = Cs.compile (filler_circuit ~gates:(1 lsl 8) ()) in
  let sizes = [ 1; 4; 16; 64 ] in
  Printf.printf "%-10s %10s %12s %16s\n" "backend" "batch" "total (s)"
    "per-proof (ms)";
  List.iter
    (fun backend ->
      match Zkdet_core.Proof_system.by_name backend with
      | None -> ()
      | Some (module B) ->
        let pk = B.setup ~st:(Random.State.make [| 0xba7c; 1 |]) compiled in
        let proof = B.prove ~st:(Random.State.make [| 0xba7c; 2 |]) pk compiled in
        let vk = B.vk pk in
        let item = (vk, compiled.Cs.public_values, proof) in
        let last = ref infinity in
        List.iter
          (fun size ->
            let items = List.init size (fun _ -> item) in
            (* min of 3: the cheapest run is the least noisy estimate *)
            let total =
              List.fold_left
                (fun best _ ->
                  let ok, t = wall (fun () -> B.verify_batch items) in
                  assert ok;
                  Float.min best t)
                infinity [ 1; 2; 3 ]
            in
            let per_proof = total /. float_of_int size in
            if per_proof >= !last *. 1.05 then begin
              if !gate_enabled then incr regression_failures;
              Printf.printf
                "[regression] verify: %s per-proof cost did not fall at \
                 batch=%d (%.4g ms >= %.4g ms, 5%% margin)%s\n%!"
                B.name size (1e3 *. per_proof) (1e3 *. !last)
                (if !gate_enabled then "" else " [warning only]")
            end;
            last := per_proof;
            emit_row
              [ jstr "backend" B.name; jint "batch_size" size;
                jfloat "total_s" total; jfloat "per_proof_s" per_proof ];
            Printf.printf "%-10s %10d %12.4f %16.4f\n%!" B.name size total
              (1e3 *. per_proof))
          sizes)
    [ "plonk"; "groth16" ]

(* ---------------------------------------------------------------- *)
(* Load: mempool + parallel block execution throughput               *)
(* ---------------------------------------------------------------- *)

let load_exp ~scale () =
  header "Load: mempool + parallel block execution, 1 vs 4 domains";
  let module Pool = Zkdet_parallel.Pool in
  let module Scenario = Zkdet_core.Scenario in
  let module Chain = Zkdet_chain.Chain in
  let blocks = 4 * scale in
  let txs_per_block = 64 in
  let cfg skew =
    {
      Scenario.Config.default with
      Scenario.Config.seed = 7;
      (* disjoint assignment needs 2*txs_per_block accounts and
         txs_per_block datasets to be fully conflict-free *)
      accounts = 2 * txs_per_block;
      datasets = txs_per_block;
      blocks;
      txs_per_block;
      skew;
      work = 256;
    }
  in
  let run_at ~domains c =
    Pool.with_domains domains (fun () -> Scenario.load c)
  in
  Printf.printf "%-10s %8s %12s %10s %8s %10s\n" "workload" "domains"
    "elapsed (s)" "tx/s" "reexec" "p95 (ms)";
  let report name domains (o : Scenario.load_outcome) =
    Printf.printf "%-10s %8d %12.3f %10.0f %8d %10.2f\n%!" name domains
      o.Scenario.elapsed_s o.Scenario.tps o.Scenario.reexecuted
      o.Scenario.p95_ms;
    assert o.Scenario.load_ok;
    emit_row
      [ jstr "workload" name; jint "domains" domains;
        jint "txs" o.Scenario.executed; jint "reexecuted" o.Scenario.reexecuted;
        jfloat "elapsed_s" o.Scenario.elapsed_s;
        jfloat "p95_s" (o.Scenario.p95_ms /. 1e3) ]
  in
  (* Non-conflicting workload: every speculation commits, so this is the
     parallel speedup case. *)
  let disjoint1 = run_at ~domains:1 (cfg 0.0) in
  report "disjoint" 1 disjoint1;
  let disjoint4 = run_at ~domains:4 (cfg 0.0) in
  report "disjoint" 4 disjoint4;
  let h1 = Chain.state_hash disjoint1.Scenario.load_chain in
  let h4 = Chain.state_hash disjoint4.Scenario.load_chain in
  emit_row
    [ jstr "workload" "disjoint"; jstr "check" "determinism";
      jstr "state_hash" h1; jbool "identical" (String.equal h1 h4) ];
  if not (String.equal h1 h4) then begin
    incr regression_failures;
    Printf.printf
      "[regression] load: state hash differs between 1 and 4 domains\n%!"
  end;
  let speedup = disjoint1.Scenario.elapsed_s /. disjoint4.Scenario.elapsed_s in
  let cores = Stdlib.Domain.recommended_domain_count () in
  Printf.printf "disjoint speedup at 4 domains: %.2fx (%d host core(s))\n%!"
    speedup cores;
  if speedup < 2.0 then begin
    let gate = !gate_enabled && cores >= 4 in
    if gate then incr regression_failures;
    Printf.printf
      "[regression] load: disjoint speedup %.2fx < 2x at 4 domains%s\n%!"
      speedup
      (if gate then ""
       else " [warning only: gate needs --check-regression and >= 4 cores]")
  end;
  (* Zipf-skewed workload: popular datasets collide on their sales slot,
     so a fixed share of speculations must re-execute sequentially.  The
     re-execution count is deterministic and exact-gated. *)
  let zipf4 = run_at ~domains:4 (cfg 1.0) in
  report "zipf" 4 zipf4

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

(* Absolute slack added on top of the relative tolerance, so that
   sub-millisecond measurements cannot trip the gate on scheduler noise.
   Unit is inferred from the field name. *)
let float_slack key =
  if key = "ns_per_run" then 5e4 (* 50 us *)
  else if has_suffix key "_ns_per_point" then 100.0 (* ns *)
  else if has_suffix key "_us" then 50.0
  else 0.25 (* seconds *)

(* Compare the just-written BENCH_<name>.json against the committed
   baseline: non-float row fields must match exactly (they are
   deterministic — constraint counts, byte sizes, gas), float fields may
   not exceed baseline * (1 + tolerance) + slack. *)
let check_regression ~baseline_dir ~tolerance ~scale name =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        incr regression_failures;
        Printf.printf "[regression] %s: %s\n%!" name m)
      fmt
  in
  let baseline_path =
    Filename.concat baseline_dir (Printf.sprintf "BENCH_%s.json" name)
  in
  if not (Sys.file_exists baseline_path) then
    Printf.printf "[regression] %s: no baseline at %s (skipped)\n%!" name
      baseline_path
  else
    let parse path =
      match Json.parse (read_file path) with
      | Ok j -> j
      | Error e -> failwith (path ^ ": " ^ e)
    in
    let baseline = parse baseline_path in
    let current = parse (Printf.sprintf "BENCH_%s.json" name) in
    let meta j k = Option.bind (Json.member k j) Json.to_int_opt in
    if meta baseline "scale" <> Some scale then
      Printf.printf
        "[regression] %s: baseline recorded at a different --scale (skipped)\n%!"
        name
    else begin
      let rows j =
        Option.value ~default:[]
          (Option.bind (Json.member "rows" j) Json.to_list_opt)
      in
      let brows = rows baseline and crows = rows current in
      if List.length brows <> List.length crows then
        fail "row count changed: baseline %d vs current %d"
          (List.length brows) (List.length crows)
      else begin
        let checked = ref 0 in
        let before = !regression_failures in
        List.iteri
          (fun i (brow, crow) ->
            match brow with
            | Json.Obj fields ->
              List.iter
                (fun (key, bval) ->
                  let cval = Json.member key crow in
                  match (bval, cval) with
                  | Json.Float b, Some c -> (
                    incr checked;
                    match Json.to_float_opt c with
                    | None -> fail "row %d field %s lost its number" i key
                    | Some c ->
                      let limit = (b *. (1.0 +. tolerance)) +. float_slack key in
                      if c > limit then
                        fail "row %d %s regressed: %.4g > %.4g (baseline %.4g, tolerance %.0f%%)"
                          i key c limit b (100.0 *. tolerance))
                  | (Json.Int _ | Json.String _ | Json.Bool _), Some c ->
                    incr checked;
                    if bval <> c then
                      fail "row %d deterministic field %s drifted: %s -> %s" i
                        key (Json.to_string bval) (Json.to_string c)
                  | _, None -> fail "row %d lost field %s" i key
                  | _ -> ())
                fields
            | _ -> ())
          (List.combine brows crows);
        if !regression_failures = before then
          Printf.printf "[regression] %s: OK (%d field(s) within %.0f%% of baseline)\n%!"
            name !checked (100.0 *. tolerance)
      end
    end

(* ---------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv in
  let scale =
    let rec find = function
      | "--scale" :: v :: _ -> ( try int_of_string v with _ -> 1)
      | _ :: rest -> find rest
      | [] -> 1
    in
    find args
  in
  let profile = List.mem "--profile" args in
  let check = List.mem "--check-regression" args in
  gate_enabled := check;
  let tolerance =
    let rec find = function
      | "--tolerance" :: v :: _ -> ( try float_of_string v with _ -> 3.0)
      | _ :: rest -> find rest
      | [] -> 3.0
    in
    find args
  in
  let baseline_dir =
    let rec find = function
      | "--baseline-dir" :: v :: _ -> v
      | _ :: rest -> find rest
      | [] -> "bench/baselines"
    in
    find args
  in
  let flame_out =
    let rec find = function
      | "--flame-out" :: v :: _ -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let which =
    List.filter
      (fun a ->
        List.mem a
          [ "setup"; "fig5"; "fig6"; "fig7"; "fairswap"; "table1"; "table2";
            "micro"; "parallel"; "proptest"; "codec"; "proving"; "verify";
            "msm"; "field"; "load"; "all" ])
      args
  in
  let which = if which = [] then [ "all" ] else which in
  let run = List.mem "all" which in
  (* With one experiment selected, --flame-out FILE writes exactly FILE;
     with several, the experiment name is inserted before the extension
     so each run keeps its own collapsed stacks. *)
  let single_experiment = (not run) && List.length which = 1 in
  let flame_path name =
    Option.map
      (fun base ->
        if single_experiment then base
        else
          let ext = Filename.extension base in
          if ext = "" then base ^ "-" ^ name
          else Filename.remove_extension base ^ "-" ^ name ^ ext)
      flame_out
  in
  let t0 = Unix.gettimeofday () in
  Printf.printf "ZKDET benchmark harness (scale=%d)\n" scale;
  (* Recording is always on in the harness: each BENCH_<name>.json embeds
     the telemetry snapshot for its experiment.  [--profile] additionally
     prints the span tree after each experiment (setup always prints it). *)
  Telemetry.set_enabled true;
  let run_experiment name f =
    Telemetry.reset ();
    bench_rows := [];
    f ();
    if profile || String.equal name "setup" then Telemetry.print_summary ();
    write_bench_json ~scale name;
    Option.iter
      (fun path ->
        let spans = (Telemetry.snapshot ()).Telemetry.Report.spans in
        let oc = open_out path in
        output_string oc (Zkdet_ops.Flame.collapsed spans);
        close_out oc;
        Printf.printf "wrote flamegraph stacks %s\n%!" path)
      (flame_path name);
    if check then check_regression ~baseline_dir ~tolerance ~scale name
  in
  if run || List.mem "setup" which then run_experiment "setup" setup_exp;
  if run || List.mem "fig5" which then run_experiment "fig5" (fig5 ~scale);
  if run || List.mem "fig6" which then run_experiment "fig6" (fig6 ~scale);
  if run || List.mem "fig7" which then run_experiment "fig7" (fig7 ~scale);
  if run || List.mem "fairswap" which then
    run_experiment "fairswap" fairswap_ablation;
  if run || List.mem "table1" which then run_experiment "table1" (table1 ~scale);
  if run || List.mem "table2" which then run_experiment "table2" table2;
  if run || List.mem "parallel" which then
    run_experiment "parallel" (parallel_bench ~scale);
  if run || List.mem "proptest" which then
    run_experiment "proptest" (proptest_smoke ~scale);
  if run || List.mem "codec" which then run_experiment "codec" (codec_exp ~scale);
  if run || List.mem "proving" which then run_experiment "proving" proving_exp;
  if run || List.mem "verify" which then run_experiment "verify" verify_exp;
  if run || List.mem "msm" which then run_experiment "msm" msm_exp;
  if run || List.mem "field" which then run_experiment "field" field_exp;
  if run || List.mem "load" which then run_experiment "load" (load_exp ~scale);
  if run || List.mem "micro" which then run_experiment "micro" micro;
  Printf.printf "\ntotal bench wall time: %.1f s\n" (Unix.gettimeofday () -. t0);
  if !regression_failures > 0 then begin
    Printf.printf "REGRESSION GATE FAILED: %d issue(s)\n" !regression_failures;
    exit 1
  end
  else if check then print_endline "regression gate: PASS"
