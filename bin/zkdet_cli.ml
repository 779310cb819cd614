(* Command-line tool for poking at the ZKDET stack:

     dune exec bin/zkdet_cli.exe -- params      # curve/field parameters
     dune exec bin/zkdet_cli.exe -- selftest    # tiny end-to-end proof
     dune exec bin/zkdet_cli.exe -- ceremony -n 3 --size 8
                                                # powers-of-tau simulation
     dune exec bin/zkdet_cli.exe -- selftest --profile
                                                # + telemetry span tree
     dune exec bin/zkdet_cli.exe -- trace-check trace.jsonl
                                                # validate a ZKDET_TRACE file
     dune exec bin/zkdet_cli.exe -- prove --backend plonk --out proof.bin
     dune exec bin/zkdet_cli.exe -- verify proof.bin
                                                # cross-process prove/verify
     dune exec bin/zkdet_cli.exe -- verify-batch a.bin b.bin c.bin
                                                # one folded check per backend
     dune exec bin/zkdet_cli.exe -- chain-snapshot --out chain.bin
     dune exec bin/zkdet_cli.exe -- chain-restore chain.bin
                                                # ledger state round-trip *)

module Fr = Zkdet_field.Bn254.Fr
module Fp = Zkdet_field.Bn254.Fp
module Nat = Zkdet_num.Nat
module Ceremony = Zkdet_kzg.Ceremony
module Telemetry = Zkdet_telemetry.Telemetry
module Json = Zkdet_telemetry.Json
module Codec = Zkdet_codec.Codec
module Cs = Zkdet_plonk.Cs
module Proof_system = Zkdet_core.Proof_system
module Chain = Zkdet_chain.Chain
module Scenario = Zkdet_core.Scenario
module Obs = Zkdet_obs.Obs
module Journal = Zkdet_obs.Journal
module Audit = Zkdet_obs.Audit
module Ops = Zkdet_ops.Ops
module Flame = Zkdet_ops.Flame
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let params_cmd =
  let run () =
    Printf.printf "curve: BN254 (alt_bn128)\n";
    Printf.printf "base field p  (%d bits): %s\n" Fp.num_bits (Nat.to_decimal Fp.modulus);
    Printf.printf "scalar field r (%d bits): %s\n" Fr.num_bits (Nat.to_decimal Fr.modulus);
    Printf.printf "Fr two-adicity: %d (FFT domains up to 2^%d)\n" Fr.two_adicity
      Fr.two_adicity;
    Printf.printf "MiMC: %d rounds, S-box x^%d (CTR mode)\n" Zkdet_mimc.Mimc.rounds
      Zkdet_mimc.Mimc.degree;
    Printf.printf "Poseidon: width %d, R_F=%d, R_P=%d, S-box x^5\n"
      Zkdet_poseidon.Poseidon.width Zkdet_poseidon.Poseidon.full_rounds
      Zkdet_poseidon.Poseidon.partial_rounds;
    Printf.printf "proof: 9 G1 + 6 Fr = %d bytes\n" ((9 * 65) + (6 * 32));
    Printf.printf
      "parallel runtime: %d domain(s) (ZKDET_DOMAINS; host recommends %d)\n"
      (Zkdet_parallel.Pool.num_domains ())
      (Domain.recommended_domain_count ())
  in
  Cmd.v (Cmd.info "params" ~doc:"Print the cryptographic parameters")
    Term.(const run $ const ())

let selftest_cmd =
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "domains" ]
          ~doc:"Total domains for the parallel runtime (1 = sequential)")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Print the telemetry span tree after the proof")
  in
  let run domains profile =
    (match domains with
    | Some n when n < 1 ->
      prerr_endline "zkdet: --domains must be at least 1";
      exit 2
    | _ -> ());
    Option.iter Zkdet_parallel.Pool.set_num_domains domains;
    if profile then Telemetry.set_enabled true;
    Printf.printf "parallel runtime: %d domain(s)\n"
      (Zkdet_parallel.Pool.num_domains ());
    let env = Zkdet_core.Env.create ~log2_max_gates:12 () in
    let data = [| Fr.of_int 11; Fr.of_int 22 |] in
    let sealed = Zkdet_core.Transform.seal ~st:env.Zkdet_core.Env.rng data in
    print_endline "proving pi_e for a 2-entry dataset...";
    let proof = Zkdet_core.Transform.prove_encryption env sealed in
    let ok =
      Zkdet_core.Transform.verify_encryption env
        ~nonce:sealed.Zkdet_core.Transform.nonce
        ~c_d:sealed.Zkdet_core.Transform.c_d
        ~c_k:sealed.Zkdet_core.Transform.c_k
        ~ciphertext:sealed.Zkdet_core.Transform.ciphertext proof
    in
    Printf.printf "self-test %s\n" (if ok then "PASSED" else "FAILED");
    if profile then Telemetry.print_summary ();
    if not ok then exit 1
  in
  Cmd.v (Cmd.info "selftest" ~doc:"Generate and verify one proof of encryption")
    Term.(const run $ domains $ profile)

let ceremony_cmd =
  let contributors =
    Arg.(value & opt int 3 & info [ "n"; "contributors" ] ~doc:"Number of contributors")
  in
  let size = Arg.(value & opt int 8 & info [ "size" ] ~doc:"SRS size (G1 powers)") in
  let run n size =
    Printf.printf "simulating a %d-party powers-of-tau ceremony (size %d)...\n%!" n size;
    let state = ref (Ceremony.initial ~size) in
    for i = 1 to n do
      state := Ceremony.contribute ~contributor:(Printf.sprintf "party-%d" i) !state;
      Printf.printf "  party-%d contributed\n%!" i
    done;
    let ok = Ceremony.verify_transcript !state in
    Printf.printf "transcript verification: %s\n" (if ok then "OK" else "FAILED");
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "ceremony" ~doc:"Simulate and verify a powers-of-tau ceremony")
    Term.(const run $ contributors $ size)

let trace_check_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace file (ZKDET_TRACE output)")
  in
  (* Validates a trace end to end: every line must parse as JSON, and the
     whole file must rebuild into a report (used by the CI profile-smoke
     job to keep the trace format honest). *)
  let run file =
    let ic = open_in file in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> close_in ic);
    let lines = List.rev !lines in
    let bad = ref 0 in
    List.iteri
      (fun i line ->
        match Json.parse line with
        | Ok _ -> ()
        | Error e ->
          incr bad;
          Printf.eprintf "line %d: %s\n" (i + 1) e)
      lines;
    if !bad > 0 then (
      Printf.printf "trace-check FAILED: %d unparseable line(s)\n" !bad;
      exit 1);
    match Telemetry.Report.of_jsonl lines with
    | Error e ->
      Printf.printf "trace-check FAILED: %s\n" e;
      exit 1
    | Ok report ->
      let count_spans spans =
        let rec go acc (s : Telemetry.Report.span) =
          List.fold_left go (acc + 1) s.Telemetry.Report.children
        in
        List.fold_left go 0 spans
      in
      Printf.printf
        "trace-check OK: %d line(s), %d span node(s), %d counter(s), %d \
         histogram(s)\n"
        (List.length lines)
        (count_spans report.Telemetry.Report.spans)
        (List.length report.Telemetry.Report.counters)
        (List.length report.Telemetry.Report.histograms)
  in
  Cmd.v
    (Cmd.info "trace-check" ~doc:"Validate a JSONL telemetry trace file")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* Cross-process prove / verify.

   [prove] writes a self-contained "ZBDL" bundle — backend name, public
   inputs, verification key and proof, all in canonical wire form — so a
   separate [verify] invocation (or another machine) can check the proof
   from bytes alone. *)

let bundle_codec : (string * (Fr.t list * (string * string))) Codec.t =
  Codec.with_context "zkdet.bundle"
    (Codec.envelope ~magic:"ZBDL" ~version:1
       (Codec.pair Codec.str
          (Codec.pair (Codec.list Fr.codec) (Codec.pair Codec.bytes Codec.bytes))))

(* Deterministic demo circuit: for secret x, y derived from [seed], prove
   knowledge of factors behind the public product x*y and sum x+y. *)
let demo_circuit ~seed =
  let st = Random.State.make [| seed; 0 |] in
  let x = Fr.random st and y = Fr.random st in
  let cs = Cs.create () in
  let prod_pub = Cs.public_input cs (Fr.mul x y) in
  let sum_pub = Cs.public_input cs (Fr.add x y) in
  let xw = Cs.fresh cs x in
  let yw = Cs.fresh cs y in
  Cs.assert_equal cs (Cs.mul cs xw yw) prod_pub;
  Cs.assert_equal cs (Cs.add cs xw yw) sum_pub;
  Cs.compile cs

let backend_arg =
  Arg.(
    value
    & opt string "plonk"
    & info [ "backend" ] ~docv:"NAME" ~doc:"Proof system: plonk or groth16")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N" ~doc:"Deterministic seed for the demo circuit")

let prove_cmd =
  let out =
    Arg.(
      value & opt string "proof.bin"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Bundle output path")
  in
  let run backend seed out =
    match Proof_system.by_name backend with
    | None ->
      Printf.eprintf "zkdet: unknown backend %S (try plonk or groth16)\n" backend;
      exit 2
    | Some (module B) ->
      let compiled = demo_circuit ~seed in
      (* Separate RNG streams for setup and proving, so the proof bytes do
         not depend on whether setup was served from the SRS cache. *)
      let pk = B.setup ~st:(Random.State.make [| seed; 1 |]) compiled in
      let proof = B.prove ~st:(Random.State.make [| seed; 2 |]) pk compiled in
      let vk = B.vk pk in
      let publics = Array.to_list compiled.Cs.public_values in
      if not (B.verify vk compiled.Cs.public_values proof) then begin
        prerr_endline "zkdet: freshly generated proof failed to verify";
        exit 1
      end;
      let bundle =
        Codec.encode bundle_codec
          (B.name, (publics, (B.vk_to_bytes vk, B.proof_to_bytes proof)))
      in
      write_file out bundle;
      Printf.printf "wrote %s: backend=%s publics=%d proof=%d bytes bundle=%d bytes\n"
        out B.name (List.length publics)
        (B.proof_size_bytes proof) (String.length bundle)
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:"Prove the demo statement and write a portable proof bundle")
    Term.(const run $ backend_arg $ seed_arg $ out)

let verify_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Proof bundle written by [prove]")
  in
  let run file =
    let bytes = read_file file in
    match Codec.decode bundle_codec bytes with
    | Error e ->
      Printf.printf "verify FAILED: %s\n" (Codec.error_to_string e);
      exit 1
    | Ok (backend, (publics, (vk_bytes, proof_bytes))) -> (
      match Proof_system.by_name backend with
      | None ->
        Printf.printf "verify FAILED: bundle names unknown backend %S\n" backend;
        exit 1
      | Some (module B) -> (
        match (B.vk_of_bytes vk_bytes, B.proof_of_bytes proof_bytes) with
        | Error e, _ ->
          Printf.printf "verify FAILED: bad verification key: %s\n"
            (Codec.error_to_string e);
          exit 1
        | _, Error e ->
          Printf.printf "verify FAILED: bad proof: %s\n" (Codec.error_to_string e);
          exit 1
        | Ok vk, Ok proof ->
          let ok = B.verify vk (Array.of_list publics) proof in
          Printf.printf "verify %s: backend=%s publics=%d\n"
            (if ok then "OK" else "FAILED")
            backend (List.length publics);
          if not ok then exit 1))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Verify a proof bundle from bytes alone (separate process)")
    Term.(const run $ file)

(* Batched cross-process verification: read any number of [prove] bundles
   and check each backend's proofs with ONE folded pairing check instead
   of one per bundle.  Bundles may mix backends (grouped per backend) and
   circuits (the RLC fold supports mixed statements); the exit status is
   the conjunction of the per-backend batch verdicts. *)
let verify_batch_cmd =
  let files =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Proof bundles written by [prove]")
  in
  let run files =
    let decoded =
      List.map
        (fun f ->
          match Codec.decode bundle_codec (read_file f) with
          | Error e ->
            Printf.printf "verify-batch FAILED: %s: %s\n" f
              (Codec.error_to_string e);
            exit 1
          | Ok bundle -> (f, bundle))
        files
    in
    (* Group by backend, preserving file order within each group. *)
    let backends =
      List.fold_left
        (fun acc (_, (backend, _)) ->
          if List.mem backend acc then acc else acc @ [ backend ])
        [] decoded
    in
    let all_ok =
      List.for_all
        (fun backend ->
          match Proof_system.by_name backend with
          | None ->
            Printf.printf
              "verify-batch FAILED: bundle names unknown backend %S\n" backend;
            false
          | Some (module B) ->
            let items =
              List.filter_map
                (fun (f, (b, (publics, (vk_bytes, proof_bytes)))) ->
                  if not (String.equal b backend) then None
                  else
                    match (B.vk_of_bytes vk_bytes, B.proof_of_bytes proof_bytes) with
                    | Error e, _ ->
                      Printf.printf
                        "verify-batch FAILED: %s: bad verification key: %s\n" f
                        (Codec.error_to_string e);
                      exit 1
                    | _, Error e ->
                      Printf.printf "verify-batch FAILED: %s: bad proof: %s\n" f
                        (Codec.error_to_string e);
                      exit 1
                    | Ok vk, Ok proof ->
                      Some (vk, Array.of_list publics, proof))
                decoded
            in
            let ok = B.verify_batch items in
            Printf.printf "verify-batch %s: backend=%s proofs=%d\n"
              (if ok then "OK" else "FAILED")
              backend (List.length items);
            ok)
        backends
    in
    if not all_ok then exit 1
  in
  Cmd.v
    (Cmd.info "verify-batch"
       ~doc:
         "Verify a block of proof bundles with one folded pairing check per \
          backend")
    Term.(const run $ files)

(* ------------------------------------------------------------------ *)
(* Ledger snapshot / restore. *)

(* Deterministic demo ledger: a mint, a mined block, a pending bid and
   some contract storage — enough to exercise every snapshot field. *)
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
  chain

let chain_snapshot_cmd =
  let out =
    Arg.(
      value & opt string "chain.bin"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Snapshot output path")
  in
  let run out =
    let chain = demo_chain () in
    let bytes = Chain.snapshot chain in
    write_file out bytes;
    Printf.printf "wrote %s: %d bytes, %d block(s), %d pending\nstate hash: %s\n"
      out (String.length bytes) (Chain.block_count chain)
      (Chain.pending_count chain) (Chain.state_hash chain)
  in
  Cmd.v
    (Cmd.info "chain-snapshot"
       ~doc:"Serialize the demo ledger state to a canonical snapshot")
    Term.(const run $ out)

let chain_restore_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Snapshot written by [chain-snapshot]")
  in
  let run file =
    let bytes = read_file file in
    match Chain.restore bytes with
    | Error e ->
      Printf.printf "chain-restore FAILED: %s\n" (Codec.error_to_string e);
      exit 1
    | Ok chain ->
      let reencoded = Chain.snapshot chain in
      let ok = String.equal reencoded bytes && Chain.validate chain in
      Printf.printf "restored %d block(s), %d pending\nstate hash: %s\n"
        (Chain.block_count chain) (Chain.pending_count chain)
        (Chain.state_hash chain);
      Printf.printf "round-trip %s\n" (if ok then "OK" else "FAILED");
      if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "chain-restore"
       ~doc:"Restore a ledger snapshot and re-verify its canonical bytes")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* Journaled exchange + audit reconstruction. *)

let serve_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "serve" ] ~docv:"PORT"
        ~doc:
          "Expose a live ops server (GET /metrics, /healthz, /spans, /flame) \
           on 127.0.0.1:$(docv) for the duration of the run; 0 picks a free \
           port (printed to stderr).  The server is read-only: journals and \
           state hashes are unaffected.")

let exchange_cmd =
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Write a hash-chained ZJNL event journal of the run")
  in
  let chain_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "chain-out" ] ~docv:"FILE"
          ~doc:"Write the final ledger snapshot (ZCHN) for audit joins")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:"Write telemetry in Prometheus text-exposition format")
  in
  let n =
    Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"Dataset size")
  in
  let run journal chain_out prom serve seed n =
    if n < 1 then begin
      prerr_endline "zkdet: -n must be at least 1";
      exit 2
    end;
    let cfg =
      {
        Scenario.Config.default with
        Scenario.Config.seed;
        n;
        journal;
        prom;
        serve;
      }
    in
    let o = Scenario.run_cfg cfg in
    Option.iter
      (fun p ->
        write_file p (Chain.snapshot o.Scenario.chain);
        Printf.printf "wrote chain snapshot %s (%d block(s))\n" p
          (Chain.block_count o.Scenario.chain))
      chain_out;
    Option.iter (fun p -> Printf.printf "wrote Prometheus metrics %s\n" p) prom;
    Option.iter (fun p -> Printf.printf "wrote journal %s\n" p) journal;
    Printf.printf "exchange %s: proof %s, delivery %s\n"
      (if o.Scenario.ok then "OK" else "FAILED")
      (if o.Scenario.proof_ok then "verified" else "rejected")
      (if o.Scenario.delivered then "recovered" else "missing");
    if not o.Scenario.ok then exit 1
  in
  Cmd.v
    (Cmd.info "exchange"
       ~doc:"Run a seeded end-to-end ZKCP exchange, optionally journaled")
    Term.(const run $ journal $ chain_out $ prom $ serve_arg $ seed_arg $ n)

(* ------------------------------------------------------------------ *)
(* Sustained marketplace load through the mempool + parallel blocks. *)

let load_cmd =
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Write a hash-chained ZJNL event journal of the run")
  in
  let chain_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "chain-out" ] ~docv:"FILE"
          ~doc:"Write the final ledger snapshot (ZCHN) for audit joins")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:"Write telemetry in Prometheus text-exposition format")
  in
  let accounts =
    Arg.(
      value & opt int 64
      & info [ "accounts" ] ~docv:"N" ~doc:"Distinct on-chain accounts")
  in
  let datasets =
    Arg.(
      value & opt int 32
      & info [ "datasets" ] ~docv:"N" ~doc:"Catalogue size (Zipf support)")
  in
  let blocks =
    Arg.(
      value & opt int 8
      & info [ "blocks" ] ~docv:"N" ~doc:"Blocks to produce")
  in
  let txs_per_block =
    Arg.(
      value & opt int 32
      & info [ "txs-per-block" ] ~docv:"N"
          ~doc:"Transactions submitted per block")
  in
  let skew =
    Arg.(
      value & opt float 1.0
      & info [ "skew" ] ~docv:"S"
          ~doc:
            "Zipf exponent for dataset popularity; 0 selects a disjoint \
             conflict-free assignment")
  in
  let work =
    Arg.(
      value & opt int 16
      & info [ "work" ] ~docv:"N"
          ~doc:"Per-transaction hash-chain iterations")
  in
  let run journal chain_out prom serve seed accounts datasets blocks
      txs_per_block skew work =
    if blocks < 1 || txs_per_block < 1 then begin
      prerr_endline "zkdet: --blocks and --txs-per-block must be at least 1";
      exit 2
    end;
    let cfg =
      {
        Scenario.Config.default with
        Scenario.Config.seed;
        accounts;
        datasets;
        blocks;
        txs_per_block;
        skew;
        work;
        journal;
        prom;
        serve;
      }
    in
    let o = Scenario.load cfg in
    Option.iter
      (fun p ->
        write_file p (Chain.snapshot o.Scenario.load_chain);
        Printf.printf "wrote chain snapshot %s (%d block(s))\n" p
          (Chain.block_count o.Scenario.load_chain))
      chain_out;
    Option.iter (fun p -> Printf.printf "wrote Prometheus metrics %s\n" p) prom;
    Option.iter (fun p -> Printf.printf "wrote journal %s\n" p) journal;
    Printf.printf
      "load %s: %d submitted, %d executed in %d block(s) (%d re-executed)\n"
      (if o.Scenario.load_ok then "OK" else "FAILED")
      o.Scenario.submitted o.Scenario.executed o.Scenario.blocks_built
      o.Scenario.reexecuted;
    Printf.printf "throughput %.0f tx/s, latency p50 %.2f ms p95 %.2f ms p99 %.2f ms\n"
      o.Scenario.tps o.Scenario.p50_ms o.Scenario.p95_ms o.Scenario.p99_ms;
    Printf.printf "state hash: %s\n" (Chain.state_hash o.Scenario.load_chain);
    if not o.Scenario.load_ok then exit 1
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive a Zipf-skewed marketplace workload through the mempool and \
          the parallel block builder")
    Term.(
      const run $ journal $ chain_out $ prom $ serve_arg $ seed_arg $ accounts
      $ datasets $ blocks $ txs_per_block $ skew $ work)

let audit_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOURNAL" ~doc:"ZJNL journal written by [exchange]")
  in
  let chain_snapshot =
    Arg.(
      value
      & opt (some file) None
      & info [ "chain-snapshot" ] ~docv:"FILE"
          ~doc:"Ledger snapshot (ZCHN) to cross-check the journal against")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the report as JSON")
  in
  let run file chain_snapshot json_out =
    match Journal.read_file file with
    | Error e ->
      Printf.printf "audit FAILED: %s\n" (Journal.error_to_string e);
      exit 1
    | Ok entries ->
      let chain =
        match chain_snapshot with
        | None -> None
        | Some p -> (
          match Chain.restore (read_file p) with
          | Error e ->
            Printf.printf "audit FAILED: bad chain snapshot: %s\n"
              (Codec.error_to_string e);
            exit 2
          | Ok chain ->
            Some
              (List.map
                 (fun (r : Chain.receipt) ->
                   {
                     Audit.fact_tx_hash = r.Chain.tx_hash;
                     fact_label = r.Chain.tx_label;
                     fact_ok = Result.is_ok r.Chain.status;
                     fact_block = r.Chain.block_number;
                     fact_events =
                       List.map
                         (fun (ev : Chain.event) ->
                           (ev.Chain.event_contract, ev.Chain.event_name,
                            ev.Chain.event_data))
                         r.Chain.events;
                   })
                 (Chain.receipts chain)))
      in
      let report = Audit.run ?chain entries in
      print_string (Audit.render report);
      Option.iter
        (fun p ->
          write_file p (Json.to_string_pretty (Audit.to_json report)))
        json_out;
      if not report.Audit.ok then exit 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Rebuild and verify the exchange timeline from a hash-chained \
          journal")
    Term.(const run $ file $ chain_snapshot $ json_out)

(* ------------------------------------------------------------------ *)
(* Standalone ops server tailing a (possibly growing) journal. *)

let serve_cmd =
  let journal_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"ZJNL journal to tail (may still be growing)")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "follow" ]
          ~doc:
            "Keep tailing for new records (like tail -f); without this the \
             journal is read once and served until --duration expires")
  in
  let port =
    Arg.(
      value & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Port to listen on; 0 picks a free one (printed)")
  in
  let duration =
    Arg.(
      value & opt float 0.0
      & info [ "duration" ] ~docv:"SEC"
          ~doc:"Stop after this many seconds; 0 means run until killed")
  in
  let run journal follow port duration =
    (* Shared tail state: the poll loop writes, /metrics reads. *)
    let m = Mutex.create () in
    let stats = ref Audit.empty_stats in
    let entries_rev = ref [] in
    let hash_ok = ref true in
    let audit_ok = ref true in
    let last_error = ref None in
    let locked f =
      Mutex.lock m;
      Fun.protect ~finally:(fun () -> Mutex.unlock m) f
    in
    let extra () =
      locked @@ fun () ->
      let s = !stats in
      let b = Buffer.create 512 in
      let gauge name help v =
        Telemetry.Report.prom_family b name ~typ:`Gauge ~help
          [ ("", [], string_of_int v) ]
      in
      let flag name help v = gauge name help (if v then 1 else 0) in
      gauge "zkdet_journal_entries" "Journal records consumed by the tail."
        s.Audit.st_entries;
      gauge "zkdet_journal_last_seq"
        "Highest sequence number seen (-1 before the first record)."
        s.Audit.st_last_seq;
      flag "zkdet_journal_hash_ok"
        "1 while the SHA-256 hash chain verifies, 0 after a break."
        !hash_ok;
      flag "zkdet_journal_audit_ok"
        "1 while the partial audit over the consumed prefix reports no errors."
        !audit_ok;
      gauge "zkdet_journal_txs_submitted" "Tx_submitted events seen."
        s.Audit.st_txs_submitted;
      gauge "zkdet_journal_txs_mined" "Tx_mined events seen."
        s.Audit.st_txs_mined;
      gauge "zkdet_journal_txs_reverted" "Tx_reverted events seen."
        s.Audit.st_txs_reverted;
      gauge "zkdet_journal_blocks_built" "Block_built events seen."
        s.Audit.st_blocks_built;
      gauge "zkdet_journal_proofs_verified"
        "Proof_verified events with ok=true seen."
        s.Audit.st_proofs_verified;
      gauge "zkdet_journal_traces_begun" "Trace_begin events seen."
        s.Audit.st_traces_begun;
      gauge "zkdet_journal_traces_ended" "Trace_end events seen."
        s.Audit.st_traces_ended;
      Buffer.contents b
    in
    let server = Ops.start ~port (Ops.routes ~extra ()) in
    Printf.printf "ops server listening on http://127.0.0.1:%d\n%!"
      (Ops.port server);
    let tail = Journal.create_tail journal in
    let poll () =
      match Journal.poll_tail tail with
      | Ok [] -> ()
      | Ok fresh ->
        locked (fun () ->
            stats := List.fold_left Audit.stats_add !stats fresh;
            entries_rev := List.rev_append fresh !entries_rev;
            (* Full causal audit over the consumed prefix, with the
               end-of-journal obligations relaxed (the tail is mid-run). *)
            let report = Audit.run ~partial:true (List.rev !entries_rev) in
            audit_ok := report.Audit.ok)
      | Error e ->
        locked (fun () ->
            hash_ok := false;
            last_error := Some (Journal.error_to_string e))
    in
    let t0 = Unix.gettimeofday () in
    let expired () =
      duration > 0.0 && Unix.gettimeofday () -. t0 >= duration
    in
    poll ();
    (if follow then
       while (not (expired ())) && !hash_ok do
         Unix.sleepf 0.2;
         poll ()
       done
     else
       while not (expired ()) do
         Unix.sleepf 0.2
       done);
    Ops.stop server;
    let s = locked (fun () -> !stats) in
    Printf.printf
      "tailed %d record(s) (last seq %d): %d tx mined, %d reverted, %d \
       block(s), audit %s\n"
      s.Audit.st_entries s.Audit.st_last_seq s.Audit.st_txs_mined
      s.Audit.st_txs_reverted s.Audit.st_blocks_built
      (if !audit_ok then "ok" else "FAILED");
    match !last_error with
    | Some e ->
      Printf.printf "journal hash chain BROKEN: %s\n" e;
      exit 1
    | None -> if not !audit_ok then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve live metrics while tailing a ZJNL journal, verifying its \
          hash chain incrementally")
    Term.(const run $ journal_arg $ follow $ port $ duration)

(* ------------------------------------------------------------------ *)
(* Flamegraph export from a JSONL telemetry trace. *)

let flame_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:"JSONL telemetry trace (written via ZKDET_TRACE)")
  in
  let fmt =
    Arg.(
      value
      & opt (enum [ ("collapsed", `Collapsed); ("speedscope", `Speedscope) ])
          `Collapsed
      & info [ "fmt" ] ~docv:"FMT"
          ~doc:
            "Output format: $(b,collapsed) (flamegraph.pl stack lines) or \
             $(b,speedscope) (JSON for speedscope.app)")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write here instead of stdout")
  in
  let run file fmt out =
    let lines =
      let ic = open_in file in
      let acc = ref [] in
      (try
         while true do
           acc := input_line ic :: !acc
         done
       with End_of_file -> ());
      close_in ic;
      List.rev !acc
    in
    match Telemetry.Report.of_jsonl lines with
    | Error e ->
      Printf.printf "flame FAILED: %s\n" e;
      exit 1
    | Ok report ->
      let spans = report.Telemetry.Report.spans in
      if spans = [] then prerr_endline "zkdet: warning: trace has no spans";
      let body =
        match fmt with
        | `Collapsed -> Flame.collapsed spans
        | `Speedscope -> Json.to_string (Flame.speedscope spans)
      in
      (match out with
      | None -> print_string body
      | Some p ->
        write_file p body;
        Printf.printf "wrote %s (%d bytes)\n" p (String.length body))
  in
  Cmd.v
    (Cmd.info "flame"
       ~doc:
         "Convert a JSONL telemetry trace into a flamegraph (collapsed-stack \
          or speedscope)")
    Term.(const run $ file $ fmt $ out)

let () =
  let doc = "ZKDET: traceable, privacy-preserving data exchange" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "zkdet" ~doc)
          [ params_cmd; selftest_cmd; ceremony_cmd; trace_check_cmd;
            prove_cmd; verify_cmd; verify_batch_cmd; chain_snapshot_cmd; chain_restore_cmd;
            exchange_cmd; load_cmd; audit_cmd; serve_cmd; flame_cmd ]))
