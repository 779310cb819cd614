(* Tests for the canonical wire format layer (lib/codec and the codecs
   built on it across field, curve, proofs, SRS, chain and storage):

   - primitive/combinator round-trips and typed rejection of truncated,
     trailing, overlong and malformed input;
   - canonicity: any accepted byte string re-encodes to itself, checked
     under random bit flips (field elements, curve points);
   - cross-representation agreement (compressed vs uncompressed points);
   - proof + verification-key round-trips for both backends, with
     verification running from decoded bytes only;
   - SRS persistence and the ZKDET_SRS_CACHE disk cache;
   - chain snapshot round-trip (state-hash equality) and decoder
     totality under tampering;
   - storage manifests and dataset encodings;
   - golden vectors: committed hex in test/vectors/ must match the
     current encoders byte for byte (regenerate deliberately with
     [dune exec test/gen_vectors.exe]). *)

module C = Zkdet_codec.Codec
module P = Zkdet_proptest.Proptest
module Gen = Zkdet_proptest.Gen
module Gz = Zkdet_proptest.Gen_zk
module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Srs = Zkdet_kzg.Srs
module Proof_system = Zkdet_core.Proof_system
module Chain = Zkdet_chain.Chain
module Storage = Zkdet_storage.Storage

let rng = Test_util.rng ~salt:"codec" ()

let hex = Vectors_def.to_hex

(* ---- primitives and combinators ---- *)

let roundtrips codec v =
  match C.decode codec (C.encode codec v) with
  | Ok v' -> v' = v
  | Error _ -> false

let test_primitive_roundtrips () =
  let check name b = Alcotest.(check bool) name true b in
  check "u8" (roundtrips C.u8 0 && roundtrips C.u8 255);
  check "u16" (roundtrips C.u16 0xbeef);
  check "u32" (roundtrips C.u32 0xdead_beef);
  check "u64" (roundtrips C.u64 0 && roundtrips C.u64 max_int);
  check "bool" (roundtrips C.bool true && roundtrips C.bool false);
  check "bytes_fixed" (roundtrips (C.bytes_fixed 4) "abcd");
  check "bytes empty" (roundtrips C.bytes "");
  check "str" (roundtrips C.str "hello \x00 world");
  check "pair" (roundtrips (C.pair C.u8 C.str) (7, "x"));
  check "triple" (roundtrips (C.triple C.u8 C.u16 C.bool) (1, 2, true));
  check "quad" (roundtrips (C.quad C.u8 C.u8 C.u8 C.u8) (1, 2, 3, 4));
  check "list" (roundtrips (C.list C.u16) [ 1; 2; 3 ] && roundtrips (C.list C.u16) []);
  check "array" (roundtrips (C.array C.u8) [| 9; 8 |]);
  check "exactly" (roundtrips (C.exactly 3 C.u8) [ 1; 2; 3 ]);
  check "option"
    (roundtrips (C.option C.u32) None && roundtrips (C.option C.u32) (Some 42));
  check "envelope"
    (roundtrips (C.envelope ~magic:"TEST" ~version:7 C.u16) 999)

type shape = Circle of int | Rect of int * int

let shape_codec : shape C.t =
  C.union "shape"
    [ C.case ~tag:0 C.u8
        (fun n -> Circle n)
        (function Circle n -> Some n | _ -> None);
      C.case ~tag:1 (C.pair C.u8 C.u8)
        (fun (w, h) -> Rect (w, h))
        (function Rect (w, h) -> Some (w, h) | _ -> None) ]

let test_union () =
  Alcotest.(check bool) "circle" true (roundtrips shape_codec (Circle 5));
  Alcotest.(check bool) "rect" true (roundtrips shape_codec (Rect (3, 4)));
  (match C.decode shape_codec "\x02" with
  | Error (C.Bad_tag { tag = 2; _ }) -> ()
  | _ -> Alcotest.fail "unknown tag not reported as Bad_tag")

let test_rejections () =
  let is_err c s = Result.is_error (C.decode c s) in
  let check name b = Alcotest.(check bool) name true b in
  check "truncated u32" (is_err C.u32 "\x00\x00\x00");
  check "trailing byte" (is_err C.u8 "\x00\x00");
  check "u64 above max_int" (is_err C.u64 (String.make 8 '\xff'));
  check "bool 0x02" (is_err C.bool "\x02");
  check "hostile list count" (is_err (C.list C.u8) "\xff\xff\xff\xff");
  (match C.decode (C.envelope ~magic:"TEST" ~version:1 C.u8) "ZZZZ\x00\x01\x05" with
  | Error (C.Bad_magic _) -> ()
  | _ -> Alcotest.fail "wrong magic not reported as Bad_magic");
  (match C.decode (C.envelope ~magic:"TEST" ~version:1 C.u8) "TEST\x00\x02\x05" with
  | Error (C.Bad_version { expected = 1; got = 2; _ }) -> ()
  | _ -> Alcotest.fail "wrong version not reported as Bad_version");
  (* truncated structure inside a valid envelope *)
  check "truncated payload" (is_err (C.envelope ~magic:"TEST" ~version:1 C.u32) "TEST\x00\x01\xab")

(* ---- field canonicity ---- *)

(* Big-endian increment, for building p and p+1 from p-1 bytes. *)
let incr_be (s : string) : string =
  let b = Bytes.of_string s in
  let rec go i =
    if i < 0 then ()
    else if Bytes.get b i = '\xff' then begin
      Bytes.set b i '\x00';
      go (i - 1)
    end
    else Bytes.set b i (Char.chr (Char.code (Bytes.get b i) + 1))
  in
  go (Bytes.length b - 1);
  Bytes.to_string b

let test_field_canonical () =
  let p_minus_1 = Fr.to_bytes_be (Fr.neg Fr.one) in
  let p = incr_be p_minus_1 in
  let p_plus_1 = incr_be p in
  Alcotest.(check bool) "p-1 accepted" true
    (Result.is_ok (Fr.of_bytes_be_canonical p_minus_1));
  Alcotest.(check bool) "p rejected" true
    (Result.is_error (Fr.of_bytes_be_canonical p));
  Alcotest.(check bool) "p+1 rejected" true
    (Result.is_error (Fr.of_bytes_be_canonical p_plus_1));
  Alcotest.(check bool) "0xff..ff rejected" true
    (Result.is_error (Fr.of_bytes_be_canonical (String.make Fr.num_bytes '\xff')));
  Alcotest.(check bool) "bad length rejected" true
    (Result.is_error (Fr.of_bytes_be_canonical "short"));
  P.check ~name:"fr codec roundtrip" ~print:(fun x -> hex (Fr.to_bytes_be x))
    Gz.fr
    (fun x ->
      match C.decode Fr.codec (C.encode Fr.codec x) with
      | Ok y -> Fr.equal x y
      | Error _ -> false)

(* Any accepted input re-encodes to itself: flipping one bit of a valid
   encoding either gets rejected or decodes to a value whose canonical
   encoding IS the mutated string. *)
let flip_bit (s : string) (bit : int) : string =
  let b = Bytes.of_string s in
  let i = bit / 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

let canonical_under_flip (type a) (codec : a C.t) (encoded : string) (bit : int) =
  let mutated = flip_bit encoded bit in
  match C.decode codec mutated with
  | Error _ -> true
  | Ok v -> String.equal (C.encode codec v) mutated

let test_field_bitflip_canonicity () =
  P.check ~name:"fr codec canonical under bit flips"
    ~print:(fun (x, bit) -> Printf.sprintf "bit %d of %s" bit (hex (Fr.to_bytes_be x)))
    (Gen.pair Gz.fr (Gen.int_range 0 ((Fr.num_bytes * 8) - 1)))
    (fun (x, bit) -> canonical_under_flip Fr.codec (C.encode Fr.codec x) bit)

(* ---- curve point codecs ---- *)

let test_point_roundtrips () =
  P.check ~name:"g1 compressed roundtrip" ~print:(fun _ -> "<g1>") Gz.g1
    (fun p ->
      match C.decode G1.codec (C.encode G1.codec p) with
      | Ok q -> G1.equal p q
      | Error _ -> false);
  P.check ~name:"g2 compressed roundtrip" ~print:(fun _ -> "<g2>") Gz.g2
    (fun p ->
      match C.decode G2.codec (C.encode G2.codec p) with
      | Ok q -> G2.equal p q
      | Error _ -> false);
  P.check ~name:"g1 compressed/uncompressed agree" ~print:(fun _ -> "<g1>") Gz.g1
    (fun p ->
      match
        ( C.decode G1.codec (C.encode G1.codec p),
          C.decode G1.codec_uncompressed (C.encode G1.codec_uncompressed p) )
      with
      | Ok a, Ok b -> G1.equal a b && G1.equal a p
      | _ -> false);
  Alcotest.(check int) "g1 compressed size" 33
    (String.length (C.encode G1.codec G1.generator));
  Alcotest.(check int) "g2 compressed size" 65
    (String.length (C.encode G2.codec G2.generator))

let test_point_bitflip_canonicity () =
  P.check ~name:"g1 codec canonical under bit flips" ~print:(fun (_, b) -> string_of_int b)
    (Gen.pair Gz.g1 (Gen.int_range 0 ((33 * 8) - 1)))
    (fun (p, bit) -> canonical_under_flip G1.codec (C.encode G1.codec p) bit);
  P.check ~name:"g2 codec canonical under bit flips" ~print:(fun (_, b) -> string_of_int b)
    (Gen.pair Gz.g2 (Gen.int_range 0 ((65 * 8) - 1)))
    (fun (p, bit) -> canonical_under_flip G2.codec (C.encode G2.codec p) bit)

(* ---- proof systems ---- *)

let compiled = Vectors_def.circuit ()

let test_backend (module B : Proof_system.S) () =
  let pk = B.setup ~st:rng compiled in
  let proof = B.prove ~st:rng pk compiled in
  let vk = B.vk pk in
  let proof_bytes = B.proof_to_bytes proof in
  let vk_bytes = B.vk_to_bytes vk in
  Alcotest.(check int) "declared size" (String.length proof_bytes)
    (B.proof_size_bytes proof);
  (* verification from decoded bytes only, as a separate process would *)
  (match (B.vk_of_bytes vk_bytes, B.proof_of_bytes proof_bytes) with
  | Ok vk', Ok proof' ->
    Alcotest.(check bool) "verifies from bytes" true
      (B.verify vk' compiled.Zkdet_plonk.Cs.public_values proof')
  | Error e, _ | _, Error e -> Alcotest.fail (C.error_to_string e));
  Alcotest.(check bool) "truncated proof rejected" true
    (Result.is_error
       (B.proof_of_bytes (String.sub proof_bytes 0 (String.length proof_bytes - 1))));
  Alcotest.(check bool) "overlong proof rejected" true
    (Result.is_error (B.proof_of_bytes (proof_bytes ^ "\x00")));
  Alcotest.(check bool) "truncated vk rejected" true
    (Result.is_error
       (B.vk_of_bytes (String.sub vk_bytes 0 (String.length vk_bytes - 1))));
  (* totality: every single-byte corruption decodes to Error or to a
     value that still verifies-or-not without raising *)
  for i = 0 to String.length proof_bytes - 1 do
    let mutated = flip_bit proof_bytes (i * 8) in
    match B.proof_of_bytes mutated with
    | Error _ -> ()
    | Ok p -> ignore (B.verify vk compiled.Zkdet_plonk.Cs.public_values p)
  done;
  for i = 0 to String.length vk_bytes - 1 do
    let mutated = flip_bit vk_bytes (i * 8) in
    match B.vk_of_bytes mutated with
    | Error _ -> ()
    | Ok vk' -> ignore (B.verify vk' compiled.Zkdet_plonk.Cs.public_values proof)
  done

(* ---- SRS persistence ---- *)

let test_srs_roundtrip () =
  let srs = Srs.unsafe_generate ~st:rng ~size:8 () in
  let bytes = Srs.to_bytes srs in
  (match Srs.of_bytes bytes with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok srs' ->
    Alcotest.(check bool) "bytes stable" true
      (String.equal bytes (Srs.to_bytes srs'));
    Alcotest.(check bool) "pairing-consistent after reload" true
      (Srs.verify ~exhaustive:true srs'));
  let header = Srs.header_bytes ~size:8 in
  Alcotest.(check string) "header is a prefix of the file" header
    (String.sub bytes 0 (String.length header));
  (* corrupting the tail (a G1 power) must be caught by the on-curve check *)
  Alcotest.(check bool) "corrupted srs rejected" true
    (Result.is_error (Srs.of_bytes (flip_bit bytes ((String.length bytes - 1) * 8))));
  (* size mismatch between header and powers *)
  Alcotest.(check bool) "truncated srs rejected" true
    (Result.is_error (Srs.of_bytes (String.sub bytes 0 (String.length bytes - 65))))

let test_srs_cache () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "zkdet-srs-cache-test-%d" (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Unix.putenv "ZKDET_SRS_CACHE" dir;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir;
      (* point later loads at a now-missing dir: cache misses, no writes *)
      ())
    (fun () ->
      let s1 = Srs.load_or_generate ~st:rng ~size:8 () in
      let files = Sys.readdir dir in
      Alcotest.(check int) "cache file written" 1 (Array.length files);
      (* a different RNG would give a different tau; the cache must win *)
      let s2 =
        Srs.load_or_generate ~st:(Test_util.rng ~salt:"codec-other" ()) ~size:8 ()
      in
      Alcotest.(check bool) "second load served from cache" true
        (String.equal (Srs.to_bytes s1) (Srs.to_bytes s2));
      (* corrupt the cached file: loader must fall back to regeneration *)
      let path = Filename.concat dir files.(0) in
      let data = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (flip_bit data ((String.length data - 1) * 8)));
      let s3 = Srs.load_or_generate ~st:rng ~size:8 () in
      Alcotest.(check bool) "regenerated srs is valid" true
        (Srs.verify ~exhaustive:true s3);
      (* and the repaired file is served again *)
      let s4 = Srs.load_or_generate ~st:(Test_util.rng ~salt:"codec-other2" ()) ~size:8 () in
      Alcotest.(check bool) "repaired cache served" true
        (String.equal (Srs.to_bytes s3) (Srs.to_bytes s4));
      (* different size = different cache entry *)
      let _s5 = Srs.load_or_generate ~st:rng ~size:16 () in
      Alcotest.(check int) "per-size cache files" 2
        (Array.length (Sys.readdir dir)))

(* ZKDET_SRS_CACHE pointing at a nested, not-yet-existing path must work:
   the cache writer creates parents recursively instead of failing the
   single-level mkdir and silently dropping the cache. *)
let test_srs_cache_nested_dir () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "zkdet-srs-nested-%d" (Unix.getpid ()))
  in
  let dir = Filename.concat (Filename.concat root "a") "b" in
  Unix.putenv "ZKDET_SRS_CACHE" dir;
  let rm_rf () =
    let rec go p =
      if Sys.file_exists p then
        if Sys.is_directory p then begin
          Array.iter (fun f -> go (Filename.concat p f)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
    in
    go root
  in
  Fun.protect ~finally:rm_rf (fun () ->
      let s1 = Srs.load_or_generate ~st:rng ~size:8 () in
      Alcotest.(check bool) "nested cache dir created" true
        (Sys.file_exists dir && Sys.is_directory dir);
      Alcotest.(check int) "cache file written under the nested dir" 1
        (Array.length (Sys.readdir dir));
      let s2 =
        Srs.load_or_generate
          ~st:(Test_util.rng ~salt:"codec-nested-other" ())
          ~size:8 ()
      in
      Alcotest.(check bool) "served from the nested cache" true
        (String.equal (Srs.to_bytes s1) (Srs.to_bytes s2)))

(* An unwritable cache location must not fail generation — and must be
   counted, because a misconfigured cache costs a ceremony per process. *)
let test_srs_cache_unwritable () =
  Unix.putenv "ZKDET_SRS_CACHE" "/proc/zkdet-cannot-create-this";
  let was_enabled = Zkdet_telemetry.Telemetry.enabled () in
  Zkdet_telemetry.Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Zkdet_telemetry.Telemetry.set_enabled was_enabled)
    (fun () ->
      let before =
        Option.value ~default:0
          (Zkdet_telemetry.Telemetry.Report.find_counter
             (Zkdet_telemetry.Telemetry.snapshot ())
             "kzg.srs.cache_dir_failures")
      in
      let s = Srs.load_or_generate ~st:rng ~size:8 () in
      Alcotest.(check bool) "srs still generated" true
        (Srs.verify ~exhaustive:true s);
      let after =
        Option.value ~default:0
          (Zkdet_telemetry.Telemetry.Report.find_counter
             (Zkdet_telemetry.Telemetry.snapshot ())
             "kzg.srs.cache_dir_failures")
      in
      Alcotest.(check bool) "failure counted" true (after > before))

(* A flipped byte inside the persisted fixed-base table section must be
   caught by the decode-time row validation, bump the cache_corrupt
   counter and fall back to regeneration (never load a wrong table). *)
let test_srs_table_corruption () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "zkdet-srs-fb-test-%d" (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Unix.putenv "ZKDET_SRS_CACHE" dir;
  let was_enabled = Zkdet_telemetry.Telemetry.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Zkdet_telemetry.Telemetry.set_enabled was_enabled;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let s1 = Srs.load_or_generate ~st:rng ~size:8 () in
      Alcotest.(check bool) "tables built before caching" true
        (Srs.fixed_base_table s1 <> None);
      let files = Sys.readdir dir in
      Alcotest.(check int) "cache file written" 1 (Array.length files);
      let path = Filename.concat dir files.(0) in
      let data = In_channel.with_open_bin path In_channel.input_all in
      (* the table section is the file tail: flip a byte inside the last
         pre-shifted row, well past the last G1 power *)
      let corrupt_bit = (String.length data - 40) * 8 in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (flip_bit data corrupt_bit));
      Zkdet_telemetry.Telemetry.set_enabled true;
      Zkdet_telemetry.Telemetry.reset ();
      let s2 = Srs.load_or_generate ~st:rng ~size:8 () in
      let report = Zkdet_telemetry.Telemetry.snapshot () in
      Zkdet_telemetry.Telemetry.set_enabled was_enabled;
      Alcotest.(check (option int)) "cache_corrupt counted" (Some 1)
        (Zkdet_telemetry.Telemetry.Report.find_counter report
           "kzg.srs.cache_corrupt");
      Alcotest.(check bool) "regenerated srs valid" true
        (Srs.verify ~exhaustive:true s2);
      Alcotest.(check bool) "regenerated tables present" true
        (Srs.fixed_base_table s2 <> None))

(* Proof bytes must not depend on whether the fixed-base tables were
   built in-process (cold) or decoded from the disk cache (warm). *)
let test_srs_cold_warm_prove () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "zkdet-srs-warm-test-%d" (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Unix.putenv "ZKDET_SRS_CACHE" dir;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let cold = Srs.load_or_generate ~st:(Random.State.make [| 0xFB; 1 |]) ~size:64 () in
      (* a different tau would betray a cache miss here *)
      let warm = Srs.load_or_generate ~st:(Random.State.make [| 0xFB; 2 |]) ~size:64 () in
      Alcotest.(check bool) "warm load has tables" true
        (Srs.fixed_base_table warm <> None);
      let prove srs =
        let pk = Zkdet_plonk.Preprocess.setup srs compiled in
        Zkdet_plonk.Proof.wire_encode
          (Zkdet_plonk.Prover.prove ~st:(Random.State.make [| 0xFB; 3 |]) pk
             compiled)
      in
      Alcotest.(check string) "cold vs warm proof bytes identical"
        (hex (prove cold)) (hex (prove warm)))

(* ---- chain snapshots ---- *)

let test_chain_snapshot () =
  let chain = Vectors_def.demo_chain () in
  let bytes = Chain.snapshot chain in
  let h = Chain.state_hash chain in
  match Chain.restore bytes with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok chain' ->
    Alcotest.(check string) "state hash preserved" h (Chain.state_hash chain');
    Alcotest.(check bool) "restored chain validates" true (Chain.validate chain');
    Alcotest.(check int) "pending preserved"
      (Chain.pending_count chain) (Chain.pending_count chain');
    Alcotest.(check int) "blocks preserved"
      (Chain.block_count chain) (Chain.block_count chain');
    Alcotest.(check (option string)) "storage preserved"
      (Chain.storage_get chain ~contract:"registry" ~key:"token-1/uri")
      (Chain.storage_get chain' ~contract:"registry" ~key:"token-1/uri");
    let bob = Chain.Address.of_seed "bob" in
    Alcotest.(check int) "balances preserved"
      (Chain.balance chain bob) (Chain.balance chain' bob);
    (* the snapshot is canonical: re-encoding the restored chain gives
       the same bytes *)
    Alcotest.(check bool) "re-encode identical" true
      (String.equal bytes (Chain.snapshot chain'))

let test_chain_snapshot_totality () =
  let bytes = Chain.snapshot (Vectors_def.demo_chain ()) in
  (* restore never raises, whatever we do to the bytes *)
  for i = 0 to String.length bytes - 1 do
    if i mod 5 = 0 then
      match Chain.restore (flip_bit bytes (i * 8)) with
      | Error _ -> ()
      | Ok chain' -> ignore (Chain.state_hash chain')
  done;
  Alcotest.(check bool) "empty rejected" true (Result.is_error (Chain.restore ""));
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Chain.restore "ZCHN\x00\x01 not a snapshot"))

(* ---- storage ---- *)

let test_manifest () =
  let cids = Vectors_def.manifest_cids in
  let bytes = C.encode Storage.manifest_codec cids in
  Alcotest.(check bool) "magic present" true (Storage.is_manifest bytes);
  (match Storage.manifest_cids bytes with
  | Some cids' -> Alcotest.(check (list string)) "cids roundtrip" cids cids'
  | None -> Alcotest.fail "manifest did not decode");
  Alcotest.(check bool) "garbage is not a manifest" true
    (Storage.manifest_cids "not a manifest" = None);
  Alcotest.(check bool) "truncated manifest rejected" true
    (Storage.manifest_cids (String.sub bytes 0 (String.length bytes - 3)) = None);
  (* a CID with a non-hex body is rejected even in a valid frame *)
  let bad = C.encode Storage.manifest_codec [ String.make 66 'z' ] in
  Alcotest.(check bool) "malformed cid rejected" true
    (Storage.manifest_cids bad = None)

let test_dataset_codec () =
  let data = Array.init 17 (fun i -> Fr.of_int (i * i)) in
  let bytes = Storage.Codec.encode data in
  (match Storage.Codec.decode_result bytes with
  | Ok data' ->
    Alcotest.(check bool) "dataset roundtrip" true
      (Array.for_all2 Fr.equal data data')
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "ragged length rejected" true
    (Result.is_error (Storage.Codec.decode_result (bytes ^ "\x00")));
  Alcotest.(check bool) "non-canonical element rejected" true
    (Result.is_error (Storage.Codec.decode_result (String.make Fr.num_bytes '\xff')))

(* ---- golden vectors ---- *)

let check_vectors vectors () =
  (* `dune runtest` runs in test/; `dune exec test/test_codec.exe` in the
     repo root *)
  let dir =
    if Sys.file_exists "vectors" then "vectors"
    else Filename.concat "test" "vectors"
  in
  List.iter
    (fun (name, bytes) ->
      let path = Filename.concat dir name in
      let committed = In_channel.with_open_bin path In_channel.input_all in
      if not (String.equal (Vectors_def.of_hex committed) bytes) then
        Alcotest.failf
          "%s drifted from the committed vector; if the format change is \
           intentional, regenerate with `dune exec test/gen_vectors.exe` and \
           update FORMATS.md"
          name)
    (vectors ())

let () =
  Alcotest.run "zkdet_codec"
    [ ( "combinators",
        [ Alcotest.test_case "primitive roundtrips" `Quick test_primitive_roundtrips;
          Alcotest.test_case "tagged unions" `Quick test_union;
          Alcotest.test_case "malformed input rejected" `Quick test_rejections ] );
      ( "field",
        [ Alcotest.test_case "canonical range" `Quick test_field_canonical;
          Alcotest.test_case "bit-flip canonicity" `Quick test_field_bitflip_canonicity ] );
      ( "curve",
        [ Alcotest.test_case "point roundtrips" `Quick test_point_roundtrips;
          Alcotest.test_case "bit-flip canonicity" `Quick test_point_bitflip_canonicity ] );
      ( "proof-systems",
        [ Alcotest.test_case "plonk wire format" `Quick
            (test_backend (module Proof_system.Plonk));
          Alcotest.test_case "groth16 wire format" `Quick
            (test_backend (module Proof_system.Groth16)) ] );
      ( "srs",
        [ Alcotest.test_case "file roundtrip" `Quick test_srs_roundtrip;
          Alcotest.test_case "disk cache" `Quick test_srs_cache;
          Alcotest.test_case "nested cache dir created recursively" `Quick
            test_srs_cache_nested_dir;
          Alcotest.test_case "unwritable cache is non-fatal but counted"
            `Quick test_srs_cache_unwritable;
          Alcotest.test_case "table-section corruption" `Quick
            test_srs_table_corruption;
          Alcotest.test_case "cold vs warm table cache proves identically"
            `Quick test_srs_cold_warm_prove ] );
      ( "chain",
        [ Alcotest.test_case "snapshot roundtrip" `Quick test_chain_snapshot;
          Alcotest.test_case "decoder totality" `Quick test_chain_snapshot_totality ] );
      ( "storage",
        [ Alcotest.test_case "manifest" `Quick test_manifest;
          Alcotest.test_case "dataset codec" `Quick test_dataset_codec ] );
      ( "golden",
        [ Alcotest.test_case "no byte drift" `Quick (check_vectors Vectors_def.all);
          Alcotest.test_case "protocol circuit keys" `Slow
            (check_vectors (fun () -> [ Vectors_def.statement_vks () ])) ] ) ]
