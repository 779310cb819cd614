module Sha256 = Zkdet_hash.Sha256
module Keccak256 = Zkdet_hash.Keccak256
module Gen = Zkdet_proptest.Gen

let check_hex = Alcotest.(check string)

let test_sha256_vectors () =
  check_hex "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_hex "");
  check_hex "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_hex "abc");
  check_hex "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_hex (String.make 1_000_000 'a'));
  (* NIST FIPS 180-4 two-block (896-bit) message vector *)
  check_hex "896-bit"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (Sha256.digest_hex
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_sha256_streaming () =
  let whole = Sha256.digest_hex "hello world, this is a streaming test!" in
  let ctx = Sha256.init () in
  Sha256.feed ctx "hello world, ";
  Sha256.feed ctx "this is a ";
  Sha256.feed ctx "streaming test!";
  check_hex "streaming = one-shot" whole (Sha256.hex_of_string (Sha256.finalize ctx))

let test_keccak_vectors () =
  check_hex "empty"
    "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
    (Keccak256.digest_hex "");
  check_hex "abc"
    "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
    (Keccak256.digest_hex "abc");
  check_hex "fox"
    "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"
    (Keccak256.digest_hex "The quick brown fox jumps over the lazy dog");
  check_hex "fox."
    "578951e24efd62a3d63a86f7cd19aaa53c898fe287d2552133220370240b572d"
    (Keccak256.digest_hex "The quick brown fox jumps over the lazy dog.");
  (* the value Solidity's keccak256("hello") returns *)
  check_hex "hello"
    "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8"
    (Keccak256.digest_hex "hello")

let test_lengths () =
  Alcotest.(check int) "sha256 len" 32 (String.length (Sha256.digest "x"));
  Alcotest.(check int) "keccak len" 32 (String.length (Keccak256.digest "x"))

let props =
  let prop = Test_util.prop in
  [ prop ~count:100 "digests deterministic and distinct"
      (Test_util.pp2 (Printf.sprintf "%S") (Printf.sprintf "%S"))
      (Gen.pair Gen.string Gen.string) (fun (a, b) ->
        let same_in = String.equal a b in
        let sha_eq = String.equal (Sha256.digest a) (Sha256.digest b) in
        let kec_eq = String.equal (Keccak256.digest a) (Keccak256.digest b) in
        if same_in then sha_eq && kec_eq else (not sha_eq) && not kec_eq);
    (* Exercise padding boundaries: 54..56 (sha), 135..137 (keccak). *)
    prop ~count:50 "padding boundaries" string_of_int (Gen.int_range 0 300)
      (fun n ->
        let s = String.make n 'z' in
        String.length (Sha256.digest s) = 32
        && String.length (Keccak256.digest s) = 32) ]

let () =
  Alcotest.run "zkdet_hash"
    [ ( "vectors",
        [ Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "sha256 streaming" `Quick test_sha256_streaming;
          Alcotest.test_case "keccak vectors" `Quick test_keccak_vectors;
          Alcotest.test_case "lengths" `Quick test_lengths ] );
      ("properties", props) ]
