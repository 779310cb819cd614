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

(* A [len]-byte message; 131 is odd, so any 256 consecutive bytes take
   every value. *)
let message len = String.init len (fun i -> Char.chr (((i * 131) + len) land 0xFF))

let test_sha256_oracle_lengths () =
  (* 0-300 bytes covers one to six blocks and every padding edge: 55
     (the length fits), 56 and 63 (it spills into a second block), 64. *)
  for len = 0 to 300 do
    let m = message len in
    check_hex (Printf.sprintf "length %d" len)
      (Sha256.hex_of_string (Sha256_oracle.digest m))
      (Sha256.digest_hex m)
  done

let test_sha256_oracle_1mb () =
  let m = message (1 lsl 20) in
  check_hex "1 MiB" (Sha256.hex_of_string (Sha256_oracle.digest m)) (Sha256.digest_hex m)

let test_hex_table () =
  for b = 0 to 255 do
    check_hex (string_of_int b) (Printf.sprintf "%02x" b)
      (Sha256.hex_of_string (String.make 1 (Char.chr b)))
  done;
  let all = String.init 256 Char.chr in
  check_hex "all bytes"
    (String.concat "" (List.init 256 (Printf.sprintf "%02x")))
    (Sha256.hex_of_string all)

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
        && String.length (Keccak256.digest s) = 32);
    (* A message fed in pieces of the drawn lengths (0 included; the rest
       of the message once the lengths run out) hashes as the whole. *)
    prop ~count:200 "streaming = one-shot = oracle"
      (Test_util.pp2 (Printf.sprintf "%S") (Test_util.pp_list string_of_int))
      (Gen.pair Gen.string
         (Gen.list (Gen.frequency [ (1, Gen.return 0); (3, Gen.int_range 1 200) ])))
      (fun (m, cuts) ->
        let ctx = Sha256.init () in
        let pos =
          List.fold_left
            (fun pos cut ->
              let cut = min cut (String.length m - pos) in
              Sha256.feed ctx (String.sub m pos cut);
              pos + cut)
            0 cuts
        in
        Sha256.feed ctx (String.sub m pos (String.length m - pos));
        let streamed = Sha256.finalize ctx in
        String.equal streamed (Sha256.digest m)
        && String.equal streamed (Sha256_oracle.digest m)) ]

let () =
  Alcotest.run "zkdet_hash"
    [ ( "vectors",
        [ Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "sha256 streaming" `Quick test_sha256_streaming;
          Alcotest.test_case "sha256 = oracle, lengths 0-300" `Quick
            test_sha256_oracle_lengths;
          Alcotest.test_case "sha256 = oracle, 1 MiB" `Quick test_sha256_oracle_1mb;
          Alcotest.test_case "hex table" `Quick test_hex_table;
          Alcotest.test_case "keccak vectors" `Quick test_keccak_vectors;
          Alcotest.test_case "lengths" `Quick test_lengths ] );
      ("properties", props) ]
