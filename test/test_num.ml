module Nat = Zkdet_num.Nat
module Gen = Zkdet_proptest.Gen

let nat = Alcotest.testable Nat.pp Nat.equal

let check_nat = Alcotest.check nat

let test_of_to_int () =
  Alcotest.(check (option int)) "roundtrip 0" (Some 0) Nat.(to_int zero);
  Alcotest.(check (option int)) "roundtrip 1" (Some 1) Nat.(to_int one);
  let v = 123_456_789_012_345 in
  Alcotest.(check (option int)) "roundtrip large" (Some v) Nat.(to_int (of_int v))

let test_decimal_roundtrip () =
  let cases =
    [ "0"; "1"; "9"; "10"; "4294967296"; "18446744073709551616";
      "21888242871839275222246405745257275088696311157297823662689037894645226208583" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check string) s s Nat.(to_decimal (of_decimal s)))
    cases

let test_hex_roundtrip () =
  let n = Nat.of_decimal "340282366920938463463374607431768211455" in
  check_nat "hex roundtrip" n (Nat.of_hex (Nat.to_hex n));
  Alcotest.(check string) "ff" "ff" Nat.(to_hex (of_int 255));
  check_nat "0x prefix" (Nat.of_int 255) (Nat.of_hex "0xFF")

let test_add_sub () =
  let a = Nat.of_decimal "987654321098765432109876543210" in
  let b = Nat.of_decimal "123456789012345678901234567890" in
  let s = Nat.add a b in
  check_nat "a+b-b = a" a (Nat.sub s b);
  check_nat "a+b-a = b" b (Nat.sub s a);
  Alcotest.(check string)
    "sum" "1111111110111111111011111111100" (Nat.to_decimal s);
  Alcotest.check_raises "negative sub" (Invalid_argument "Nat.sub: negative result")
    (fun () -> ignore (Nat.sub b a))

let test_mul () =
  let a = Nat.of_decimal "123456789012345678901234567890" in
  let b = Nat.of_decimal "999999999999999999999999999999" in
  Alcotest.(check string)
    "product"
    "123456789012345678901234567889876543210987654321098765432110"
    Nat.(to_decimal (mul a b));
  check_nat "mul zero" Nat.zero (Nat.mul a Nat.zero);
  check_nat "mul one" a (Nat.mul a Nat.one)

let test_divmod () =
  let a = Nat.of_decimal "123456789012345678901234567890123456789" in
  let b = Nat.of_decimal "987654321987654321" in
  let q, r = Nat.divmod a b in
  check_nat "a = q*b + r" a Nat.(add (mul q b) r);
  Alcotest.(check bool) "r < b" true (Nat.compare r b < 0);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod a Nat.zero));
  let q2, r2 = Nat.divmod b a in
  check_nat "small/large quotient" Nat.zero q2;
  check_nat "small/large remainder" b r2

let test_shifts () =
  let a = Nat.of_decimal "123456789012345678901234567890" in
  check_nat "shl then shr" a Nat.(shift_right (shift_left a 137) 137);
  check_nat "shl = mul 2^k" (Nat.mul a (Nat.pow Nat.two 63)) (Nat.shift_left a 63);
  check_nat "shr drops" (Nat.div a (Nat.pow Nat.two 10)) (Nat.shift_right a 10)

let test_bits () =
  Alcotest.(check int) "bits 0" 0 (Nat.num_bits Nat.zero);
  Alcotest.(check int) "bits 1" 1 (Nat.num_bits Nat.one);
  Alcotest.(check int) "bits 2^100" 101 (Nat.num_bits (Nat.pow Nat.two 100));
  Alcotest.(check bool) "bit 100 set" true (Nat.testbit (Nat.pow Nat.two 100) 100);
  Alcotest.(check bool) "bit 99 clear" false (Nat.testbit (Nat.pow Nat.two 100) 99)

(* The earlier byte codecs, kept as the reference: one shift-and-add per
   input byte, and eight [testbit] calls per output byte. *)
let ref_of_bytes_be s =
  let acc = ref Nat.zero in
  String.iter
    (fun c -> acc := Nat.add (Nat.shift_left !acc 8) (Nat.of_int (Char.code c)))
    s;
  !acc

let ref_to_bytes_be ~length n =
  String.init length (fun i ->
      let byte_idx = length - 1 - i in
      let v = ref 0 in
      for b = 7 downto 0 do
        v := (!v lsl 1) lor if Nat.testbit n ((8 * byte_idx) + b) then 1 else 0
      done;
      Char.chr !v)

let test_bytes () =
  let n = Nat.of_hex "0102030405060708090a" in
  let s = Nat.to_bytes_be ~length:12 n in
  Alcotest.(check int) "padded length" 12 (String.length s);
  check_nat "bytes roundtrip" n (Nat.of_bytes_be s);
  Alcotest.(check char) "padding" '\x00' s.[0];
  Alcotest.(check char) "low byte" '\x0a' s.[11];
  (* Against the reference on every length 0..40: random bytes, leading
     zero bytes, runs of 0xff, and all-zero / all-0xff strings. *)
  let st = Random.State.make [| 0xb17e5 |] in
  let random_bytes k = String.init k (fun _ -> Char.chr (Random.State.int st 256)) in
  for len = 0 to 40 do
    let cases =
      [ random_bytes len;
        String.make len '\x00';
        String.make len '\xff';
        (let z = min len (Random.State.int st (len + 1)) in
         String.make z '\x00' ^ random_bytes (len - z));
        (let f = min len (Random.State.int st (len + 1)) in
         let r = random_bytes len in
         let at = Random.State.int st (len - f + 1) in
         String.sub r 0 at ^ String.make f '\xff' ^ String.sub r at (len - f - at)) ]
    in
    List.iter
      (fun s ->
        let what = Printf.sprintf "len %d %S" len s in
        let n = Nat.of_bytes_be s in
        check_nat ("of_bytes_be " ^ what) (ref_of_bytes_be s) n;
        (* same width, one byte wider, and the minimal width *)
        List.iter
          (fun length ->
            Alcotest.(check string)
              (Printf.sprintf "to_bytes_be ~length:%d %s" length what)
              (ref_to_bytes_be ~length n) (Nat.to_bytes_be ~length n))
          [ len; len + 1; (Nat.num_bits n + 7) / 8 ])
      cases
  done;
  Alcotest.check_raises "to_bytes_be overflow"
    (Invalid_argument "Nat.to_bytes_be: overflow") (fun () ->
      ignore (Nat.to_bytes_be ~length:1 (Nat.of_int 256)))

let test_pow () =
  Alcotest.(check string) "2^128" "340282366920938463463374607431768211456"
    Nat.(to_decimal (pow two 128));
  check_nat "x^0" Nat.one (Nat.pow (Nat.of_int 12345) 0)

(* Property tests: naturals of 1 to 30 decimal digits. *)
let props =
  let nat =
    Gen.map
      (fun ds ->
        let s = String.concat "" (List.map string_of_int ds) in
        Nat.of_decimal (if s = "" then "0" else s))
      (Gen.list_size (Gen.int_range 1 30) (Gen.int_range 0 9))
  in
  let prop = Test_util.prop and pp = Nat.to_decimal in
  let pp2 = Test_util.pp2 pp pp and pp3 = Test_util.pp3 pp pp pp in
  [ prop ~count:200 "add commutative" pp2 (Gen.pair nat nat) (fun (a, b) ->
        Nat.(equal (add a b) (add b a)));
    prop ~count:100 "mul associative" pp3 (Gen.triple nat nat nat)
      (fun (a, b, c) -> Nat.(equal (mul (mul a b) c) (mul a (mul b c))));
    prop ~count:100 "mul distributes over add" pp3 (Gen.triple nat nat nat)
      (fun (a, b, c) -> Nat.(equal (mul a (add b c)) (add (mul a b) (mul a c))));
    prop ~count:200 "divmod identity" pp2
      (Gen.pair nat (Gen.such_that (fun b -> not (Nat.is_zero b)) nat))
      (fun (a, b) ->
        let q, r = Nat.divmod a b in
        Nat.(equal a (add (mul q b) r)) && Nat.compare r b < 0);
    prop ~count:200 "decimal roundtrip" pp nat (fun a ->
        Nat.(equal a (of_decimal (to_decimal a))));
    prop ~count:200 "hex roundtrip" pp nat (fun a ->
        Nat.(equal a (of_hex (to_hex a)))) ]

let () =
  Alcotest.run "zkdet_num"
    [ ( "nat",
        [ Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "decimal roundtrip" `Quick test_decimal_roundtrip;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "divmod" `Quick test_divmod;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "bits" `Quick test_bits;
          Alcotest.test_case "bytes" `Quick test_bytes;
          Alcotest.test_case "pow" `Quick test_pow ] );
      ("nat-properties", props) ]
