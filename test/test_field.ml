module Nat = Zkdet_num.Nat
module Fp = Zkdet_field.Bn254.Fp
module Fr = Zkdet_field.Bn254.Fr
module Gen = Zkdet_proptest.Gen
module Gz = Zkdet_proptest.Gen_zk

let fr = Alcotest.testable Fr.pp Fr.equal
let fp = Alcotest.testable Fp.pp Fp.equal

let rng = Test_util.rng ~salt:"field" ()

let test_constants () =
  Alcotest.(check int) "Fp bits" 254 Fp.num_bits;
  Alcotest.(check int) "Fr bits" 254 Fr.num_bits;
  Alcotest.(check int) "Fr two-adicity" 28 Fr.two_adicity;
  Alcotest.(check string) "one" "1" (Fr.to_string Fr.one);
  Alcotest.(check string) "zero" "0" (Fr.to_string Fr.zero)

let test_add_mul_known () =
  (* (p - 1) + 2 = 1 mod p *)
  let pm1 = Fr.of_nat (Nat.sub Fr.modulus Nat.one) in
  Alcotest.check fr "wraparound add" Fr.one (Fr.add pm1 (Fr.of_int 2));
  Alcotest.check fr "(-1)^2 = 1" Fr.one (Fr.mul pm1 pm1);
  Alcotest.check fr "of_int neg" pm1 (Fr.of_int (-1));
  Alcotest.check fr "3*4=12" (Fr.of_int 12) (Fr.mul (Fr.of_int 3) (Fr.of_int 4))

let test_inv () =
  for _ = 1 to 20 do
    let x = Fr.random rng in
    if not (Fr.is_zero x) then
      Alcotest.check fr "x * x^-1 = 1" Fr.one (Fr.mul x (Fr.inv x))
  done;
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Fr.inv Fr.zero))

(* inv, sqrt and is_square exponentiate on one 2-cell scratch buffer, so a
   call allocates that buffer and its result, not a value per step. *)
let test_exp_allocation () =
  let bytes f =
    let before = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. before) *. float (Sys.word_size / 8)
  in
  let x = Fp.sqr (Fp.random rng) in
  ignore (Fp.inv x);
  ignore (Fp.sqrt x);
  List.iter
    (fun (name, f) ->
      let b = bytes f in
      Alcotest.(check bool)
        (Printf.sprintf "Fp.%s: %.0f bytes, under 1 KB" name b)
        true (b < 1024.))
    [ ("inv", fun () -> ignore (Fp.inv x));
      ("sqrt", fun () -> ignore (Fp.sqrt x));
      ("is_square", fun () -> ignore (Fp.is_square x)) ]

let test_pow () =
  let x = Fr.of_int 3 in
  Alcotest.check fr "x^5" (Fr.of_int 243) (Fr.pow x 5);
  Alcotest.check fr "x^0" Fr.one (Fr.pow x 0);
  (* Fermat: x^(r-1) = 1 *)
  let y = Fr.random rng in
  if not (Fr.is_zero y) then
    Alcotest.check fr "fermat" Fr.one (Fr.pow_nat y (Nat.sub Fr.modulus Nat.one))

let test_bytes_roundtrip () =
  for _ = 1 to 10 do
    let x = Fp.random rng in
    let b = Fp.to_bytes_be x in
    Alcotest.(check int) "32 bytes" 32 (String.length b);
    Alcotest.check fp "roundtrip" x (Fp.of_bytes_be b)
  done

let test_roots_of_unity () =
  for k = 0 to 10 do
    let w = Fr.root_of_unity ~log2size:k in
    Alcotest.check fr
      (Printf.sprintf "w^(2^%d) = 1" k)
      Fr.one
      (Fr.pow_nat w (Nat.pow Nat.two k));
    if k > 0 then
      Alcotest.(check bool)
        (Printf.sprintf "w^(2^%d) <> 1" (k - 1))
        false
        (Fr.is_one (Fr.pow_nat w (Nat.pow Nat.two (k - 1))))
  done

let test_sqrt () =
  let found = ref 0 in
  for _ = 1 to 30 do
    let x = Fr.random rng in
    let sq = Fr.sqr x in
    (match Fr.sqrt sq with
    | None -> Alcotest.fail "square must have a root"
    | Some r ->
      incr found;
      Alcotest.(check bool) "root of square" true
        (Fr.equal (Fr.sqr r) sq))
  done;
  Alcotest.(check bool) "found roots" true (!found = 30);
  (* Roughly half of random elements are non-squares. *)
  let nonsq = ref 0 in
  for _ = 1 to 100 do
    if not (Fr.is_square (Fr.random rng)) then incr nonsq
  done;
  Alcotest.(check bool) "nonsquares exist" true (!nonsq > 20 && !nonsq < 80)

let test_batch_inv () =
  let xs = Array.init 50 (fun i -> Fr.of_int (i + 1)) in
  let invs = Fr.batch_inv xs in
  Array.iteri
    (fun i x -> Alcotest.check fr "x * batch_inv x = 1" Fr.one (Fr.mul x invs.(i)))
    xs;
  Alcotest.(check int) "empty batch" 0 (Array.length (Fr.batch_inv [||]));
  Alcotest.check_raises "zero in batch" Division_by_zero (fun () ->
      ignore (Fr.batch_inv [| Fr.one; Fr.zero; Fr.of_int 3 |]))

let field_axioms =
  let prop = Test_util.prop and pp = Fr.to_string in
  let pp2 = Test_util.pp2 pp pp and pp3 = Test_util.pp3 pp pp pp in
  let fr2 = Gen.pair Gz.fr Gz.fr and fr3 = Gen.triple Gz.fr Gz.fr Gz.fr in
  [ prop ~count:100 "add assoc" pp3 fr3 (fun (a, b, c) ->
        Fr.(equal (add (add a b) c) (add a (add b c))));
    prop ~count:100 "mul assoc" pp3 fr3 (fun (a, b, c) ->
        Fr.(equal (mul (mul a b) c) (mul a (mul b c))));
    prop ~count:100 "mul comm" pp2 fr2 (fun (a, b) ->
        Fr.(equal (mul a b) (mul b a)));
    prop ~count:100 "distributivity" pp3 fr3 (fun (a, b, c) ->
        Fr.(equal (mul a (add b c)) (add (mul a b) (mul a c))));
    prop ~count:100 "sub inverse of add" pp2 fr2 (fun (a, b) ->
        Fr.(equal a (sub (add a b) b)));
    prop ~count:100 "neg" pp Gz.fr (fun a -> Fr.(is_zero (add a (neg a))));
    prop ~count:100 "sqr = mul self" pp Gz.fr (fun a ->
        Fr.(equal (sqr a) (mul a a)));
    prop ~count:100 "div inverse of mul" pp2 (Gen.pair Gz.fr Gz.fr_nonzero)
      (fun (a, b) -> Fr.(equal a (div (mul a b) b)));
    prop ~count:100 "nat roundtrip" pp Gz.fr (fun a ->
        Fr.(equal a (of_nat (to_nat a))));
    prop ~count:50 "string roundtrip" pp Gz.fr (fun a ->
        Fr.(equal a (of_string (to_string a)))) ]

(* ---- reference check: Fp64 against modular arithmetic on Nat ----

   The oracle is schoolbook arithmetic on Zkdet_num.Nat, reduced with
   Nat.rem: it shares no code with the Montgomery kernels under test.  It
   runs over Fr and Fp, each under the C stubs (the Bn254 modules) and
   under the pure-OCaml int64 kernel.  Results are compared as canonical
   big-endian bytes (to_string is decimal conversion — far too slow for
   bulk checks). *)

(* The pure-OCaml kernel, pinned so it is checked on every host, not only
   on the big-endian ones where it is the default. *)
module Ml (M : Zkdet_field.Field_intf.MODULUS) =
  Zkdet_field.Fp64.Make_kernel (struct let use_c = false end) (M)

module Fr_ml = Ml (struct
  let modulus_decimal = Zkdet_field.Bn254.fr_modulus_decimal
end)

module Fp_ml = Ml (struct
  let modulus_decimal = Zkdet_field.Bn254.fp_modulus_decimal
end)

(* Boundary inputs: 0, 1, 2, p-2, p-1, the Montgomery radix R = 2^256 mod
   p, and 2^k, 2^k +- 1 straddling limb boundaries of the 64-bit
   representation and of the 26-bit Nat limbs, all reduced mod p. *)
let boundary_nats modulus =
  let reduce n = Nat.rem n modulus in
  let base =
    [ Nat.zero; Nat.one; Nat.two;
      Nat.sub modulus Nat.two; Nat.sub modulus Nat.one;
      reduce (Nat.pow Nat.two 256) ]
  in
  let around_powers =
    List.concat_map
      (fun k ->
        let p2 = Nat.pow Nat.two k in
        [ reduce (Nat.sub p2 Nat.one); reduce p2; reduce (Nat.add p2 Nat.one) ])
      [ 25; 26; 27; 52; 63; 64; 65; 127; 128; 191; 192; 253 ]
  in
  base @ around_powers

(* Uniform 256-bit values: most exceed p, so [of_nat]'s reduction is
   exercised too. *)
let random_nats rng n =
  List.init n (fun _ ->
      Nat.of_bytes_be (String.init 32 (fun _ -> Char.chr (Random.State.int rng 256))))

module Ref (F : Zkdet_field.Field_intf.S) = struct
  let p = F.modulus
  let reduce n = Nat.rem n p
  let add x y = reduce (Nat.add x y)
  let sub x y = reduce (Nat.sub (Nat.add x p) y)
  let mul x y = reduce (Nat.mul x y)
  let neg x = reduce (Nat.sub p x)

  let pow_mod x e =
    let acc = ref Nat.one in
    for i = Nat.num_bits e - 1 downto 0 do
      acc := mul !acc !acc;
      if Nat.testbit e i then acc := mul !acc x
    done;
    !acc

  (* Euler's criterion: x is a square mod p iff x = 0 or
     x^((p-1)/2) = 1. *)
  let is_residue x =
    Nat.is_zero x
    || Nat.equal (pow_mod x (Nat.shift_right (Nat.sub p Nat.one) 1)) Nat.one

  (* [a] must encode to [expected].  Converting out of Montgomery form
     reduces, so the encoding alone cannot see a representation left in
     [p, 2p); [equal] and [is_zero] compare limbs, so they can. *)
  let check name expected a =
    let got = F.to_bytes_be a in
    if not (String.equal got (Nat.to_bytes_be ~length:F.num_bytes expected))
    then
      Alcotest.failf "%s: got %s, reference %s" name
        (Nat.to_hex (Nat.of_bytes_be got)) (Nat.to_hex expected);
    if (not (F.equal a (F.of_nat expected)))
       || F.is_zero a <> Nat.is_zero expected
    then
      Alcotest.failf "%s: representation of %s is not canonical" name
        (Nat.to_hex expected)

  (* The value of [a], for results the reference cannot compute cheaply
     (inverses, roots); [a] must still be reduced and canonical. *)
  let value name a =
    let v = Nat.of_bytes_be (F.to_bytes_be a) in
    if Nat.compare v p >= 0 then
      Alcotest.failf "%s: %s is not reduced" name (Nat.to_hex v);
    check name v a;
    v

  (* Unreduced inputs: boundary values plus 40 random ones. *)
  let inputs rng = boundary_nats p @ random_nats rng 40

  let run ~name rng =
    let tag op = name ^ "." ^ op in
    let raw = inputs rng in
    let xs = Array.of_list (List.map reduce raw) in
    let els = Array.of_list (List.map F.of_nat raw) in
    let n = Array.length xs in
    (* canonical bytes of the reduced input *)
    Array.iteri (fun i x -> check (tag "to_bytes_be") x els.(i)) xs;
    (* unary ops *)
    Array.iteri
      (fun i x ->
        let a = els.(i) in
        check (tag "neg") (neg x) (F.neg a);
        check (tag "sqr") (mul x x) (F.sqr a);
        check (tag "double") (add x x) (F.double a);
        (if Nat.is_zero x then
           Alcotest.check_raises (tag "inv zero") Division_by_zero (fun () ->
               ignore (F.inv a))
         else if not (Nat.equal (mul x (value (tag "inv") (F.inv a))) Nat.one)
         then
           Alcotest.failf "%s: a * a^-1 <> 1 for %s" (tag "inv") (Nat.to_hex x));
        match F.sqrt a with
        | Some r ->
          let r = value (tag "sqrt") r in
          if not (Nat.equal (mul r r) x) then
            Alcotest.failf "%s: root of %s does not square back" (tag "sqrt")
              (Nat.to_hex x)
        | None ->
          if is_residue x then
            Alcotest.failf "%s: no root for the residue %s" (tag "sqrt")
              (Nat.to_hex x))
      xs;
    (* binary ops: each input against one rotation of the list *)
    Array.iteri
      (fun i x ->
        let j = (i + 7) mod n in
        check (tag "add") (add x xs.(j)) (F.add els.(i) els.(j));
        check (tag "sub") (sub x xs.(j)) (F.sub els.(i) els.(j));
        check (tag "mul") (mul x xs.(j)) (F.mul els.(i) els.(j)))
      xs;
    (* buf kernels: into a fresh cell, then with the destination aliasing
       each operand *)
    let src = F.buf_of_array els in
    let binary op kernel f =
      for i = 0 to n - 1 do
        let j = (i + 11) mod n in
        let want = f xs.(i) xs.(j) in
        let d = F.buf_create 1 in
        kernel d 0 src i src j;
        check (tag op) want (F.buf_get d 0);
        let d = F.buf_of_array [| els.(i); els.(j) |] in
        kernel d 0 d 0 d 1;
        check (tag (op ^ " dst=a")) want (F.buf_get d 0);
        let d = F.buf_of_array [| els.(i); els.(j) |] in
        kernel d 1 d 0 d 1;
        check (tag (op ^ " dst=b")) want (F.buf_get d 1)
      done
    in
    binary "buf_mul" F.buf_mul mul;
    binary "buf_add" F.buf_add add;
    binary "buf_sub" F.buf_sub sub;
    let unary op kernel f =
      for i = 0 to n - 1 do
        let want = f xs.(i) in
        let d = F.buf_create 1 in
        kernel d 0 src i;
        check (tag op) want (F.buf_get d 0);
        let d = F.buf_of_array [| els.(i) |] in
        kernel d 0 d 0;
        check (tag (op ^ " dst=a")) want (F.buf_get d 0)
      done
    in
    unary "buf_sqr" F.buf_sqr (fun x -> mul x x);
    unary "buf_double" F.buf_double (fun x -> add x x);
    unary "buf_neg" F.buf_neg neg;
    (* one FFT layer over blocks of 8 cells: butterfly j of a block at
       base i0 sets b[i0 + j] <- u + v and b[i0 + j + 4] <- u - v, with
       v = b[i0 + j + 4] * tw[2 j]; cells past the last block stay *)
    let twn = Array.mapi (fun k x -> if k = 0 then Nat.one else x) xs in
    let tw = F.buf_of_array (Array.map F.of_nat twn) in
    let b = F.buf_of_array els in
    let blocks = n / 8 in
    F.buf_fft_layer b ~tw ~stride:2 ~half:4 ~blo:0 ~bhi:blocks ~jlo:0 ~jhi:4;
    for i = 0 to n - 1 do
      let j = i mod 8 in
      if i >= 8 * blocks then check (tag "buf_fft_layer untouched") xs.(i) (F.buf_get b i)
      else if j < 4 then
        check (tag "buf_fft_layer u+v")
          (add xs.(i) (mul xs.(i + 4) twn.(2 * j))) (F.buf_get b i)
      else
        check (tag "buf_fft_layer u-v")
          (sub xs.(i - 4) (mul xs.(i) twn.(2 * (j - 4)))) (F.buf_get b i)
    done;
    (* batch inversion with zeros interleaved: zero cells stay zero *)
    let zs = Array.mapi (fun i x -> if i mod 3 = 1 then Nat.zero else x) xs in
    let b = F.buf_of_array (Array.map F.of_nat zs) in
    F.buf_batch_inv0 ~scratch:(F.buf_create (n + 2)) b n;
    Array.iteri
      (fun i z ->
        let y = value (tag "buf_batch_inv0") (F.buf_get b i) in
        let ok =
          if Nat.is_zero z then Nat.is_zero y else Nat.equal (mul z y) Nat.one
        in
        if not ok then
          Alcotest.failf "%s: wrong inverse in cell %d" (tag "buf_batch_inv0") i)
      zs

  (* Canonical decode accepts exactly the [num_bytes]-wide encodings of
     values below p, and returns the encoded element. *)
  let run_codec ~name rng =
    List.iter
      (fun x ->
        match F.of_bytes_be_canonical (Nat.to_bytes_be ~length:F.num_bytes x) with
        | Ok a -> check (name ^ ".of_bytes_be_canonical") x a
        | Error e ->
          Alcotest.failf "%s: rejected in-range %s: %s" name (Nat.to_hex x) e)
      (List.map reduce (inputs rng));
    List.iter
      (fun (what, bytes) ->
        match F.of_bytes_be_canonical bytes with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "%s: canonical decode accepted %s" name what)
      [ ("p", Nat.to_bytes_be ~length:F.num_bytes p);
        ("p + 1", Nat.to_bytes_be ~length:F.num_bytes (Nat.add p Nat.one));
        ("2^256 - 1", String.make F.num_bytes '\xff');
        ("a short encoding", String.make (F.num_bytes - 1) '\000');
        ("a long encoding", String.make (F.num_bytes + 1) '\000') ]

  (* [to_limbs_le] writes the canonical value (not the Montgomery form)
     as four little-endian 64-bit limbs: the reversed big-endian bytes of
     the Nat reference.  Bytes past the first 32 stay untouched. *)
  let run_limbs ~name rng =
    let p2 k = Nat.pow Nat.two k in
    let fixed =
      [ Nat.zero; Nat.one; Nat.sub p Nat.one; Nat.sub (p2 64) Nat.one; p2 64;
        Nat.add (p2 64) Nat.one; p2 128; p2 192 ]
    in
    List.iter
      (fun x ->
        let want =
          String.init 32 (fun i -> (Nat.to_bytes_be ~length:32 x).[31 - i])
        in
        let dst = Bytes.make 40 '\xa5' in
        F.to_limbs_le (F.of_nat x) dst;
        if not (String.equal (Bytes.sub_string dst 0 32) want) then
          Alcotest.failf "%s.to_limbs_le: wrong limbs for %s" name (Nat.to_hex x);
        if not (String.equal (Bytes.sub_string dst 32 8) (String.make 8 '\xa5'))
        then Alcotest.failf "%s.to_limbs_le: wrote past 32 bytes" name;
        (* limb k, read as the curve layer reads it *)
        for k = 0 to 3 do
          let limb = Nat.rem (Nat.shift_right x (64 * k)) (p2 64) in
          let want = String.get_int64_be (Nat.to_bytes_be ~length:8 limb) 0 in
          if not (Int64.equal (Bytes.get_int64_le dst (8 * k)) want) then
            Alcotest.failf "%s.to_limbs_le: limb %d of %s" name k (Nat.to_hex x)
        done)
      (List.map reduce fixed @ List.map reduce (random_nats rng 40));
    Alcotest.check_raises (name ^ ".to_limbs_le: short destination")
      (Invalid_argument "Fp64.to_limbs_le: destination shorter than 32 bytes")
      (fun () -> F.to_limbs_le F.one (Bytes.create 31))

  (* Independent rejection sampler for the 254-bit BN254 moduli: ten
     Random.State draws, least significant first, nine of 26 bits and a
     top one of 20 (9 * 26 + 20 = 254); values >= p are redrawn. *)
  let ref_random st =
    let rec draw () =
      let v = ref Nat.zero in
      for i = 0 to 9 do
        let bits = if i = 9 then 20 else 26 in
        let limb = Nat.of_int (Random.State.int st (1 lsl bits)) in
        v := Nat.add !v (Nat.shift_left limb (26 * i))
      done;
      if Nat.compare !v p >= 0 then draw () else !v
    in
    draw ()

  (* Proof bytes and the SRS depend on [random] consuming a seeded
     Random.State in exactly this pattern. *)
  let run_random_stream ~name () =
    Alcotest.(check int) (name ^ " modulus bits") 254 F.num_bits;
    let sf = Random.State.make [| 0x5eed |] in
    let sr = Random.State.make [| 0x5eed |] in
    for i = 0 to 199 do
      check (Printf.sprintf "%s.random draw %d" name i) (ref_random sr)
        (F.random sf)
    done;
    if Random.State.bits sf <> Random.State.bits sr then
      Alcotest.failf "%s.random: streams consumed different draw counts" name
end

module Ref_fr = Ref (Fr)
module Ref_fp = Ref (Fp)
module Ref_fr_ml = Ref (Fr_ml)
module Ref_fp_ml = Ref (Fp_ml)

let test_reference_fr () =
  Ref_fr.run ~name:"Fr" (Test_util.rng ~salt:"field-ref-fr" ())

let test_reference_fp () =
  Ref_fp.run ~name:"Fp" (Test_util.rng ~salt:"field-ref-fp" ())

let test_reference_fr_ml () =
  Ref_fr_ml.run ~name:"Fr-mlkernel" (Test_util.rng ~salt:"field-ref-fr-ml" ())

let test_reference_fp_ml () =
  Ref_fp_ml.run ~name:"Fp-mlkernel" (Test_util.rng ~salt:"field-ref-fp-ml" ())

let test_limbs () =
  let rng = Test_util.rng ~salt:"field-limbs" () in
  Ref_fr.run_limbs ~name:"Fr" rng;
  Ref_fp.run_limbs ~name:"Fp" rng;
  Ref_fr_ml.run_limbs ~name:"Fr-mlkernel" rng;
  Ref_fp_ml.run_limbs ~name:"Fp-mlkernel" rng

let test_random_streams () =
  Ref_fr.run_random_stream ~name:"Fr" ();
  Ref_fp.run_random_stream ~name:"Fp" ();
  Ref_fr_ml.run_random_stream ~name:"Fr-mlkernel" ();
  Ref_fp_ml.run_random_stream ~name:"Fp-mlkernel" ()

(* Canonical decoding across both kernels of both fields. *)
let test_codec_cross_backend () =
  let rng = Test_util.rng ~salt:"field-codec" () in
  Ref_fr.run_codec ~name:"Fr" rng;
  Ref_fp.run_codec ~name:"Fp" rng;
  Ref_fr_ml.run_codec ~name:"Fr-mlkernel" rng;
  Ref_fp_ml.run_codec ~name:"Fp-mlkernel" rng

let () =
  Alcotest.run "zkdet_field"
    [ ( "bn254",
        [ Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "add/mul known values" `Quick test_add_mul_known;
          Alcotest.test_case "inverse" `Quick test_inv;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "roots of unity" `Quick test_roots_of_unity;
          Alcotest.test_case "sqrt" `Quick test_sqrt;
          Alcotest.test_case "batch inversion" `Quick test_batch_inv;
          Alcotest.test_case "exponentiation allocation" `Quick
            test_exp_allocation ] );
      ( "differential",
        [ Alcotest.test_case "Fr C kernel vs Nat reference" `Quick
            test_reference_fr;
          Alcotest.test_case "Fp C kernel vs Nat reference" `Quick
            test_reference_fp;
          Alcotest.test_case "Fr OCaml kernel vs Nat reference" `Quick
            test_reference_fr_ml;
          Alcotest.test_case "Fp OCaml kernel vs Nat reference" `Quick
            test_reference_fp_ml;
          Alcotest.test_case "canonical limbs vs Nat reference" `Quick
            test_limbs;
          Alcotest.test_case "random streams agree" `Quick test_random_streams;
          Alcotest.test_case "codecs cross-backend" `Quick
            test_codec_cross_backend ] );
      ("field-axioms", field_axioms) ]
