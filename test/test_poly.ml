module Fr = Zkdet_field.Bn254.Fr
module Poly = Zkdet_poly.Poly
module Domain = Zkdet_poly.Domain
module Gen = Zkdet_proptest.Gen
module Gz = Zkdet_proptest.Gen_zk

let rng = Test_util.rng ~salt:"poly" ()
let poly = Alcotest.testable Poly.pp Poly.equal
let fr = Alcotest.testable Fr.pp Fr.equal

let test_eval () =
  (* p(x) = 1 + 2x + 3x^2 at x=5: 1 + 10 + 75 = 86 *)
  let p = Poly.of_coeffs [| Fr.of_int 1; Fr.of_int 2; Fr.of_int 3 |] in
  Alcotest.check fr "horner" (Fr.of_int 86) (Poly.eval p (Fr.of_int 5));
  Alcotest.check fr "zero poly" Fr.zero (Poly.eval Poly.zero (Fr.of_int 9))

let test_mul_matches_naive () =
  for _ = 1 to 5 do
    let p = Poly.random rng 70 and q = Poly.random rng 75 in
    (* mul dispatches to FFT at this size; compare against schoolbook. *)
    let via_fft = Poly.mul p q in
    let x = Fr.random rng in
    Alcotest.check fr "eval of product"
      (Fr.mul (Poly.eval p x) (Poly.eval q x))
      (Poly.eval via_fft x)
  done

(* Transforms run in place on buffers; these copy in and out. *)
let transform f d (a : Fr.t array) =
  let b = Fr.buf_of_array a in
  f d b;
  Fr.buf_to_array b

let test_fft_roundtrip () =
  List.iter
    (fun log2 ->
      let d = Domain.create log2 in
      let p = Poly.random rng (Domain.size d) in
      let evals = transform Domain.fft_buf d p in
      let back = transform Domain.ifft_buf d evals in
      Alcotest.check poly
        (Printf.sprintf "ifft . fft = id (2^%d)" log2)
        (Poly.of_coeffs p) (Poly.of_coeffs back))
    [ 0; 1; 4; 8 ]

let test_fft_is_evaluation () =
  let d = Domain.create 4 in
  let p = Poly.random rng 16 in
  let evals = transform Domain.fft_buf d p in
  for i = 0 to 15 do
    Alcotest.check fr
      (Printf.sprintf "evals.(%d)" i)
      (Poly.eval (Poly.of_coeffs p) (Domain.element d i))
      evals.(i)
  done

let test_coset_fft () =
  let d = Domain.create 5 in
  let p = Poly.random rng 32 in
  let evals = transform Domain.coset_fft_buf d p in
  let g = Domain.shift d in
  for i = 0 to 31 do
    Alcotest.check fr
      (Printf.sprintf "coset evals.(%d)" i)
      (Poly.eval (Poly.of_coeffs p) (Fr.mul g (Domain.element d i)))
      evals.(i)
  done;
  let back = transform Domain.coset_ifft_buf d evals in
  Alcotest.check poly "coset roundtrip" (Poly.of_coeffs p) (Poly.of_coeffs back)

(* Every transform against the O(n^2) definition, at 2^0 .. 2^10: the
   forward ones must be evaluations at w^i (or g w^i), and the inverse
   ones must give coefficients whose evaluations are the input. *)
let test_transforms_naive () =
  for log2 = 0 to 10 do
    let d = Domain.create log2 in
    let n = Domain.size d in
    let points shift = Array.init n (fun i -> Fr.mul shift (Domain.element d i)) in
    let naive coeffs xs = Array.map (Poly.eval (Poly.of_coeffs coeffs)) xs in
    let check name want got =
      Array.iteri
        (fun i w ->
          if not (Fr.equal w got.(i)) then
            Alcotest.failf "%s 2^%d: cell %d differs from the naive value" name
              log2 i)
        want
    in
    let v = Poly.random rng n in
    let plain = points Fr.one and coset = points (Domain.shift d) in
    check "fft_buf" (naive v plain) (transform Domain.fft_buf d v);
    check "coset_fft_buf" (naive v coset) (transform Domain.coset_fft_buf d v);
    check "ifft_buf" v (naive (transform Domain.ifft_buf d v) plain);
    check "coset_ifft_buf" v (naive (transform Domain.coset_ifft_buf d v) coset)
  done

(* The C layer kernel against the pure-OCaml kernel's, byte for byte: a
   whole transform built from bit reversal and layer calls, each layer
   cut in two (by blocks, or by butterflies once a layer is one block),
   on both kernels from the same inputs and twiddles.  The C run must
   also equal Domain.fft_buf. *)
module Ml = Zkdet_field.Fp64.Make_kernel
    (struct
      let use_c = false
    end)
    (struct
      let modulus_decimal = Zkdet_field.Bn254.fr_modulus_decimal
    end)

let test_layer_kernel_c_vs_ocaml () =
  List.iter
    (fun log2 ->
      let n = 1 lsl log2 in
      let d = Domain.create log2 in
      let xs = Poly.random rng n in
      let w = Domain.omega d in
      let tws = Array.init (max 1 (n / 2)) (fun j -> Fr.pow w j) in
      let to_ml a = Array.map (fun x -> Ml.of_bytes_be (Fr.to_bytes_be x)) a in
      let run (type b) bit_reverse layer (buf : b) (tw : b) =
        bit_reverse buf;
        let len = ref 2 in
        while !len <= n do
          let half = !len / 2 and stride = n / !len and nb = n / !len in
          let layer = layer buf ~tw ~stride ~half in
          if nb >= 2 then begin
            layer ~blo:0 ~bhi:(nb / 2) ~jlo:0 ~jhi:half;
            layer ~blo:(nb / 2) ~bhi:nb ~jlo:0 ~jhi:half
          end
          else begin
            layer ~blo:0 ~bhi:1 ~jlo:0 ~jhi:(half / 2);
            layer ~blo:0 ~bhi:1 ~jlo:(half / 2) ~jhi:half
          end;
          len := !len * 2
        done
      in
      let c = Fr.buf_of_array xs in
      run Fr.buf_bit_reverse Fr.buf_fft_layer c (Fr.buf_of_array tws);
      let m = Ml.buf_of_array (to_ml xs) in
      run Ml.buf_bit_reverse Ml.buf_fft_layer m (Ml.buf_of_array (to_ml tws));
      let dom = transform Domain.fft_buf d xs in
      for i = 0 to n - 1 do
        let cb = Fr.to_bytes_be (Fr.buf_get c i) in
        if cb <> Ml.to_bytes_be (Ml.buf_get m i) then
          Alcotest.failf "2^%d: cell %d differs between the C and OCaml kernels"
            log2 i;
        if cb <> Fr.to_bytes_be dom.(i) then
          Alcotest.failf "2^%d: cell %d differs from Domain.fft_buf" log2 i
      done)
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 14 ]

let test_div_by_linear () =
  let p = Poly.random rng 20 in
  let z = Fr.random rng in
  let y = Poly.eval (Poly.of_coeffs p) z in
  (* (p - y) is divisible by (X - z) *)
  let shifted = Poly.sub p (Poly.constant y) in
  let q = Poly.div_by_linear shifted z in
  let x = Fr.random rng in
  Alcotest.check fr "q(x)(x-z) = p(x)-y"
    (Fr.sub (Poly.eval (Poly.of_coeffs p) x) y)
    (Fr.mul (Poly.eval q x) (Fr.sub x z));
  Alcotest.check_raises "non-root" (Invalid_argument "Poly.div_by_linear: non-zero remainder")
    (fun () -> ignore (Poly.div_by_linear p (Fr.add z Fr.one)))

let test_divmod () =
  let p = Poly.random rng 23 and q = Poly.random rng 7 in
  let quot, rem = Poly.divmod p q in
  Alcotest.check poly "p = quot*q + rem"
    (Poly.of_coeffs p)
    (Poly.add (Poly.mul quot q) rem);
  Alcotest.(check bool) "deg rem < deg q" true (Poly.degree rem < Poly.degree q)

let test_div_by_vanishing () =
  let n = 16 in
  let q = Poly.random rng 20 in
  (* p = q * (x^n - 1) *)
  let vanishing =
    let v = Array.make (n + 1) Fr.zero in
    v.(0) <- Fr.neg Fr.one;
    v.(n) <- Fr.one;
    Poly.of_coeffs v
  in
  let p = Poly.mul q vanishing in
  Alcotest.check poly "recover quotient" (Poly.of_coeffs q) (Poly.div_by_vanishing p n);
  let bad = Poly.add p Poly.one in
  Alcotest.check_raises "not divisible"
    (Invalid_argument "Poly.div_by_vanishing: not divisible") (fun () ->
      ignore (Poly.div_by_vanishing bad n))

let test_lagrange () =
  let d = Domain.create 3 in
  let x = Fr.random rng in
  (* sum_i L_i(x) = 1 *)
  let sum = ref Fr.zero in
  for i = 0 to 7 do
    sum := Fr.add !sum (Domain.lagrange_eval d i x)
  done;
  Alcotest.check fr "partition of unity" Fr.one !sum;
  (* L_i(omega^j) = delta_ij — checked via interpolation instead since
     lagrange_eval divides by (x - omega^i). *)
  let p = Poly.interpolate [ (Fr.of_int 1, Fr.of_int 10); (Fr.of_int 2, Fr.of_int 20);
                             (Fr.of_int 3, Fr.of_int 40) ] in
  Alcotest.check fr "interp 1" (Fr.of_int 10) (Poly.eval p (Fr.of_int 1));
  Alcotest.check fr "interp 2" (Fr.of_int 20) (Poly.eval p (Fr.of_int 2));
  Alcotest.check fr "interp 3" (Fr.of_int 40) (Poly.eval p (Fr.of_int 3))

let test_vanishing_eval () =
  let d = Domain.create 4 in
  for i = 0 to 15 do
    Alcotest.check fr "zero on domain" Fr.zero
      (Domain.vanishing_eval d (Domain.element d i))
  done;
  let x = Fr.of_int 12345 in
  Alcotest.check fr "off domain"
    (Fr.sub (Fr.pow x 16) Fr.one)
    (Domain.vanishing_eval d x)

let props =
  let prop = Test_util.prop and pp = Format.asprintf "%a" Poly.pp in
  let pp2 = Test_util.pp2 pp pp in
  (* [n] coefficients; shrinking moves them toward zero, so degrees
     only fall. *)
  let poly n = Gen.map Poly.of_coeffs (Gen.array_size (Gen.return n) Gz.fr) in
  let nonzero n = Gen.such_that (fun p -> not (Poly.is_zero p)) (poly n) in
  [ prop ~count:50 "add comm" pp2 (Gen.pair (poly 10) (poly 12)) (fun (p, q) ->
        Poly.equal (Poly.add p q) (Poly.add q p));
    prop ~count:30 "mul comm" pp2 (Gen.pair (poly 8) (poly 9)) (fun (p, q) ->
        Poly.equal (Poly.mul p q) (Poly.mul q p));
    prop ~count:30 "mul degree adds" pp2 (Gen.pair (nonzero 8) (nonzero 9))
      (fun (p, q) -> Poly.degree (Poly.mul p q) = Poly.degree p + Poly.degree q);
    prop ~count:50 "eval homomorphic for add" pp2 (Gen.pair (poly 10) (poly 10))
      (fun (p, q) ->
        let x = Fr.of_int 77 in
        Fr.equal (Poly.eval (Poly.add p q) x) (Fr.add (Poly.eval p x) (Poly.eval q x))) ]

let () =
  Alcotest.run "zkdet_poly"
    [ ( "poly",
        [ Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "fft mul = naive mul" `Quick test_mul_matches_naive;
          Alcotest.test_case "fft roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "fft is evaluation" `Quick test_fft_is_evaluation;
          Alcotest.test_case "coset fft" `Quick test_coset_fft;
          Alcotest.test_case "transforms = naive" `Quick
            test_transforms_naive;
          Alcotest.test_case "layer kernel C = OCaml" `Quick
            test_layer_kernel_c_vs_ocaml;
          Alcotest.test_case "div by linear" `Quick test_div_by_linear;
          Alcotest.test_case "divmod" `Quick test_divmod;
          Alcotest.test_case "div by vanishing" `Quick test_div_by_vanishing;
          Alcotest.test_case "lagrange/interpolate" `Quick test_lagrange;
          Alcotest.test_case "vanishing eval" `Quick test_vanishing_eval ] );
      ("poly-properties", props) ]
