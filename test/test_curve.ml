module Nat = Zkdet_num.Nat
module Fp = Zkdet_field.Bn254.Fp
module Fr = Zkdet_field.Bn254.Fr
module Fp2 = Zkdet_curve.Fp2
module Fp6 = Zkdet_curve.Fp6
module Fp12 = Zkdet_curve.Fp12
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Pairing = Zkdet_curve.Pairing
module Tate = Tate_oracle
module C = Zkdet_codec.Codec

let rng = Test_util.rng ~salt:"curve" ()

let g1 = Alcotest.testable G1.pp G1.equal
let g2 = Alcotest.testable G2.pp G2.equal
let gt = Alcotest.testable Pairing.Gt.pp Pairing.Gt.equal
let fp12 = Alcotest.testable Fp12.pp Fp12.equal

let test_fp2_field () =
  for _ = 1 to 10 do
    let a = Fp2.random rng and b = Fp2.random rng and c = Fp2.random rng in
    assert (Fp2.equal (Fp2.mul a (Fp2.mul b c)) (Fp2.mul (Fp2.mul a b) c));
    assert (Fp2.equal (Fp2.mul a (Fp2.add b c)) (Fp2.add (Fp2.mul a b) (Fp2.mul a c)));
    assert (Fp2.equal (Fp2.sqr a) (Fp2.mul a a));
    if not (Fp2.is_zero a) then assert (Fp2.is_one (Fp2.mul a (Fp2.inv a)))
  done;
  (* u^2 = -1 *)
  let u = Fp2.make Fp.zero Fp.one in
  assert (Fp2.equal (Fp2.sqr u) (Fp2.neg Fp2.one));
  (* mul_by_xi agrees with mul by (9 + u) *)
  let a = Fp2.random rng in
  assert (Fp2.equal (Fp2.mul_by_xi a) (Fp2.mul Fp2.xi a))

let test_fp6_field () =
  for _ = 1 to 5 do
    let a = Fp6.random rng and b = Fp6.random rng and c = Fp6.random rng in
    assert (Fp6.equal (Fp6.mul a (Fp6.mul b c)) (Fp6.mul (Fp6.mul a b) c));
    assert (Fp6.equal (Fp6.mul a (Fp6.add b c)) (Fp6.add (Fp6.mul a b) (Fp6.mul a c)));
    if not (Fp6.is_zero a) then assert (Fp6.is_one (Fp6.mul a (Fp6.inv a)))
  done;
  (* v^3 = xi *)
  let v = Fp6.make Fp2.zero Fp2.one Fp2.zero in
  assert (Fp6.equal (Fp6.mul v (Fp6.mul v v)) (Fp6.of_fp2 Fp2.xi));
  (* mul_by_v agrees with mul by v *)
  let a = Fp6.random rng in
  assert (Fp6.equal (Fp6.mul_by_v a) (Fp6.mul v a))

let test_fp12_field () =
  for _ = 1 to 3 do
    let a = Fp12.random rng and b = Fp12.random rng and c = Fp12.random rng in
    assert (Fp12.equal (Fp12.mul a (Fp12.mul b c)) (Fp12.mul (Fp12.mul a b) c));
    if not (Fp12.is_zero a) then assert (Fp12.is_one (Fp12.mul a (Fp12.inv a)))
  done;
  (* w^2 = v *)
  let w = Fp12.make Fp6.zero Fp6.one in
  let v = Fp12.of_fp6 (Fp6.make Fp2.zero Fp2.one Fp2.zero) in
  assert (Fp12.equal (Fp12.sqr w) v)

let test_frobenius () =
  (* frobenius must agree with x -> x^p *)
  let p = Fp.modulus in
  let a = Fp2.random rng in
  assert (Fp2.equal (Fp2.frobenius a) (Fp2.pow_nat a p));
  let b = Fp12.random rng in
  Alcotest.check (Alcotest.testable Fp12.pp Fp12.equal) "fp12 frobenius"
    (Fp12.pow_nat b p) (Fp12.frobenius b);
  (* conj = p^6 frobenius *)
  let rec frob_n x n = if n = 0 then x else frob_n (Fp12.frobenius x) (n - 1) in
  assert (Fp12.equal (Fp12.conj b) (frob_n b 6))

let test_fp12_sqr () =
  let w = Fp12.make Fp6.zero Fp6.one in
  List.iter
    (fun a -> Alcotest.check fp12 "sqr a = mul a a" (Fp12.mul a a) (Fp12.sqr a))
    ([ Fp12.zero; Fp12.one; w ] @ List.init 10 (fun _ -> Fp12.random rng))

(* The final exponentiation's easy part, f^((p^6 - 1)(p^2 + 1)): its
   outputs lie in the cyclotomic subgroup, where cyclotomic_sqr holds. *)
let easy_part f =
  let t = Fp12.mul (Fp12.conj f) (Fp12.inv f) in
  Fp12.mul (Fp12.frobenius (Fp12.frobenius t)) t

let test_cyclotomic_sqr () =
  Alcotest.check fp12 "one" Fp12.one (Fp12.cyclotomic_sqr Fp12.one);
  for _ = 1 to 10 do
    let g = easy_part (Fp12.random rng) in
    Alcotest.check fp12 "cyclotomic_sqr = sqr" (Fp12.sqr g) (Fp12.cyclotomic_sqr g);
    let g2 = Fp12.cyclotomic_sqr g in
    Alcotest.check fp12 "again on its own output" (Fp12.sqr g2)
      (Fp12.cyclotomic_sqr g2)
  done

let test_sparse_mul () =
  for _ = 1 to 10 do
    let a = Fp12.random rng in
    let d0 = Fp2.random rng and d3 = Fp2.random rng and d4 = Fp2.random rng in
    let dense = Fp12.make (Fp6.of_fp2 d0) (Fp6.make d3 d4 Fp2.zero) in
    Alcotest.check fp12 "mul_by_034 = dense mul" (Fp12.mul a dense)
      (Fp12.mul_by_034 a d0 d3 d4);
    let b = Fp6.random rng in
    Alcotest.(check bool) "mul_by_01 = dense mul" true
      (Fp6.equal (Fp6.mul b (Fp6.make d0 d3 Fp2.zero)) (Fp6.mul_by_01 b d0 d3))
  done

let test_g1_group () =
  let g = G1.generator in
  Alcotest.(check bool) "gen on curve" true (not (G1.is_zero g));
  Alcotest.check g1 "g+g = 2g" (G1.add g g) (G1.double g);
  Alcotest.check g1 "3g" (G1.add (G1.double g) g) (G1.mul_int g 3);
  Alcotest.check g1 "g - g = O" G1.zero (G1.sub_point g g);
  (* order r *)
  Alcotest.check g1 "r*g = O" G1.zero (G1.mul_nat g Fr.modulus);
  (* commutativity / associativity on random points *)
  let a = G1.random rng and b = G1.random rng and c = G1.random rng in
  Alcotest.check g1 "comm" (G1.add a b) (G1.add b a);
  Alcotest.check g1 "assoc" (G1.add (G1.add a b) c) (G1.add a (G1.add b c));
  (* scalar distributivity *)
  let s = Fr.random rng and t = Fr.random rng in
  Alcotest.check g1 "(s+t)g = sg + tg"
    (G1.mul g (Fr.add s t))
    (G1.add (G1.mul g s) (G1.mul g t))

let test_g2_group () =
  let g = G2.generator in
  Alcotest.(check bool) "gen on curve" true (not (G2.is_zero g));
  Alcotest.check g2 "r*g = O" G2.zero (G2.mul_nat g Fr.modulus);
  let s = Fr.random rng and t = Fr.random rng in
  Alcotest.check g2 "(s+t)g = sg + tg"
    (G2.mul g (Fr.add s t))
    (G2.add (G2.mul g s) (G2.mul g t))

let test_affine_roundtrip () =
  let a = G1.random rng in
  match G1.to_affine a with
  | None -> Alcotest.fail "random point should be finite"
  | Some xy -> Alcotest.check g1 "roundtrip" a (G1.of_affine xy)

let test_hash_to_curve () =
  let p1 = G1.hash_to_curve "zkdet/test/1" in
  let p2 = G1.hash_to_curve "zkdet/test/2" in
  Alcotest.(check bool) "distinct" false (G1.equal p1 p2);
  Alcotest.check g1 "deterministic" p1 (G1.hash_to_curve "zkdet/test/1");
  Alcotest.check g1 "in subgroup (r * p = O)" G1.zero (G1.mul_nat p1 Fr.modulus)

let test_msm () =
  let n = 100 in
  let points = Array.init n (fun _ -> G1.random rng) in
  let scalars = Array.init n (fun _ -> Fr.random rng) in
  let expected = ref G1.zero in
  for i = 0 to n - 1 do
    expected := G1.add !expected (G1.mul points.(i) scalars.(i))
  done;
  Alcotest.check g1 "pippenger = naive" !expected (G1.msm points scalars);
  Alcotest.check g1 "empty msm" G1.zero (G1.msm [||] [||]);
  (* small path *)
  let pts3 = Array.sub points 0 3 and sc3 = Array.sub scalars 0 3 in
  let exp3 =
    G1.add (G1.mul pts3.(0) sc3.(0)) (G1.add (G1.mul pts3.(1) sc3.(1)) (G1.mul pts3.(2) sc3.(2)))
  in
  Alcotest.check g1 "small msm" exp3 (G1.msm pts3 sc3)

let test_pairing_nondegenerate () =
  let e = Pairing.pairing G1.generator G2.generator in
  Alcotest.(check bool) "e(g1,g2) <> 1" false (Pairing.Gt.is_one e);
  (* order r in GT *)
  Alcotest.check gt "e^r = 1" Pairing.Gt.one (Pairing.Gt.pow_nat e Fr.modulus)

let test_pairing_bilinear () =
  let a = Fr.of_int 7 and b = Fr.of_int 11 in
  let p = G1.generator and q = G2.generator in
  let e_ab = Pairing.pairing (G1.mul p a) (G2.mul q b) in
  let e = Pairing.pairing p q in
  Alcotest.check gt "e(aP,bQ) = e(P,Q)^(ab)" (Pairing.Gt.pow_nat e (Nat.of_int 77)) e_ab;
  (* random scalars *)
  let s = Fr.random rng in
  Alcotest.check gt "e(sP,Q) = e(P,sQ)"
    (Pairing.pairing (G1.mul p s) q)
    (Pairing.pairing p (G2.mul q s));
  (* additivity in the first argument *)
  let p2 = G1.random rng in
  Alcotest.check gt "e(P+P',Q) = e(P,Q) e(P',Q)"
    (Pairing.Gt.mul (Pairing.pairing p q) (Pairing.pairing p2 q))
    (Pairing.pairing (G1.add p p2) q)

let test_fixed_base_table () =
  let table = G1.Fixed_base.create G1.generator in
  for _ = 1 to 10 do
    let s = Fr.random rng in
    Alcotest.check g1 "table mul = double-and-add" (G1.mul G1.generator s)
      (G1.Fixed_base.mul table s)
  done;
  Alcotest.check g1 "zero scalar" G1.zero (G1.Fixed_base.mul table Fr.zero)

let test_batch_to_affine () =
  let pts = Array.init 20 (fun i -> if i = 7 then G1.zero else G1.random rng) in
  let affs = G1.batch_to_affine pts in
  Array.iteri
    (fun i p ->
      match (affs.(i), G1.to_affine p) with
      | None, None -> ()
      | Some (x1, y1), Some (x2, y2) ->
        Alcotest.(check bool)
          (Printf.sprintf "affine %d" i)
          true
          (Fp.equal x1 x2 && Fp.equal y1 y2)
      | _ -> Alcotest.fail "batch/individual disagree on infinity")
    pts

let test_point_serialization () =
  let p = G1.random rng in
  let b = G1.to_bytes_fixed p in
  Alcotest.(check int) "fixed width" G1.encoded_size (String.length b);
  Alcotest.check g1 "roundtrip" p (G1.of_bytes_fixed b);
  Alcotest.check g1 "infinity roundtrip" G1.zero
    (G1.of_bytes_fixed (G1.to_bytes_fixed G1.zero));
  (* off-curve points are rejected *)
  let tampered = Bytes.of_string b in
  Bytes.set tampered 5 (Char.chr (Char.code (Bytes.get tampered 5) lxor 1));
  Alcotest.check_raises "off-curve rejected"
    (Invalid_argument "Weierstrass.of_affine: not on curve") (fun () ->
      ignore (G1.of_bytes_fixed (Bytes.to_string tampered)))

let test_compressed_serialization () =
  let decode b =
    match G1.of_bytes_compressed_result b with
    | Ok p -> p
    | Error reason -> Alcotest.failf "decode: %s" reason
  in
  for _ = 1 to 10 do
    let p = G1.random rng in
    let b = G1.to_bytes_compressed p in
    Alcotest.(check int) "33 bytes" G1.compressed_size (String.length b);
    Alcotest.check g1 "roundtrip" p (decode b)
  done;
  Alcotest.check g1 "infinity" G1.zero (decode (G1.to_bytes_compressed G1.zero));
  Alcotest.(check bool) "bad tag" true
    (G1.of_bytes_compressed_result ("\x07" ^ String.make 32 '\x00') = Error "bad tag")

let test_pairing_check () =
  (* e(aG1, G2) * e(-G1, aG2) = 1 *)
  let a = Fr.random rng in
  Alcotest.(check bool) "product check holds" true
    (Pairing.pairing_check
       [ (G1.mul G1.generator a, G2.generator);
         (G1.neg G1.generator, G2.mul G2.generator a) ]);
  Alcotest.(check bool) "product check fails on garbage" false
    (Pairing.pairing_check
       [ (G1.mul G1.generator a, G2.generator);
         (G1.generator, G2.mul G2.generator a) ])

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The ate pairing is bilinear only on G2, so no decoder may yield a twist
   point outside the order-r subgroup. *)
let test_g2_outside_subgroup () =
  let rec on_twist () =
    let x = Fp2.random rng in
    match Fp2.sqrt (Fp2.add (Fp2.mul (Fp2.sqr x) x) G2.b2) with
    | Some y -> G2.of_affine (x, y)
    | None -> on_twist ()
  in
  for _ = 1 to 3 do
    let p = on_twist () in
    Alcotest.(check bool) "the point is outside G2" false (G2.in_subgroup p);
    let expect name = function
      | Ok _ -> Alcotest.failf "%s accepted a point outside G2" name
      | Error reason ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S says not in subgroup" name reason)
          true
          (contains reason "not in subgroup")
    in
    expect "of_bytes_fixed_result" (G2.of_bytes_fixed_result (G2.to_bytes_fixed p));
    expect "of_bytes_compressed_result"
      (G2.of_bytes_compressed_result (G2.to_bytes_compressed p));
    let via codec =
      Result.map_error C.error_to_string (C.decode codec (C.encode codec p))
    in
    expect "codec" (via G2.codec);
    expect "codec_uncompressed" (via G2.codec_uncompressed)
  done

let test_loop_digits () =
  let x = Pairing.x in
  let n = Nat.of_int and ( * ) = Nat.mul and ( + ) = Nat.add in
  let x2 = x * x in
  let x3 = x2 * x and x4 = x2 * x2 in
  Alcotest.(check bool) "p = 36x^4 + 36x^3 + 24x^2 + 6x + 1" true
    (Nat.equal Fp.modulus ((n 36 * x4) + (n 36 * x3) + (n 24 * x2) + (n 6 * x) + Nat.one));
  let digits = Pairing.loop_naf in
  let len = Array.length digits in
  Alcotest.(check int) "top digit" 1 digits.(len - 1);
  Array.iteri
    (fun i d ->
      Alcotest.(check bool) "digit in {-1, 0, 1}" true (d >= -1 && d <= 1);
      if i > 0 then
        Alcotest.(check bool) "no two adjacent nonzero digits" true
          (d = 0 || digits.(i - 1) = 0))
    digits;
  let value =
    Array.fold_right
      (fun d acc ->
        let acc = Nat.shift_left acc 1 in
        if d > 0 then acc + Nat.one else if d < 0 then Nat.sub acc Nat.one else acc)
      digits Nat.zero
  in
  Alcotest.(check bool) "digits recombine to 6x + 2" true
    (Nat.equal value ((n 6 * x) + Nat.two));
  let m = Nat.two * x * ((n 6 * x2) + (n 3 * x) + Nat.one) in
  Alcotest.(check bool) "hard_power = 2x(6x^2 + 3x + 1)" true
    (Nat.equal m Pairing.hard_power);
  let rec gcd a b = if Nat.is_zero b then a else gcd b (Nat.rem a b) in
  Alcotest.(check bool) "gcd(m, r) = 1" true (Nat.equal (gcd m Fr.modulus) Nat.one)

let test_final_exp_power () =
  for _ = 1 to 3 do
    let f = Fp12.random rng in
    Alcotest.(check string) "final_exponentiation f = (standard f)^m"
      (Fp12.to_bytes (Tate.pow (Tate.final_exponentiation f) Pairing.hard_power))
      (Pairing.Gt.to_bytes (Pairing.final_exponentiation f))
  done

(* Bilinearity, non-degeneracy, order r and identity inputs, for any
   pairing given by its value and target-group operations. *)
let check_laws (type g) name (e : G1.t -> G2.t -> g) ~(mul : g -> g -> g)
    ~(pow : g -> Nat.t -> g) ~(is_one : g -> bool) ~(equal : g -> g -> bool) =
  let p = G1.random rng and q = G2.random rng in
  let p' = G1.random rng and q' = G2.random rng in
  let a = Fr.random rng in
  let e_pq = e p q in
  let law msg holds = Alcotest.(check bool) (name ^ ": " ^ msg) true holds in
  law "e(P, Q) <> 1" (not (is_one e_pq));
  law "e(P, Q)^r = 1" (is_one (pow e_pq Fr.modulus));
  law "e(aP, Q) = e(P, Q)^a" (equal (e (G1.mul p a) q) (pow e_pq (Fr.to_nat a)));
  law "e(P, aQ) = e(P, Q)^a" (equal (e p (G2.mul q a)) (pow e_pq (Fr.to_nat a)));
  law "e(P + P', Q) = e(P, Q) e(P', Q)" (equal (e (G1.add p p') q) (mul e_pq (e p' q)));
  law "e(P, Q + Q') = e(P, Q) e(P, Q')" (equal (e p (G2.add q q')) (mul e_pq (e p q')));
  law "e(O, Q) = 1" (is_one (e G1.zero q));
  law "e(P, O) = 1" (is_one (e p G2.zero))

let test_pairing_laws () =
  check_laws "ate" Pairing.pairing ~mul:Pairing.Gt.mul ~pow:Pairing.Gt.pow_nat
    ~is_one:Pairing.Gt.is_one ~equal:Pairing.Gt.equal;
  check_laws "tate" Tate.pairing ~mul:Fp12.mul ~pow:Tate.pow ~is_one:Fp12.is_one
    ~equal:Fp12.equal

(* pairing_check must return the oracle's verdict on valid equations
   (1 to 5 pairs, with the identity on either side) and on every
   single-element mutation of them: each point moved by a generator, or
   replaced by the identity. *)
let test_oracle_agreement () =
  let nonzero () =
    let s = Fr.random rng in
    if Fr.is_zero s then Fr.one else s
  in
  (* k scalar pairs with sum a_i b_i = 0 *)
  let balanced k =
    let ab = List.init (k - 1) (fun _ -> (nonzero (), nonzero ())) in
    let a = nonzero () in
    let s = List.fold_left (fun acc (a, b) -> Fr.add acc (Fr.mul a b)) Fr.zero ab in
    ab @ [ (a, Fr.neg (Fr.mul s (Fr.inv a))) ]
  in
  let equations =
    [ [ (Fr.zero, nonzero ()) ]; [ (nonzero (), Fr.zero) ] ]
    @ List.concat_map
        (fun k ->
          [ balanced k;
            (Fr.zero, nonzero ()) :: balanced (k - 1);
            balanced (k - 1) @ [ (nonzero (), Fr.zero) ] ])
        [ 2; 3; 4; 5 ]
  in
  let rejects = ref 0 in
  List.iter
    (fun scalars ->
      let pairs =
        Array.of_list
          (List.map
             (fun (a, b) -> (G1.mul G1.generator a, G2.mul G2.generator b))
             scalars)
      in
      let k = Array.length pairs in
      let millers = Array.map (fun (p, q) -> Tate.miller_loop p q) pairs in
      (* The oracle's verdict with pair i replaced, reusing the other
         pairs' Miller values. *)
      let oracle i (p, q) =
        let f = ref (Tate.miller_loop p q) in
        Array.iteri (fun j m -> if j <> i then f := Fp12.mul !f m) millers;
        Fp12.is_one (Tate.final_exponentiation !f)
      in
      let agree what i pair =
        let eq = Array.to_list (Array.mapi (fun j x -> if j = i then pair else x) pairs) in
        let want = oracle i pair in
        if not want then incr rejects;
        Alcotest.(check bool)
          (Printf.sprintf "%d pairs, %s of pair %d" k what i)
          want (Pairing.pairing_check eq)
      in
      Alcotest.(check bool) (Printf.sprintf "%d pairs: valid" k) true
        (Pairing.pairing_check (Array.to_list pairs));
      agree "no mutation" 0 pairs.(0);
      Array.iteri
        (fun i (p, q) ->
          agree "P + G1" i (G1.add p G1.generator, q);
          agree "Q + G2" i (p, G2.add q G2.generator);
          if not (G1.is_zero p) then agree "P := O" i (G1.zero, q);
          if not (G2.is_zero q) then agree "Q := O" i (p, G2.zero))
        pairs)
    equations;
  Alcotest.(check bool) "some mutations are rejected" true (!rejects > 0)

let () =
  Alcotest.run "zkdet_curve"
    [ ( "tower",
        [ Alcotest.test_case "fp2 field" `Quick test_fp2_field;
          Alcotest.test_case "fp6 field" `Quick test_fp6_field;
          Alcotest.test_case "fp12 field" `Quick test_fp12_field;
          Alcotest.test_case "frobenius" `Quick test_frobenius;
          Alcotest.test_case "fp12 sqr" `Quick test_fp12_sqr;
          Alcotest.test_case "cyclotomic sqr" `Quick test_cyclotomic_sqr;
          Alcotest.test_case "sparse line product" `Quick test_sparse_mul ] );
      ( "groups",
        [ Alcotest.test_case "g1 group law" `Quick test_g1_group;
          Alcotest.test_case "g2 group law" `Quick test_g2_group;
          Alcotest.test_case "affine roundtrip" `Quick test_affine_roundtrip;
          Alcotest.test_case "hash to curve" `Quick test_hash_to_curve;
          Alcotest.test_case "msm" `Quick test_msm;
          Alcotest.test_case "fixed-base table" `Quick test_fixed_base_table;
          Alcotest.test_case "batch to affine" `Quick test_batch_to_affine;
          Alcotest.test_case "point serialization" `Quick test_point_serialization;
          Alcotest.test_case "compressed points" `Quick test_compressed_serialization;
          Alcotest.test_case "g2 outside subgroup" `Quick test_g2_outside_subgroup ] );
      ( "pairing",
        [ Alcotest.test_case "non-degenerate" `Quick test_pairing_nondegenerate;
          Alcotest.test_case "bilinear" `Slow test_pairing_bilinear;
          Alcotest.test_case "pairing check" `Slow test_pairing_check;
          Alcotest.test_case "loop digits" `Quick test_loop_digits;
          Alcotest.test_case "final exponentiation power" `Quick test_final_exp_power;
          Alcotest.test_case "laws, ate and tate" `Slow test_pairing_laws;
          Alcotest.test_case "tate oracle agreement" `Slow test_oracle_agreement ] ) ]
