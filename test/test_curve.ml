module Nat = Zkdet_num.Nat
module Fp = Zkdet_field.Bn254.Fp
module Fr = Zkdet_field.Bn254.Fr
module Fp2 = Zkdet_curve.Fp2
module Fp12 = Zkdet_curve.Fp12
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Pairing = Zkdet_curve.Pairing
module Tower = Tower_oracle
module Tate = Tate_oracle
module C = Zkdet_codec.Codec
module Gen = Zkdet_proptest.Gen
module Gz = Zkdet_proptest.Gen_zk

let rng = Test_util.rng ~salt:"curve" ()

let g1 = Alcotest.testable G1.pp G1.equal
let g2 = Alcotest.testable G2.pp G2.equal
let gt = Alcotest.testable Pairing.Gt.pp Pairing.Gt.equal
let fp12 = Alcotest.testable Fp12.pp Fp12.equal

(* The flat Fp12 and the oracle's boxed one share a coefficient order:
   Fp12 over Fp6 over Fp2 over Fp, the order of [to_bytes]. *)
let oracle_coeffs (a : Tower.Fp12.t) =
  List.concat_map
    (fun (b : Tower.Fp6.t) ->
      List.concat_map (fun (c : Fp2.t) -> [ c.c0; c.c1 ]) [ b.c0; b.c1; b.c2 ])
    [ a.c0; a.c1 ]

let of_oracle (a : Tower.Fp12.t) = Fp12.init (List.nth (oracle_coeffs a))

let to_oracle (a : Fp12.t) : Tower.Fp12.t =
  let fp2 i = Fp2.make (Fp12.get a (2 * i)) (Fp12.get a ((2 * i) + 1)) in
  let fp6 j = Tower.Fp6.make (fp2 (3 * j)) (fp2 ((3 * j) + 1)) (fp2 ((3 * j) + 2)) in
  Tower.Fp12.make (fp6 0) (fp6 1)

let random_fp12 () = Fp12.init (fun _ -> Fp.random rng)

(* w and v as flat values: coefficients c1.c0.c0 and c0.c1.c0. *)
let basis i = Fp12.init (fun j -> if i = j then Fp.one else Fp.zero)
let w = basis 6
let v = basis 2

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
  let module Fp6 = Tower.Fp6 in
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
    let a = random_fp12 () and b = random_fp12 () and c = random_fp12 () in
    assert (Fp12.equal (Fp12.mul a (Fp12.mul b c)) (Fp12.mul (Fp12.mul a b) c));
    if not (Fp12.is_zero a) then assert (Fp12.is_one (Fp12.mul a (Fp12.inv a)))
  done;
  (* w^2 = v *)
  assert (Fp12.equal (Fp12.sqr w) v)

let test_frobenius () =
  (* frobenius must agree with x -> x^p *)
  let p = Fp.modulus in
  let a = Fp2.random rng in
  assert (Fp2.equal (Fp2.frobenius a) (Fp2.pow_nat a p));
  let b = random_fp12 () in
  Alcotest.check fp12 "fp12 frobenius" (Fp12.pow_nat b p) (Fp12.frobenius 1 b);
  (* conj = p^6 frobenius *)
  assert (Fp12.equal (Fp12.conj b) (Fp12.frobenius 6 b))

let test_fp12_sqr () =
  List.iter
    (fun a -> Alcotest.check fp12 "sqr a = mul a a" (Fp12.mul a a) (Fp12.sqr a))
    ([ Fp12.zero; Fp12.one; w ] @ List.init 10 (fun _ -> random_fp12 ()))

(* The final exponentiation's easy part, f^((p^6 - 1)(p^2 + 1)): its
   outputs lie in the cyclotomic subgroup, where cyclotomic_sqr holds. *)
let easy_part f =
  let t = Fp12.mul (Fp12.conj f) (Fp12.inv f) in
  Fp12.mul (Fp12.frobenius 2 t) t

let test_cyclotomic_sqr () =
  Alcotest.check fp12 "one" Fp12.one (Fp12.cyclotomic_sqr Fp12.one);
  for _ = 1 to 10 do
    let g = easy_part (random_fp12 ()) in
    Alcotest.check fp12 "cyclotomic_sqr = sqr" (Fp12.sqr g) (Fp12.cyclotomic_sqr g);
    let g2 = Fp12.cyclotomic_sqr g in
    Alcotest.check fp12 "again on its own output" (Fp12.sqr g2)
      (Fp12.cyclotomic_sqr g2)
  done

(* The dense value d0 + (d3 + d4 v) w. *)
let line_034 (d0 : Fp2.t) (d3 : Fp2.t) (d4 : Fp2.t) =
  Fp12.init (function
    | 0 -> d0.c0 | 1 -> d0.c1 | 6 -> d3.c0 | 7 -> d3.c1 | 8 -> d4.c0
    | 9 -> d4.c1 | _ -> Fp.zero)

let test_sparse_mul () =
  for _ = 1 to 10 do
    let a = random_fp12 () in
    let d0 = Fp2.random rng and d3 = Fp2.random rng and d4 = Fp2.random rng in
    Alcotest.check fp12 "mul_by_034 = dense mul" (Fp12.mul a (line_034 d0 d3 d4))
      (Fp12.mul_by_034 a d0 d3 d4);
    let b = Tower.Fp6.random rng in
    Alcotest.(check bool) "mul_by_01 = dense mul" true
      Tower.Fp6.(equal (mul b (make d0 d3 Fp2.zero)) (mul_by_01 b d0 d3))
  done

(* ---- the C kernels against the oracle tower ---- *)

let fp12_gen =
  Gen.map (fun a -> Fp12.init (Array.get a)) (Gen.array_size (Gen.return 12) Gz.fq)
let fp2_gen = Gen.map2 Fp2.make Gz.fq Gz.fq
let pp_fp12 a = Format.asprintf "%a" Fp12.pp a
let pp_fp2 a = Format.asprintf "%a" Fp2.pp a

(* [kernel] on flat values computes what [oracle] computes on boxed ones. *)
let agrees kernel oracle a = Fp12.equal (kernel a) (of_oracle (oracle (to_oracle a)))

(* The signed digits of x, least significant first, as the pairing
   derives them. *)
let x_naf =
  let rec go n acc =
    if Nat.is_zero n then Array.of_list (List.rev acc)
    else if Nat.testbit n 0 then
      if Nat.testbit n 1 then go (Nat.shift_right (Nat.add n Nat.one) 1) (-1 :: acc)
      else go (Nat.shift_right (Nat.sub n Nat.one) 1) (1 :: acc)
    else go (Nat.shift_right n 1) (0 :: acc)
  in
  go Pairing.x []

let oracle_easy_part f =
  let module O = Tower.Fp12 in
  let t = O.mul (O.conj f) (O.inv f) in
  O.mul (O.frobenius (O.frobenius t)) t

let kernel_props =
  let prop = Test_util.prop in
  let pair = Gen.pair fp12_gen fp12_gen in
  let nonzero = Gen.such_that (fun a -> not (Fp12.is_zero a)) fp12_gen in
  let module O = Tower.Fp12 in
  [ prop ~count:30 "mul" (Test_util.pp2 pp_fp12 pp_fp12) pair (fun (a, b) ->
        Fp12.equal (Fp12.mul a b) (of_oracle (O.mul (to_oracle a) (to_oracle b))));
    prop ~count:30 "sqr" pp_fp12 fp12_gen (agrees Fp12.sqr O.sqr);
    prop ~count:30 "mul_by_034"
      (Test_util.pp2 pp_fp12 (Test_util.pp3 pp_fp2 pp_fp2 pp_fp2))
      (Gen.pair fp12_gen (Gen.triple fp2_gen fp2_gen fp2_gen))
      (fun (a, (d0, d3, d4)) ->
        agrees (fun a -> Fp12.mul_by_034 a d0 d3 d4)
          (fun a -> O.mul_by_034 a d0 d3 d4) a);
    prop ~count:30 "conj" pp_fp12 fp12_gen (agrees Fp12.conj O.conj);
    prop ~count:30 "frobenius 1-3"
      (Test_util.pp2 string_of_int pp_fp12)
      (Gen.pair (Gen.int_range 1 3) fp12_gen)
      (fun (k, a) ->
        let rec frob k a = if k = 0 then a else frob (k - 1) (O.frobenius a) in
        agrees (Fp12.frobenius k) (frob k) a);
    prop ~count:20 "inv" pp_fp12 nonzero (agrees Fp12.inv O.inv);
    prop ~count:20 "cyclotomic_sqr" pp_fp12 nonzero (fun a ->
        let g = oracle_easy_part (to_oracle a) in
        Fp12.equal (Fp12.cyclotomic_sqr (of_oracle g)) (of_oracle (O.cyclotomic_sqr g))
        && Tower.Fp12.equal (O.cyclotomic_sqr g) (O.sqr g));
    prop ~count:5 "exp by x" pp_fp12 nonzero (fun a ->
        let g = oracle_easy_part (to_oracle a) in
        Fp12.equal
          (Fp12.cyclotomic_exp (of_oracle g) x_naf)
          (of_oracle (O.pow_nat g Pairing.x))) ]

(* ---- the pairing before its tower moved to C, on the oracle tower ---- *)

(* Today's optimal ate Miller loop and final exponentiation, step for
   step, on boxed values: the C path must produce the same Gt bytes. *)
module Reference = struct
  module O = Tower.Fp12

  let two_inv = Fp.inv (Fp.of_int 2)
  let three_b = Fp2.mul (Fp2.of_int 3) G2.b2

  let double_step (tx, ty, tz) =
    let a = Fp2.scale_fp (Fp2.mul tx ty) two_inv in
    let b = Fp2.sqr ty in
    let c = Fp2.sqr tz in
    let e = Fp2.mul three_b c in
    let f = Fp2.add (Fp2.double e) e in
    let g = Fp2.scale_fp (Fp2.add b f) two_inv in
    let h = Fp2.sub (Fp2.sqr (Fp2.add ty tz)) (Fp2.add b c) in
    let j = Fp2.sqr tx in
    let e2 = Fp2.sqr e in
    ( (Fp2.mul a (Fp2.sub b f), Fp2.sub (Fp2.sqr g) (Fp2.add (Fp2.double e2) e2),
       Fp2.mul b h),
      (Fp2.neg h, Fp2.add (Fp2.double j) j, Fp2.sub e b) )

  let add_step (tx, ty, tz) (xq, yq) =
    let theta = Fp2.sub ty (Fp2.mul yq tz) in
    let lambda = Fp2.sub tx (Fp2.mul xq tz) in
    let c = Fp2.sqr theta in
    let d = Fp2.sqr lambda in
    let e = Fp2.mul lambda d in
    let f = Fp2.mul tz c in
    let g = Fp2.mul tx d in
    let h = Fp2.sub (Fp2.add e f) (Fp2.double g) in
    ( (Fp2.mul lambda h, Fp2.sub (Fp2.mul theta (Fp2.sub g h)) (Fp2.mul e ty),
       Fp2.mul tz e),
      (lambda, Fp2.neg theta, Fp2.sub (Fp2.mul theta xq) (Fp2.mul lambda yq)) )

  let frob_x = Tower.Fp6.gamma1
  let frob_y = Fp2.mul O.gamma_w (Fp2.sqr O.gamma_w)

  let frobenius_twist (xq, yq) =
    (Fp2.mul (Fp2.frobenius xq) frob_x, Fp2.mul (Fp2.frobenius yq) frob_y)

  let miller_loop pairs =
    let ts = Array.map (fun (_, (xq, yq)) -> (xq, yq, Fp2.one)) pairs in
    let f = ref O.one in
    let line i (c0, c3, c4) =
      let (xp, yp), _ = pairs.(i) in
      f := O.mul_by_034 !f (Fp2.scale_fp c0 yp) (Fp2.scale_fp c3 xp) c4
    in
    let naf = Pairing.loop_naf in
    for k = Array.length naf - 2 downto 0 do
      f := O.sqr !f;
      Array.iteri
        (fun i t ->
          let t, l = double_step t in
          ts.(i) <- t;
          line i l)
        ts;
      if naf.(k) <> 0 then
        Array.iteri
          (fun i t ->
            let xq, yq = snd pairs.(i) in
            let t, l = add_step t (xq, if naf.(k) > 0 then yq else Fp2.neg yq) in
            ts.(i) <- t;
            line i l)
          ts
    done;
    Array.iteri
      (fun i t ->
        let q1 = frobenius_twist (snd pairs.(i)) in
        let x2, y2 = frobenius_twist q1 in
        let t, l = add_step t q1 in
        line i l;
        line i (snd (add_step t (x2, Fp2.neg y2))))
      ts;
    !f

  let exp_by_neg_x a =
    let a_inv = O.conj a in
    let acc = ref a in
    for k = Array.length x_naf - 2 downto 0 do
      acc := O.cyclotomic_sqr !acc;
      if x_naf.(k) > 0 then acc := O.mul !acc a
      else if x_naf.(k) < 0 then acc := O.mul !acc a_inv
    done;
    O.conj !acc

  let final_exponentiation f =
    let rec frob k a = if k = 0 then a else frob (k - 1) (O.frobenius a) in
    let r = oracle_easy_part f in
    let y0 = exp_by_neg_x r in
    let y1 = O.cyclotomic_sqr y0 in
    let y2 = O.cyclotomic_sqr y1 in
    let y3 = O.mul y2 y1 in
    let y4 = exp_by_neg_x y3 in
    let y5 = O.cyclotomic_sqr y4 in
    let y6 = O.conj (exp_by_neg_x y5) in
    let y7 = O.mul y6 y4 in
    let y8 = O.mul y7 (O.conj y3) in
    let y9 = O.mul y8 y1 in
    let y11 = O.mul (O.mul y8 y4) r in
    let y13 = O.mul (frob 1 y9) y11 in
    let y14 = O.mul (frob 2 y8) y13 in
    O.mul (frob 3 (O.mul (O.conj r) y9)) y14

  let pairing_product pairs =
    let affine =
      List.filter_map
        (fun (p, q) ->
          match (G1.to_affine p, G2.to_affine q) with
          | Some p, Some q -> Some (p, q)
          | _ -> None)
        pairs
    in
    O.to_bytes (final_exponentiation (miller_loop (Array.of_list affine)))
end

let test_reference_pairing () =
  let checks =
    [ [ (G1.generator, G2.generator) ];
      [ (G1.random rng, G2.random rng) ];
      [ (G1.random rng, G2.random rng); (G1.random rng, G2.random rng) ];
      [ (G1.random rng, G2.zero); (G1.random rng, G2.random rng);
        (G1.zero, G2.random rng) ] ]
  in
  List.iteri
    (fun i pairs ->
      Alcotest.(check string)
        (Printf.sprintf "check %d: C tower = oracle tower" i)
        (Reference.pairing_product pairs)
        (Pairing.Gt.to_bytes (Pairing.pairing_product pairs)))
    checks

(* Gt.to_bytes of e(G1, G2) and of one seeded random pair, captured from
   the boxed OCaml tower before the tower moved to C. *)
let golden_generators =
  "262b253feda94cfe0da01bde280a3ed6f87e5feb898578b55e1f63739d870e95\
   02e02d2cc795a2000a1b1f823879abbd397c4dea0918ed66b49d34b48efb8a4a\
   13a9f2d6e29b128da5b1ad44b31977935fd2957387ecb1fc4e135402fdbd1de0\
   040ba9fa500f1a5c4b31984a74e68659c4b420bd699ce630b130b08a6ea1162b\
   0afc2f3fd870678fbe359d7f9873f052478f590b211ce30bf5e3eeaef89eafdb\
   1c54a530398c9064bdc662d929e645cadda9a712cc5a8243f9cddbd2d98dd1f0\
   095c0fbf5d5a1ac023794a0d856f92591ba990ecfd4b7aef5c0d58c5dc2429fe\
   14d3d6ca72d8a950a31dc10f7b4053c9e9ad9ebb590cb4a60f8215d4b99f2b4a\
   1dc0e7bbc3d70e6689dc206b4b91c85759dc1a23043c585fdfaf545838ca7429\
   0b53320e5a6488cb98a855ffc837d2a75ab90d61ac16cc1b7ab2cd3ed5e22b97\
   13a8afd3085dae4c6c91476ef36cd1d318ce07bac42a9c0f9bd7fddaf5ebd723\
   00f97b5221474526b601f3730a3afa965ceee1b343940c383e5314859e762c97"

let golden_seeded =
  "023bc33ec2dfc1934e06b0cfa98e89645104499674654fc93b45dcf9daf427c3\
   2207a10d3dc4a7fa12ae253020633b240e0c1de75a1ac468b30af5aefaa2e935\
   2f2d42b317acbc362ec7c334bc9b5c53d73ab53bcc205a4e9236cc6443bc130b\
   1a491d52c15408eead65ce69994169c1ff582394ef99f7e350d393965bc2b195\
   2c848068ec6cae3efdbc76c95495aef09b05537086f261b0509186a0b968fd72\
   079648fa2531453a001e4b0b46624d3fe01b05085d9612ca0d3bd03a10b8e25f\
   24c883b9bc9bc69e3ee542e9c1197f60bfba89ef2b971779ef9627bf381b9e57\
   2ba187ef9f542728d6fcad1e8d7e159511192c1f5b8b342148a7bcc5203b6f5c\
   0de39aa5e6f4f3cf213c3d6345468421c5b19e8f34dd360575d5971db5ef9f48\
   003ed6f51ae7967079cecfb25f4db947cc3c2d666da049e63340a9503ccc4f66\
   01ef4e79ef2e04aee9f8db4c8debb0260924dd810b1708322e3937f290359a9e\
   2c2ce9a2b6ae8ab6453c81f9a40e9459a5fec32aebee17f69abfd1f474cd5846"

let test_golden () =
  let gt p q =
    Zkdet_hash.Sha256.hex_of_string (Pairing.Gt.to_bytes (Pairing.pairing p q))
  in
  Alcotest.(check string) "e(G1, G2)" golden_generators (gt G1.generator G2.generator);
  (* A fixed stream, independent of ZKDET_TEST_SEED. *)
  let st = Random.State.make [| 2022 |] in
  let p = G1.random st in
  let q = G2.random st in
  Alcotest.(check string) "seeded pair" golden_seeded (gt p q)

(* The tower allocates nothing per operation: a two-pair check allocates
   its state, its accumulator and a few dozen Fp12 results (7.3 MB on the
   boxed tower it replaced), and its three field inversions allocate a
   scratch buffer each, not a value per step. *)
let test_check_allocation () =
  let a = Fr.random rng and p = G1.random rng and q = G2.random rng in
  let pairs = [ (G1.mul p a, q); (G1.neg p, G2.mul q a) ] in
  assert (Pairing.pairing_check pairs);
  let before = Gc.minor_words () in
  assert (Pairing.pairing_check pairs);
  let mb = (Gc.minor_words () -. before) *. float (Sys.word_size / 8) /. 1e6 in
  Alcotest.(check bool) (Printf.sprintf "%.3f MB allocated, under 0.03" mb) true (mb < 0.03)

(* Two domains check different equations at once; the kernels keep no
   state, so each must see exactly what a sequential run sees. *)
let test_reentrancy () =
  let equation k =
    let a = Fr.random rng and p = G1.random rng and q = G2.random rng in
    let valid = [ (G1.mul p a, q); (G1.neg p, G2.mul q a) ] in
    if k mod 2 = 0 then valid else (G1.add p G1.generator, q) :: List.tl valid
  in
  let inputs = Array.init 4 equation in
  let run pairs =
    (Pairing.pairing_check pairs, Pairing.Gt.to_bytes (Pairing.pairing_product pairs))
  in
  let sequential = Array.map run inputs in
  let worker lo () = Array.init 2 (fun i -> run inputs.(lo + i)) in
  let d1 = Domain.spawn (worker 0) and d2 = Domain.spawn (worker 2) in
  let parallel = Array.append (Domain.join d1) (Domain.join d2) in
  Array.iteri
    (fun i (verdict, bytes) ->
      let v, b = sequential.(i) in
      Alcotest.(check bool) (Printf.sprintf "equation %d: verdict" i) v verdict;
      Alcotest.(check string) (Printf.sprintf "equation %d: Gt" i) b bytes)
    parallel;
  Alcotest.(check (list bool)) "verdicts" [ true; false; true; false ]
    (Array.to_list (Array.map fst sequential))

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
    let f = Tower.Fp12.random rng in
    Alcotest.(check string) "final_exponentiation f = (standard f)^m"
      (Tower.Fp12.to_bytes (Tate.pow (Tate.final_exponentiation f) Pairing.hard_power))
      (Pairing.Gt.to_bytes (Pairing.final_exponentiation (of_oracle f)))
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
  check_laws "tate" Tate.pairing ~mul:Tower.Fp12.mul ~pow:Tate.pow
    ~is_one:Tower.Fp12.is_one ~equal:Tower.Fp12.equal

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
        Array.iteri (fun j m -> if j <> i then f := Tower.Fp12.mul !f m) millers;
        Tower.Fp12.is_one (Tate.final_exponentiation !f)
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
          Alcotest.test_case "tate oracle agreement" `Slow test_oracle_agreement;
          Alcotest.test_case "oracle tower agreement" `Quick test_reference_pairing;
          Alcotest.test_case "golden Gt bytes" `Quick test_golden;
          Alcotest.test_case "two domains at once" `Quick test_reentrancy;
          Alcotest.test_case "check allocation" `Quick test_check_allocation ] );
      ("kernels", kernel_props) ]
