(* Kernel-level differential tests for the Pippenger MSM
   (lib/curve/weierstrass.ml): every window width against a naive
   double-and-add reference, on inputs biased toward the places bucket
   arithmetic breaks — zero scalars, +-1, r-1, 2^c digit boundaries,
   repeated points, P with -P in the same bucket (annihilation), and
   identity points scattered through the input.  The same suite runs over
   G1 and G2 (the two CURVE_FIELD instantiations: flat Montgomery limbs
   vs the allocating Fp2 fallback), plus fixed-base-table agreement and
   byte-identity across pool sizes.

   G1's MSMs run in C (lib/curve/msm_stubs.c): one call per chunk, one
   merge, and the fixed-base table build.  Two more G1 instances run the
   suite on the OCaml chunk, the engine's oracle: one over the same C
   field with the C engine switched off, one over the pure-OCaml field
   kernel.  Their results must encode to the same bytes as the default
   G1's on every input; a differential suite holds the C engine to both
   on sizes and windows chosen for its chunk boundaries, a round-level
   suite feeds all three hand-built buckets aimed at the round's edge
   cases, and the engine's allocation and reentrancy are pinned. *)

module Nat = Zkdet_num.Nat
module Fr = Zkdet_field.Bn254.Fr
module Fp = Zkdet_field.Bn254.Fp
module G1 = Zkdet_curve.G1
module Weierstrass = Zkdet_curve.Weierstrass
module Pool = Zkdet_parallel.Pool

let rng = Test_util.rng ~salt:"msm" ()

module type CURVE = sig
  type t

  val zero : t
  val generator : t
  val equal : t -> t -> bool
  val to_bytes : t -> string
  val add : t -> t -> t
  val neg : t -> t
  val mul : t -> Fr.t -> t
  val random : Random.State.t -> t
  val msm : t array -> Fr.t array -> t
  val msm_with_window : window:int -> t array -> Fr.t array -> t

  module Fixed_base : sig
    type msm_table

    val msm_create : ?window:int -> t array -> msm_table
    val msm : msm_table -> Fr.t array -> t
  end
end

(* [D.to_g1] maps a G1 variant's points onto the default G1 (through the
   fixed-width encoding); [None] for the default curves themselves. *)
module Suite
    (C : CURVE) (D : sig
      val to_g1 : (C.t -> G1.t) option
    end) =
struct
  (* Independent reference: double-and-add per term, plain group adds.
     Shares no code with the bucket kernels under test. *)
  let naive (points : C.t array) (scalars : Fr.t array) : C.t =
    let acc = ref C.zero in
    Array.iteri (fun i p -> acc := C.add !acc (C.mul p scalars.(i))) points;
    !acc

  (* A variant's MSM must encode exactly as the default G1's on the same
     input. *)
  let check_default ~msg points scalars got =
    match D.to_g1 with
    | None -> ()
    | Some to_g1 ->
      let want = G1.to_bytes (G1.msm (Array.map to_g1 points) scalars) in
      if not (String.equal (C.to_bytes got) want) then
        Alcotest.failf "%s: bytes differ from the default G1" msg

  let check_against_naive ~msg points scalars windows =
    let expect = naive points scalars in
    List.iter
      (fun c ->
        let got = C.msm_with_window ~window:c points scalars in
        if not (C.equal got expect) then
          Alcotest.failf "%s: window %d disagrees with naive reference" msg c;
        check_default ~msg:(Printf.sprintf "%s, window %d" msg c) points
          scalars got)
      windows;
    let got = C.msm points scalars in
    if not (C.equal got expect) then
      Alcotest.failf "%s: default window disagrees with naive reference" msg;
    check_default ~msg points scalars got

  (* Scalars that stress the signed-digit decomposition at width [c]:
     digit boundaries 2^(c-1) (the sign flip), 2^c +- 1 (the carry), and
     the all-ones tail r - 1 / r - 2^c (carry chains to the top). *)
  let boundary_scalars c =
    let p2 k = Fr.pow (Fr.of_int 2) k in
    [ Fr.zero; Fr.one; Fr.neg Fr.one; Fr.of_int 2; Fr.neg (Fr.of_int 2);
      p2 (c - 1); Fr.sub (p2 (c - 1)) Fr.one; Fr.add (p2 (c - 1)) Fr.one;
      p2 c; Fr.sub (p2 c) Fr.one; Fr.add (p2 c) Fr.one;
      p2 26; Fr.sub (p2 26) Fr.one; p2 52; p2 128; p2 253;
      Fr.sub (Fr.zero) (p2 c) ]

  (* A point set with the shapes that exercise every bucket-kernel branch:
     distinct points (generic additions), the same point repeated
     (doubling inside a bucket), P next to -P (annihilating pair, the
     zero-denominator path) and identity inputs. *)
  let edge_points n =
    let g = C.generator in
    Array.init n (fun i ->
        match i mod 7 with
        | 0 -> g
        | 1 -> C.mul g (Fr.of_int (i + 2))
        | 2 -> C.zero
        | 3 -> C.neg g
        | 4 -> C.random rng
        | 5 -> C.mul g (Fr.of_int (i - 1))
        | _ -> C.neg (C.mul g (Fr.of_int 3)))

  let test_all_windows () =
    List.iter
      (fun c ->
        let scalars = Array.of_list (boundary_scalars c) in
        let points = edge_points (Array.length scalars) in
        let expect = naive points scalars in
        let got = C.msm_with_window ~window:c points scalars in
        if not (C.equal got expect) then
          Alcotest.failf "window %d disagrees on its own boundary scalars" c;
        check_default ~msg:(Printf.sprintf "window %d boundary scalars" c)
          points scalars got)
      (List.init 15 (fun i -> i + 2))

  let test_lengths () =
    List.iter
      (fun n ->
        let points = edge_points n in
        let scalars =
          Array.init n (fun i ->
              match i mod 5 with
              | 0 -> Fr.zero
              | 1 -> Fr.one
              | 2 -> Fr.neg Fr.one
              | 3 -> Fr.random rng
              | _ -> Fr.of_int i)
        in
        check_against_naive
          ~msg:(Printf.sprintf "length %d" n)
          points scalars [ 2; 5; 9 ])
      [ 0; 1; 2; 3; 7; 8; 9; 15; 16; 17; 31; 32; 33 ]

  (* Same scalar on P and -P files both into one bucket, where the pair
     annihilates; scattered identities must be skipped without shifting
     any other entry.  Regression for the batch adder's zero-denominator
     and absent-entry handling. *)
  let test_annihilation_and_identity () =
    let n = 48 in
    let g = C.generator in
    let points =
      Array.init n (fun i ->
          if i mod 3 = 0 then C.zero
          else if i mod 2 = 0 then C.mul g (Fr.of_int ((i / 2) + 1))
          else C.neg (C.mul g (Fr.of_int ((i / 2) + 1))))
    in
    let scalars =
      Array.init n (fun i ->
          if i mod 4 = 0 then Fr.zero else Fr.of_int ((i / 2) + 5))
    in
    check_against_naive ~msg:"annihilation + identity" points scalars [ 2; 3; 8 ];
    (* all-identity and all-zero-scalar inputs *)
    let zs = Array.make 9 C.zero and ss = Array.make 9 (Fr.of_int 7) in
    Alcotest.(check bool) "all-identity input" true (C.equal C.zero (C.msm zs ss));
    check_default ~msg:"all-identity input" zs ss (C.msm zs ss);
    let ps = edge_points 9 and z9 = Array.make 9 Fr.zero in
    Alcotest.(check bool) "all-zero scalars" true (C.equal C.zero (C.msm ps z9));
    check_default ~msg:"all-zero scalars" ps z9 (C.msm ps z9)

  let test_fixed_base_agrees () =
    let n = 40 in
    let points = edge_points n in
    let scalars = Array.init n (fun i ->
        if i mod 6 = 0 then Fr.zero else Fr.random rng) in
    let expect = C.msm points scalars in
    List.iter
      (fun w ->
        let tb = C.Fixed_base.msm_create ~window:w points in
        let got = C.Fixed_base.msm tb scalars in
        Alcotest.(check bool)
          (Printf.sprintf "fixed-base window %d agrees with generic" w)
          true (C.equal expect got);
        check_default ~msg:(Printf.sprintf "fixed-base window %d" w) points
          scalars got;
        (* a prefix of the bases: fewer scalars than table columns *)
        let k = 17 in
        let ps = Array.sub points 0 k and ss = Array.sub scalars 0 k in
        let got = C.Fixed_base.msm tb ss in
        Alcotest.(check bool)
          (Printf.sprintf "fixed-base window %d prefix" w)
          true
          (C.equal (C.msm ps ss) got);
        check_default ~msg:(Printf.sprintf "fixed-base window %d prefix" w) ps
          ss got)
      [ 8; 11; 13 ]

  let test_window_validation () =
    let p = [| C.generator |] and s = [| Fr.one |] in
    Alcotest.check_raises "window 1 rejected"
      (Invalid_argument "Weierstrass.msm: window outside [2, 16]") (fun () ->
        ignore (C.msm_with_window ~window:1 p s));
    Alcotest.check_raises "window 17 rejected"
      (Invalid_argument "Weierstrass.msm: window outside [2, 16]") (fun () ->
        ignore (C.msm_with_window ~window:17 p s))

  let tests =
    [ Alcotest.test_case "windows 2..16 vs naive" `Quick test_all_windows;
      Alcotest.test_case "lengths incl. 0/1/2^k+-1" `Quick test_lengths;
      Alcotest.test_case "annihilation + scattered identities" `Quick
        test_annihilation_and_identity;
      Alcotest.test_case "fixed-base tables agree" `Quick test_fixed_base_agrees;
      Alcotest.test_case "window bounds validated" `Quick test_window_validation ]
end

(* G1 over the same C field, with the C engine switched off: its MSMs run
   the OCaml chunk. *)
module G1_ocaml_round = Weierstrass.Make (struct
  module F = struct
    include G1.Fp_curve

    let kernel = None
  end

  let b = Fp.of_int 3
  let generator = (Fp.one, Fp.of_int 2)
  let subgroup_check = false
end)

(* G1 over the pure-OCaml field kernel, on the OCaml chunk too. *)
module Fp_ml =
  Zkdet_field.Fp64.Make_kernel
    (struct
      let use_c = false
    end)
    (struct
      let modulus_decimal = Zkdet_field.Bn254.fp_modulus_decimal
    end)

module G1_ml_kernel = Weierstrass.Make (struct
  module F = struct
    include Fp_ml

    let to_bytes = Fp_ml.to_bytes_be
    let of_bytes = Fp_ml.of_bytes_be
    let of_bytes_canonical = Fp_ml.of_bytes_be_canonical
    let sqrt_opt = Fp_ml.sqrt

    let parity y =
      let limbs = Bytes.create 32 in
      Fp_ml.to_limbs_le y limbs;
      Weierstrass.limb_bit limbs 0

    let kernel = None
  end

  let b = Fp_ml.of_int 3
  let generator = (Fp_ml.one, Fp_ml.of_int 2)
  let subgroup_check = false
end)

module No_default = struct
  let to_g1 = None
end

module G1_suite = Suite (G1) (No_default)
module G2_suite = Suite (Zkdet_curve.G2) (No_default)

module G1_ocaml_round_suite =
  Suite
    (G1_ocaml_round)
    (struct
      let to_g1 =
        Some (fun p -> G1.of_bytes_fixed (G1_ocaml_round.to_bytes_fixed p))
    end)

module G1_ml_kernel_suite =
  Suite
    (G1_ml_kernel)
    (struct
      let to_g1 = Some (fun p -> G1.of_bytes_fixed (G1_ml_kernel.to_bytes_fixed p))
    end)

(* ---- the bucket round itself ----

   Hand-built buckets go straight into [reduce_buckets] of each G1
   instance: the C engine's reduction for the default G1, the OCaml
   chunk's for the other two.  Every bucket must end with at most one point, equal to the
   sum of its inputs (none when that sum is the identity), in the same
   bytes on all three instances.  The cases aim at the round's branches:
   a round whose denominators are all zero, one with exactly one nonzero
   denominator, zeros interleaved with chords and tangents, empty buckets,
   and buckets of length 1, 2 and 3 — length 3 leaves an odd point that
   must move down behind the pair's sum. *)

module type REDUCE = sig
  type t

  module F : sig
    type t
    type buf

    val buf_create : int -> buf
    val buf_get : buf -> int -> t
    val buf_set : buf -> int -> t -> unit
  end

  val to_affine : t -> (F.t * F.t) option
  val of_affine_unchecked : F.t * F.t -> t
  val of_bytes_fixed : string -> t
  val to_bytes_fixed : t -> string

  val reduce_buckets :
    ex:F.buf -> ey:F.buf -> start:int array -> len:int array -> unit
end

module Reduce (C : REDUCE) = struct
  (* Lays the buckets out back to back, reduces them, and returns each
     bucket's survivor in the default G1's fixed-width bytes. *)
  let run (buckets : G1.t list list) : string option list =
    let lens = Array.of_list (List.map List.length buckets) in
    let start = Array.make (Array.length lens) 0 in
    for b = 1 to Array.length lens - 1 do
      start.(b) <- start.(b - 1) + lens.(b - 1)
    done;
    let total = Array.fold_left ( + ) 0 lens in
    let ex = C.F.buf_create (max total 1) and ey = C.F.buf_create (max total 1) in
    List.iteri
      (fun b pts ->
        List.iteri
          (fun k p ->
            match C.to_affine (C.of_bytes_fixed (G1.to_bytes_fixed p)) with
            | None -> invalid_arg "bucket entries must be finite"
            | Some (x, y) ->
              C.F.buf_set ex (start.(b) + k) x;
              C.F.buf_set ey (start.(b) + k) y)
          pts)
      buckets;
    let len = Array.copy lens in
    C.reduce_buckets ~ex ~ey ~start ~len;
    Array.to_list
      (Array.mapi
         (fun b l ->
           match l with
           | 0 -> None
           | 1 ->
             Some
               (C.to_bytes_fixed
                  (C.of_affine_unchecked
                     (C.F.buf_get ex start.(b), C.F.buf_get ey start.(b))))
           | l -> Alcotest.failf "bucket %d kept %d points" b l)
         len)
end

module Reduce_c = Reduce (G1)
module Reduce_ocaml = Reduce (G1_ocaml_round)
module Reduce_ml = Reduce (G1_ml_kernel)

let reduce_cases () =
  let g = G1.generator in
  let p k = G1.mul_int g k and m k = G1.neg (G1.mul_int g k) in
  [ ("one round, all denominators zero", [ [ p 1; m 1 ]; [ p 2; m 2; p 3; m 3 ] ]);
    (* round 1 makes P1 + P2 and -(P1 + P2); round 2 annihilates them *)
    ("a later round, all denominators zero", [ [ p 1; p 2; m 1; m 2 ] ]);
    ( "exactly one nonzero denominator",
      [ [ p 1; m 1 ]; [ p 2; p 5 ]; [ p 3; m 3; p 4; m 4 ] ] );
    ( "zeros interleaved with chords and tangents",
      [ [ p 1; m 1; p 2; p 3; p 4; m 4; p 5; p 5 ]; [ p 6; m 6 ]; [ p 7; p 8 ];
        [ p 9; p 9; m 9; m 9 ] ] );
    ("buckets of length 1, 2 and 3", [ [ p 1 ]; [ p 2; p 3 ]; [ p 4; p 5; p 6 ] ]);
    (* the pair annihilates, so the odd point moves down two cells *)
    ("length 3 with an annihilating pair", [ [ p 4; m 4; p 6 ]; [ p 7; p 7; p 7 ] ]);
    ( "empty buckets between full ones",
      [ []; [ p 1 ]; []; [ p 2; p 3; p 4 ]; []; [ p 5; p 6 ]; [] ] );
    ("lengths 5 and 7", [ List.init 5 (fun i -> p (i + 1)); List.init 7 (fun i -> p (i + 3)) ])
  ]

(* Random layouts drawn from a few small multiples of g and their
   negations, so chords, tangents and annihilations all occur. *)
let random_buckets n =
  let g = G1.generator in
  let pool = Array.init 8 (fun i -> G1.mul_int g (if i < 4 then i + 1 else 3 - i)) in
  List.init n (fun _ ->
      List.init (Random.State.int rng 10) (fun _ -> pool.(Random.State.int rng 8)))

let test_reduce_buckets () =
  let cases =
    reduce_cases ()
    @ List.init 20 (fun i -> (Printf.sprintf "random layout %d" i, random_buckets 40))
  in
  List.iter
    (fun (name, buckets) ->
      let want =
        List.map
          (fun pts ->
            let s = List.fold_left G1.add G1.zero pts in
            if G1.is_zero s then None else Some (G1.to_bytes_fixed s))
          buckets
      in
      let check impl got =
        List.iteri
          (fun b (w, g) ->
            if w <> g then Alcotest.failf "%s, %s: bucket %d has the wrong sum" name impl b)
          (List.combine want got)
      in
      check "C round" (Reduce_c.run buckets);
      check "OCaml round" (Reduce_ocaml.run buckets);
      check "OCaml field kernel" (Reduce_ml.run buckets))
    cases

(* The C reduction checks the bucket layout before it trusts it. *)
let test_round_shapes () =
  let ex = Fp.buf_create 4 and ey = Fp.buf_create 4 in
  let call ?(ey = ey) ?(start = [| 0 |]) ?(len = [| 4 |]) () =
    G1.reduce_buckets ~ex ~ey ~start ~len
  in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "bucket past the end" (call ~start:[| 1 |]);
  raises "negative start" (call ~start:[| -1 |] ~len:[| 2 |]);
  raises "negative length" (call ~len:[| -1 |]);
  raises "start and len of different lengths" (call ~len:[| 2; 2 |]);
  raises "ey shorter than ex" (call ~ey:(Fp.buf_create 3))

(* ---- the C engine against the OCaml chunk ---- *)

let to_ocaml p = G1_ocaml_round.of_bytes_fixed (G1.to_bytes_fixed p)
let to_ml p = G1_ml_kernel.of_bytes_fixed (G1.to_bytes_fixed p)

(* Points with every shape the engine branches on: identities, affine
   (z = 1) and Jacobian (z <> 1) inputs, P next to -P under one scalar
   (a bucket pair that annihilates), and one point twice under one scalar
   (a pair that doubles). *)
let engine_inputs n =
  let g = G1.generator in
  let base = Array.init 8 (fun i -> G1.mul g (Fr.of_int (i + 2))) in
  let points =
    Array.init n (fun i ->
        let b = base.(i / 9 mod 8) in
        match i mod 9 with
        | 0 -> G1.zero
        | 1 -> g
        | 2 -> G1.neg g
        | 3 | 4 -> b
        | 5 -> G1.neg b
        | _ -> G1.random rng)
  in
  let scalars = Array.make n Fr.zero in
  for i = 0 to n - 1 do
    scalars.(i) <-
      (match i mod 9 with
      | 2 | 4 | 5 -> scalars.(i - 1)
      | _ -> (
        match i mod 5 with
        | 0 -> Fr.zero
        | 1 -> Fr.one
        | 2 -> Fr.neg Fr.one
        | _ -> Fr.random rng))
  done;
  (points, scalars)

let same ~msg want got =
  if not (String.equal want got) then Alcotest.failf "%s: bytes differ" msg

(* [ml] adds the pure-OCaml field kernel, ~10x slower, where it stays
   quick. *)
let check_generic ~msg ~ml ~window points scalars =
  let want =
    G1_ocaml_round.to_bytes_fixed
      (G1_ocaml_round.msm_with_window ~window (Array.map to_ocaml points)
         scalars)
  in
  same ~msg want (G1.to_bytes_fixed (G1.msm_with_window ~window points scalars));
  if ml then
    same ~msg:(msg ^ ", OCaml field kernel") want
      (G1_ml_kernel.to_bytes_fixed
         (G1_ml_kernel.msm_with_window ~window (Array.map to_ml points) scalars))

let check_table ~msg ~ml ~window points scalars =
  let rows_c =
    Array.map G1.to_bytes_fixed
      (G1.Fixed_base.msm_rows (G1.Fixed_base.msm_create ~window points))
  in
  let tb_o = G1_ocaml_round.Fixed_base.msm_create ~window (Array.map to_ocaml points) in
  let rows_o = Array.map G1_ocaml_round.to_bytes_fixed (G1_ocaml_round.Fixed_base.msm_rows tb_o) in
  if rows_c <> rows_o then Alcotest.failf "%s: C-built table rows differ" msg;
  let tb = G1.Fixed_base.msm_create ~window points in
  let want = G1_ocaml_round.to_bytes_fixed (G1_ocaml_round.Fixed_base.msm tb_o scalars) in
  same ~msg:(msg ^ ", table") want (G1.to_bytes_fixed (G1.Fixed_base.msm tb scalars));
  if ml then begin
    let tb_m = G1_ml_kernel.Fixed_base.msm_create ~window (Array.map to_ml points) in
    let rows_m = Array.map G1_ml_kernel.to_bytes_fixed (G1_ml_kernel.Fixed_base.msm_rows tb_m) in
    if rows_c <> rows_m then
      Alcotest.failf "%s: C-built table rows differ from the OCaml field kernel's" msg;
    same ~msg:(msg ^ ", table, OCaml field kernel") want
      (G1_ml_kernel.to_bytes_fixed (G1_ml_kernel.Fixed_base.msm tb_m scalars))
  end

(* Sizes around the chunk boundaries (one chunk below 256 points, then
   n / 128 chunks up to four, so 4097 splits unevenly). *)
let test_engine_sizes () =
  List.iter
    (fun n ->
      let points, scalars = engine_inputs n in
      let ml = n <= 256 in
      let msg = Printf.sprintf "n = %d" n in
      check_generic ~msg ~ml ~window:(G1.pick_window n) points scalars;
      check_table ~msg ~ml ~window:(G1.Fixed_base.msm_window_for n) points
        scalars)
    [ 1; 2; 3; 127; 128; 255; 256; 4097 ]

let test_engine_windows () =
  let points, scalars = engine_inputs 300 in
  for window = 2 to 16 do
    let msg = Printf.sprintf "window %d" window in
    check_generic ~msg ~ml:(window mod 3 = 0) ~window points scalars;
    if window mod 2 = 0 then check_table ~msg ~ml:false ~window points scalars
  done

(* The rounds' Fermat inversion against the field's own, in both fields'
   parameter blocks. *)
let test_kernel_inv () =
  let check (type a) (module F : Zkdet_field.Field_intf.S with type t = a)
      (x : a) =
    let src = F.buf_create 1 and dst = F.buf_create 1 in
    F.buf_set src 0 x;
    Weierstrass.kernel_inv F.kernel_params (dst :> Bytes.t) (src :> Bytes.t);
    if not (F.equal (F.buf_get dst 0) (F.inv x)) then
      Alcotest.failf "C inverse of %s differs" (F.to_string x)
  in
  let fp = (module Fp : Zkdet_field.Field_intf.S with type t = Fp.t) in
  let fr = (module Fr : Zkdet_field.Field_intf.S with type t = Fr.t) in
  check fp Fp.one;
  check fp (Fp.neg Fp.one);
  check fr Fr.one;
  check fr (Fr.neg Fr.one);
  for _ = 1 to 50 do
    let x = Fp.random rng and y = Fr.random rng in
    if not (Fp.is_zero x) then check fp x;
    if not (Fr.is_zero y) then check fr y
  done

(* ---- allocation and reentrancy ---- *)

(* Bytes allocated by [f]: minor words plus words allocated straight in
   the major heap (Gc.allocated_bytes misses the current minor heap). *)
let allocated f =
  let words () =
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = words () in
  f ();
  (words () -. before) *. float (Sys.word_size / 8)

(* Cheap distinct points: a running sum of the generator. *)
let chain_points n =
  let acc = ref (G1.random rng) in
  Array.init n (fun _ ->
      let p = !acc in
      acc := G1.add !acc G1.generator;
      p)

(* A warm MSM takes its work buffer and scratch from its domain and
   allocates O(1) words; the table build allocates the table and one copy
   of the bases. *)
let test_allocation () =
  Pool.with_domains 1 @@ fun () ->
  let points = chain_points 4100 in
  let scalars = Array.init 4096 (fun _ -> Fr.random rng) in
  let tb = ref None in
  let build = allocated (fun () -> tb := Some (G1.Fixed_base.msm_create points)) in
  Alcotest.(check bool)
    (Printf.sprintf "msm_create over 4100 bases: %.1f MB, under 16" (build /. 1e6))
    true (build < 16e6);
  let tb = Option.get !tb in
  ignore (G1.Fixed_base.msm tb scalars);
  let table = allocated (fun () -> ignore (G1.Fixed_base.msm tb scalars)) in
  Alcotest.(check bool)
    (Printf.sprintf "4096-point table MSM: %.0f bytes, under 64 KB" table)
    true (table < 65536.);
  let p45 = Array.sub points 0 45 and s45 = Array.sub scalars 0 45 in
  ignore (G1.msm p45 s45);
  let generic = allocated (fun () -> ignore (G1.msm p45 s45)) in
  Alcotest.(check bool)
    (Printf.sprintf "45-term MSM: %.0f bytes, under 64 KB" generic)
    true (generic < 65536.)

(* Two spawned domains run MSMs on different inputs at once, each on its
   own arena and work buffers; each must see what a sequential run sees. *)
let test_reentrancy () =
  Pool.with_domains 1 @@ fun () ->
  let inputs =
    Array.init 2 (fun i ->
        let points = chain_points (700 + (300 * i)) in
        let scalars = Array.map (fun _ -> Fr.random rng) points in
        (points, scalars, G1.Fixed_base.msm_create points))
  in
  let run (points, scalars, tb) () =
    List.init 3 (fun k ->
        let ss = Array.map (Fr.add (Fr.of_int k)) scalars in
        ( G1.to_bytes (G1.msm points ss),
          G1.to_bytes (G1.Fixed_base.msm tb ss),
          G1.to_bytes (G1.msm (Array.sub points 0 45) (Array.sub ss 0 45)) ))
  in
  let want = Array.map (fun inp -> run inp ()) inputs in
  let got = Array.map (fun inp -> Domain.spawn (run inp)) inputs |> Array.map Domain.join in
  Array.iteri
    (fun i w ->
      if w <> got.(i) then Alcotest.failf "domain %d saw different MSMs" i)
    want

(* The determinism contract: MSM results (hence any proof bytes derived
   from them) are byte-identical at any pool size. *)
let test_domain_byte_identity () =
  let n = 300 in
  let points = Array.init n (fun _ -> G1.random rng) in
  let scalars = Array.init n (fun _ -> Fr.random rng) in
  let run () =
    let generic = G1.msm points scalars in
    let tb = G1.Fixed_base.msm_create points in
    (G1.to_bytes generic, G1.to_bytes (G1.Fixed_base.msm tb scalars))
  in
  let g1, f1 = Pool.with_domains 1 run in
  let g4, f4 = Pool.with_domains 4 run in
  Alcotest.(check string) "generic msm bytes: 1 vs 4 domains" g1 g4;
  Alcotest.(check string) "fixed-base msm bytes: 1 vs 4 domains" f1 f4;
  Alcotest.(check string) "fixed-base matches generic" g1 f1

(* Group names stay within 11 characters: Alcotest widens its name column
   to the longest group name and cuts test names to fit 80 columns, which
   would shorten "annihilation + scattered identities" in the output. *)
let () =
  Alcotest.run "zkdet_msm"
    [ ("g1", G1_suite.tests);
      ("g2", G2_suite.tests);
      ("g1-ml-round", G1_ocaml_round_suite.tests);
      ("g1-ml-field", G1_ml_kernel_suite.tests);
      ( "g1-round",
        [ Alcotest.test_case "edge-case buckets on all three G1s" `Quick
            test_reduce_buckets;
          Alcotest.test_case "native round checks shapes" `Quick
            test_round_shapes ] );
      ( "g1-engine",
        [ Alcotest.test_case "C chunk = OCaml chunk, sizes" `Quick
            test_engine_sizes;
          Alcotest.test_case "C chunk = OCaml chunk, windows" `Quick
            test_engine_windows;
          Alcotest.test_case "C inverse = field inverse" `Quick test_kernel_inv;
          Alcotest.test_case "warm MSMs allocate O(1)" `Quick test_allocation;
          Alcotest.test_case "two domains at once" `Quick test_reentrancy ] );
      ( "determinism",
        [ Alcotest.test_case "byte-identical across domains" `Quick
            test_domain_byte_identity ] ) ]
