(* The pairing's target field Fp12 as one flat Fp buffer of 12 cells, with
   its arithmetic in C (tower_stubs.c).  See fp12.mli for the layout. *)

module Fp = Zkdet_field.Bn254.Fp
module Nat = Zkdet_num.Nat

type t = Fp.buf

let cells = 12

(* ---------------- parameters, derived and checked at init ---------------- *)

(* xi = xi0 + u; the kernels multiply by xi with additions from xi0. *)
let xi0 = 9
let () = assert (Fp2.equal Fp2.xi (Fp2.make (Fp.of_int xi0) Fp.one))

let p_minus_1 = Nat.sub Fp.modulus Nat.one
let gamma_w = Fp2.pow_nat Fp2.xi (Nat.div p_minus_1 (Nat.of_int 6))
let gamma1 = Fp2.pow_nat Fp2.xi (Nat.div p_minus_1 (Nat.of_int 3))
let gamma2 = Fp2.sqr gamma1

let () =
  (* 6 | p - 1, so gamma_w^2 = gamma1; and gamma_w^6 = xi^(p-1) =
     xi^p / xi = conj(xi) / xi. *)
  assert (Nat.is_zero (Nat.rem p_minus_1 (Nat.of_int 6)));
  assert (Fp2.equal (Fp2.sqr gamma_w) gamma1);
  assert (
    Fp2.equal
      (Fp2.mul (Fp2.mul gamma2 gamma1) Fp2.xi)
      (Fp2.frobenius Fp2.xi))

let fp2_bytes (a : Fp2.t) =
  let b = Fp.buf_create 2 in
  Fp.buf_set b 0 a.Fp2.c0;
  Fp.buf_set b 1 a.Fp2.c1;
  Bytes.to_string (b :> Bytes.t)

let params =
  let x = Bytes.create 8 in
  Bytes.set_int64_le x 0 (Int64.of_int xi0);
  String.concat ""
    [ Fp.kernel_params; Bytes.to_string x; fp2_bytes gamma1; fp2_bytes gamma2;
      fp2_bytes gamma_w ]

(* ---------------- kernels ---------------- *)

(* [@@noalloc] is sound: the stubs never allocate, raise, call back into
   OCaml or release the lock.  Destinations are written last, so they may
   alias sources. *)
external c_mul : string -> t -> t -> t -> unit = "zkdet_fp12_mul" [@@noalloc]
external c_sqr : string -> t -> t -> unit = "zkdet_fp12_sqr" [@@noalloc]

external c_cyclotomic_sqr : string -> t -> t -> unit
  = "zkdet_fp12_cyclotomic_sqr"
[@@noalloc]

external c_conj : string -> t -> t -> unit = "zkdet_fp12_conj" [@@noalloc]

external c_frobenius : string -> t -> t -> int -> unit = "zkdet_fp12_frobenius"
[@@noalloc]

external c_mul_by_034 : string -> t -> t -> Fp.buf -> unit
  = "zkdet_fp12_mul_by_034"
[@@noalloc]

external c_cyclotomic_exp : string -> t -> t -> int array -> unit
  = "zkdet_fp12_cyclotomic_exp"
[@@noalloc]

(* The inverse's two halves around [Fp.inv]: (prm, a, scratch) and
   (prm, d, a, scratch); the scratch holds the norm chain in cells 0..8
   and the inverse of the Fp norm in cell 9. *)
external c_inv_begin : string -> t -> Fp.buf -> unit = "zkdet_fp12_inv_begin"
[@@noalloc]

external c_inv_end : string -> t -> t -> Fp.buf -> unit = "zkdet_fp12_inv_end"
[@@noalloc]

(* ---------------- values ---------------- *)

let create () = Fp.buf_create cells

let init f =
  let d = create () in
  for i = 0 to cells - 1 do
    Fp.buf_set d i (f i)
  done;
  d

let get (a : t) i =
  if i < 0 || i >= cells then invalid_arg "Fp12.get: coefficient out of range";
  Fp.buf_get a i

let zero = create ()
let one = init (fun i -> if i = 0 then Fp.one else Fp.zero)

let copy (a : t) =
  let d = create () in
  Fp.buf_blit a 0 d 0 cells;
  d

(* Cells are canonical, so bytes equality is value equality. *)
let equal (a : t) (b : t) = Bytes.equal (a :> Bytes.t) (b :> Bytes.t)
let is_zero a = equal a zero
let is_one a = equal a one

let unary k a =
  let d = create () in
  k params d a;
  d

let mul a b =
  let d = create () in
  c_mul params d a b;
  d

let sqr = unary c_sqr
let mul_into d a b = c_mul params d a b
let sqr_into d a = c_sqr params d a
let conj = unary c_conj
let cyclotomic_sqr = unary c_cyclotomic_sqr

let frobenius k a =
  if k < 0 then invalid_arg "Fp12.frobenius: negative power";
  let d = create () in
  c_frobenius params d a k;
  d

let mul_by_034 a (d0 : Fp2.t) (d3 : Fp2.t) (d4 : Fp2.t) =
  let line = Fp.buf_create 6 in
  List.iteri
    (fun i (x : Fp2.t) ->
      Fp.buf_set line (2 * i) x.c0;
      Fp.buf_set line ((2 * i) + 1) x.c1)
    [ d0; d3; d4 ];
  let d = create () in
  c_mul_by_034 params d a line;
  d

let inv a =
  let s = Fp.buf_create 10 in
  c_inv_begin params a s;
  Fp.buf_set s 9 (Fp.inv (Fp.buf_get s 8));
  let d = create () in
  c_inv_end params d a s;
  d

let cyclotomic_exp a digits =
  let n = Array.length digits in
  if n = 0 || digits.(n - 1) <> 1
     || Array.exists (fun d -> d < -1 || d > 1) digits
  then invalid_arg "Fp12.cyclotomic_exp: digits must be in {-1, 0, 1}, top 1";
  let d = create () in
  c_cyclotomic_exp params d a digits;
  d

let pow_nat x e =
  let acc = copy one in
  for i = Nat.num_bits e - 1 downto 0 do
    sqr_into acc acc;
    if Nat.testbit e i then mul_into acc acc x
  done;
  acc

let to_bytes a = String.concat "" (List.init cells (fun i -> Fp.to_bytes_be (get a i)))

let pp fmt a =
  let fp2 i = Fp2.make (get a (2 * i)) (get a ((2 * i) + 1)) in
  Format.fprintf fmt "{[%a, %a, %a]; [%a, %a, %a]}" Fp2.pp (fp2 0) Fp2.pp
    (fp2 1) Fp2.pp (fp2 2) Fp2.pp (fp2 3) Fp2.pp (fp2 4) Fp2.pp (fp2 5)
