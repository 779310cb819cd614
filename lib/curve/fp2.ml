(* Fp2 = Fp[u] / (u^2 + 1). BN254 has p = 3 mod 4 so -1 is a non-residue. *)

module Fp = Zkdet_field.Bn254.Fp
module Nat = Zkdet_num.Nat

type t = { c0 : Fp.t; c1 : Fp.t }

let make c0 c1 = { c0; c1 }
let zero = { c0 = Fp.zero; c1 = Fp.zero }
let one = { c0 = Fp.one; c1 = Fp.zero }
let of_fp c0 = { c0; c1 = Fp.zero }
let of_int n = of_fp (Fp.of_int n)

let equal a b = Fp.equal a.c0 b.c0 && Fp.equal a.c1 b.c1
let is_zero a = equal a zero
let is_one a = equal a one

let add a b = { c0 = Fp.add a.c0 b.c0; c1 = Fp.add a.c1 b.c1 }
let sub a b = { c0 = Fp.sub a.c0 b.c0; c1 = Fp.sub a.c1 b.c1 }
let neg a = { c0 = Fp.neg a.c0; c1 = Fp.neg a.c1 }
let double a = add a a

let mul a b =
  (* Karatsuba: (a0 + a1 u)(b0 + b1 u) = (a0b0 - a1b1) + ((a0+a1)(b0+b1) - a0b0 - a1b1) u *)
  let v0 = Fp.mul a.c0 b.c0 in
  let v1 = Fp.mul a.c1 b.c1 in
  let s = Fp.mul (Fp.add a.c0 a.c1) (Fp.add b.c0 b.c1) in
  { c0 = Fp.sub v0 v1; c1 = Fp.sub (Fp.sub s v0) v1 }

let sqr a =
  (* (a0 + a1 u)^2 = (a0+a1)(a0-a1) + 2 a0 a1 u *)
  let t = Fp.mul (Fp.add a.c0 a.c1) (Fp.sub a.c0 a.c1) in
  { c0 = t; c1 = Fp.double (Fp.mul a.c0 a.c1) }

let scale_fp a (k : Fp.t) = { c0 = Fp.mul a.c0 k; c1 = Fp.mul a.c1 k }

let inv a =
  let norm = Fp.add (Fp.sqr a.c0) (Fp.sqr a.c1) in
  let ninv = Fp.inv norm in
  { c0 = Fp.mul a.c0 ninv; c1 = Fp.neg (Fp.mul a.c1 ninv) }

(* The kernel buffer API, mirrored from Field_intf so Fp2 can also back
   the curve layer's batch-affine kernels.  A buffer is a pair of flat Fp
   component buffers plus four private Fp scratch cells for the Karatsuba
   intermediates, so every operation is truly in place: the G2 MSM shares
   the allocation-free path G1 has, with no per-op Fp2 records.

   Operand discipline matches Field_intf.CORE: every operand is a
   (buf, index) pair and destinations may alias sources — all reads of
   [a]/[b] components complete (into scratch) before any write to [d]. *)

type buf = { re : Fp.buf; im : Fp.buf; k : Fp.buf (* 4 scratch cells *) }

let buf_create n = { re = Fp.buf_create n; im = Fp.buf_create n; k = Fp.buf_create 4 }
let buf_length b = Fp.buf_length b.re
let buf_get b i = { c0 = Fp.buf_get b.re i; c1 = Fp.buf_get b.im i }

let buf_set b i v =
  Fp.buf_set b.re i v.c0;
  Fp.buf_set b.im i v.c1

let buf_blit src spos dst dpos len =
  Fp.buf_blit src.re spos dst.re dpos len;
  Fp.buf_blit src.im spos dst.im dpos len

let buf_of_array (a : t array) : buf =
  let b = buf_create (Array.length a) in
  Array.iteri (fun i v -> buf_set b i v) a;
  b

let buf_to_array (b : buf) : t array = Array.init (buf_length b) (buf_get b)

let buf_mul d i a j b k =
  (* Karatsuba through the scratch cells of [d]:
     v0 = a0*b0, v1 = a1*b1, s = (a0+a1)(b0+b1);
     d0 = v0 - v1, d1 = s - v0 - v1. *)
  let t = d.k in
  Fp.buf_mul t 0 a.re j b.re k;
  Fp.buf_mul t 1 a.im j b.im k;
  Fp.buf_add t 2 a.re j a.im j;
  Fp.buf_add t 3 b.re k b.im k;
  Fp.buf_mul t 2 t 2 t 3;
  Fp.buf_sub d.re i t 0 t 1;
  Fp.buf_sub t 2 t 2 t 0;
  Fp.buf_sub d.im i t 2 t 1

let buf_sqr d i a j =
  (* (a0+a1)(a0-a1) + 2 a0 a1 u *)
  let t = d.k in
  Fp.buf_add t 0 a.re j a.im j;
  Fp.buf_sub t 1 a.re j a.im j;
  Fp.buf_mul t 2 a.re j a.im j;
  Fp.buf_mul d.re i t 0 t 1;
  Fp.buf_double d.im i t 2

let buf_add d i a j b k =
  Fp.buf_add d.re i a.re j b.re k;
  Fp.buf_add d.im i a.im j b.im k

let buf_sub d i a j b k =
  Fp.buf_sub d.re i a.re j b.re k;
  Fp.buf_sub d.im i a.im j b.im k

let buf_double d i a j =
  Fp.buf_double d.re i a.re j;
  Fp.buf_double d.im i a.im j

let buf_neg d i a j =
  Fp.buf_neg d.re i a.re j;
  Fp.buf_neg d.im i a.im j

let buf_is_zero b i = Fp.buf_is_zero b.re i && Fp.buf_is_zero b.im i

let buf_equal a i b j =
  Fp.buf_equal a.re i b.re j && Fp.buf_equal a.im i b.im j

let buf_batch_inv0 ~(scratch : buf) (b : buf) (n : int) : unit =
  if n > 0 then begin
    (* Same shape as Field_derived.buf_batch_inv0: scratch cell i holds
       the prefix product of nonzero cells before i, cell n the running
       product, cell n+1 the running inverse. *)
    buf_set scratch n one;
    for i = 0 to n - 1 do
      buf_blit scratch n scratch i 1;
      if not (buf_is_zero b i) then buf_mul scratch n scratch n b i
    done;
    buf_set scratch (n + 1) (inv (buf_get scratch n));
    for i = n - 1 downto 0 do
      if not (buf_is_zero b i) then begin
        buf_mul scratch n scratch (n + 1) scratch i;
        buf_mul scratch (n + 1) scratch (n + 1) b i;
        buf_blit scratch n b i 1
      end
    done
  end

let conj a = { a with c1 = Fp.neg a.c1 }

(* x^p = conj(x) since u^p = u^(p-1) u = (u^2)^((p-1)/2) u = (-1)^((p-1)/2) u
   and p = 3 mod 4. *)
let frobenius = conj

(* The sextic non-residue xi = 9 + u used to build Fp6/Fp12 and the twist. *)
let xi = { c0 = Fp.of_int 9; c1 = Fp.one }

let mul_by_xi a =
  (* (9 + u)(a0 + a1 u) = (9 a0 - a1) + (a0 + 9 a1) u *)
  let nine_a0 = Fp.add (Fp.double (Fp.double (Fp.double a.c0))) a.c0 in
  let nine_a1 = Fp.add (Fp.double (Fp.double (Fp.double a.c1))) a.c1 in
  { c0 = Fp.sub nine_a0 a.c1; c1 = Fp.add a.c0 nine_a1 }

let pow_nat x e =
  let nbits = Nat.num_bits e in
  if nbits = 0 then one
  else begin
    let acc = ref one in
    for i = nbits - 1 downto 0 do
      acc := sqr !acc;
      if Nat.testbit e i then acc := mul !acc x
    done;
    !acc
  end

let random st = { c0 = Fp.random st; c1 = Fp.random st }

(* Square root for p = 3 mod 4 via the norm trick: for a = a0 + a1 u a
   root x = x0 + x1 u satisfies x0^2 = (a0 +- sqrt(a0^2 + a1^2)) / 2 and
   x1 = a1 / (2 x0). Every candidate is verified by squaring, so a wrong
   branch can never escape. *)
let sqrt a =
  let verify c = if equal (sqr c) a then Some c else None in
  if is_zero a then Some zero
  else if Fp.is_zero a.c1 then
    match Fp.sqrt a.c0 with
    | Some r -> verify (of_fp r)
    | None -> (
      (* -1 is a non-residue, so exactly one of a0 and -a0 is a square;
         sqrt(a0) = sqrt(-a0) * u. *)
      match Fp.sqrt (Fp.neg a.c0) with
      | Some r -> verify { c0 = Fp.zero; c1 = r }
      | None -> None)
  else
    let norm = Fp.add (Fp.sqr a.c0) (Fp.sqr a.c1) in
    match Fp.sqrt norm with
    | None -> None
    | Some delta ->
      let half = Fp.inv (Fp.of_int 2) in
      let branch d =
        let x0sq = Fp.mul (Fp.add a.c0 d) half in
        match Fp.sqrt x0sq with
        | None -> None
        | Some x0 when Fp.is_zero x0 -> None
        | Some x0 ->
          let x1 = Fp.mul a.c1 (Fp.inv (Fp.double x0)) in
          verify { c0 = x0; c1 = x1 }
      in
      (match branch delta with Some r -> Some r | None -> branch (Fp.neg delta))

let is_square a = match sqrt a with Some _ -> true | None -> false

(* Sign convention for point compression: the parity of c0, falling back
   to c1 when c0 = 0. Negation flips it for every non-zero element (p is
   odd), which is all compression needs. *)
let parity a =
  let fp_parity x =
    let limbs = Bytes.create 32 in
    Fp.to_limbs_le x limbs;
    Char.code (Bytes.get limbs 0) land 1 = 1
  in
  if Fp.is_zero a.c0 then fp_parity a.c1 else fp_parity a.c0

let num_bytes = 2 * Fp.num_bytes

let to_bytes a = Fp.to_bytes_be a.c0 ^ Fp.to_bytes_be a.c1

let of_bytes s =
  let w = Fp.num_bytes in
  if String.length s <> 2 * w then invalid_arg "Fp2.of_bytes: bad length";
  { c0 = Fp.of_bytes_be (String.sub s 0 w); c1 = Fp.of_bytes_be (String.sub s w w) }

let of_bytes_canonical s =
  let w = Fp.num_bytes in
  if String.length s <> 2 * w then Error "Fp2 element must be 64 bytes"
  else
    match
      ( Fp.of_bytes_be_canonical (String.sub s 0 w),
        Fp.of_bytes_be_canonical (String.sub s w w) )
    with
    | Ok c0, Ok c1 -> Ok { c0; c1 }
    | Error e, _ | _, Error e -> Error e

let pp fmt a = Format.fprintf fmt "(%a + %a*u)" Fp.pp a.c0 Fp.pp a.c1
