(* The prime field representation: flat 4x64-bit limbs in 32-byte Bytes.

   An element is a Bytes.t of exactly 32 bytes: four little-endian uint64
   limbs, value < p, Montgomery form (x*R mod p, R = 2^256).  A kernel
   buffer is one flat Bytes.t of n*32 bytes — n elements laid out
   contiguously, so batch loops (FFT butterflies, batch-affine bucket
   reduction) walk a single cache-friendly allocation instead of chasing
   one heap array per element.

   Arithmetic runs in a C stub (fp64_stubs.c, unsigned __int128 CIOS).  A
   pure-OCaml int64 kernel implementing the identical algorithm runs on
   big-endian hosts (see [use_c]); tests pin it on every host through
   Make_kernel.  The C stubs also run whole FFT layers ([buf_fft_layer],
   one call per layer chunk, with an OCaml twin on the buf ops); the
   curve layer's C stubs run G1's MSM and the pairing's tower on the same
   kernel through [kernel_params].  Montgomery constants are
   derived from the decimal modulus with Zkdet_num.Nat — no transcribed
   magic numbers.

   Exponentiation is one C call too ([pow_limbs]; the OCaml kernel keeps
   a square-and-multiply loop), so inv, sqrt and is_square each cost one
   call.  Derived operations (inv, sqrt, random, codecs, ...) come from
   Field_derived. *)

module Nat = Zkdet_num.Nat

(** [use_c = false] pins the pure-OCaml kernel; [true] uses the C stubs
    wherever the host is little-endian. *)
module type KERNEL = sig
  val use_c : bool
end

(* The C entry points take (prm, dst, doff, a, aoff, b, boff) with byte
   offsets; prm packs p[0..3], n0 = -p^-1 mod 2^64 and R mod p.
   [@@noalloc] is sound: the stubs never allocate, raise, call back into
   OCaml or release the lock. *)
external c_mul :
  Bytes.t -> Bytes.t -> int -> Bytes.t -> int -> Bytes.t -> int -> unit
  = "zkdet_fp64_mul_bc" "zkdet_fp64_mul"
[@@noalloc]

external c_add :
  Bytes.t -> Bytes.t -> int -> Bytes.t -> int -> Bytes.t -> int -> unit
  = "zkdet_fp64_add_bc" "zkdet_fp64_add"
[@@noalloc]

external c_sub :
  Bytes.t -> Bytes.t -> int -> Bytes.t -> int -> Bytes.t -> int -> unit
  = "zkdet_fp64_sub_bc" "zkdet_fp64_sub"
[@@noalloc]

(* (prm, dst, a, e): dst <- a^e, the exponent as little-endian 64-bit
   limbs; one call runs the whole exponentiation (mont4.h, mont_pow4). *)
external c_pow : Bytes.t -> Bytes.t -> Bytes.t -> string -> unit
  = "zkdet_fp64_pow"
[@@noalloc]

(* One radix-2 FFT layer: (prm, buf, tw, stride, half, blo, bhi, jlo,
   jhi); and the bit-reversal permutation: (buf, log2 length). *)
external c_fft_layer :
  Bytes.t -> Bytes.t -> Bytes.t -> int -> int -> int -> int -> int -> int ->
  unit = "zkdet_fp64_fft_layer_bc" "zkdet_fp64_fft_layer"
[@@noalloc]

external c_bit_reverse : Bytes.t -> int -> unit = "zkdet_fp64_bit_reverse"
[@@noalloc]

module Make_kernel (K : KERNEL) (M : Field_intf.MODULUS) : Field_intf.S =
struct
  module Core = struct
    let modulus = Nat.of_decimal M.modulus_decimal
    let num_bits = Nat.num_bits modulus
    let num_bytes = (num_bits + 7) / 8

    (* The interleaved no-carry CIOS reduction and the carry-free modular
       add both require headroom in the top limb. *)
    let () =
      if num_bits > 254 then
        invalid_arg "Fp64.Make: modulus must be at most 254 bits";
      if not (Nat.testbit modulus 0) then
        invalid_arg "Fp64.Make: modulus must be odd"

    let el_bytes = 32

    (* Little-endian 32-byte image of a Nat < 2^256. *)
    let le32_of_nat n =
      let be = Nat.to_bytes_be ~length:el_bytes n in
      let b = Bytes.create el_bytes in
      for i = 0 to el_bytes - 1 do
        Bytes.set b i be.[el_bytes - 1 - i]
      done;
      b

    let p_bytes = le32_of_nat modulus
    let r_nat = Nat.shift_left Nat.one 256
    let r2_bytes = le32_of_nat (Nat.rem (Nat.mul r_nat r_nat) modulus)
    let one_std = le32_of_nat Nat.one

    (* n0 = -p^-1 mod 2^64 by Newton iteration on wrapping int64. *)
    let n0 =
      let p0 = Bytes.get_int64_le p_bytes 0 in
      let inv = ref 1L in
      for _ = 1 to 6 do
        inv := Int64.mul !inv (Int64.sub 2L (Int64.mul p0 !inv))
      done;
      Int64.neg !inv

    (* Parameter block handed to the C stubs. *)
    let prm =
      let b = Bytes.create 72 in
      Bytes.blit p_bytes 0 b 0 el_bytes;
      Bytes.set_int64_le b el_bytes n0;
      Bytes.blit (le32_of_nat (Nat.rem r_nat modulus)) 0 b 40 el_bytes;
      b

    let pl0 = Bytes.get_int64_le p_bytes 0
    let pl1 = Bytes.get_int64_le p_bytes 8
    let pl2 = Bytes.get_int64_le p_bytes 16
    let pl3 = Bytes.get_int64_le p_bytes 24

    (* ------------------------------------------------------------------ *)
    (* Pure-OCaml int64 kernel (big-endian hosts; pinned by the tests). *)

    let mask32 = 0xFFFFFFFFL

    (* High 64 bits of the unsigned 64x64 product. *)
    let[@inline] umul_hi a b =
      let open Int64 in
      let al = logand a mask32 and ah = shift_right_logical a 32 in
      let bl = logand b mask32 and bh = shift_right_logical b 32 in
      let ll = mul al bl in
      let lh = mul al bh in
      let hl = mul ah bl in
      let hh = mul ah bh in
      let mid =
        add
          (add (shift_right_logical ll 32) (logand lh mask32))
          (logand hl mask32)
      in
      add
        (add hh (shift_right_logical lh 32))
        (add (shift_right_logical hl 32) (shift_right_logical mid 32))

    (* r + a*b as (lo, hi). *)
    let[@inline] mac r a b =
      let lo = Int64.mul a b in
      let hi = umul_hi a b in
      let s = Int64.add r lo in
      let hi = if Int64.unsigned_compare s lo < 0 then Int64.succ hi else hi in
      (s, hi)

    (* r + a*b + c as (lo, hi). *)
    let[@inline] macc r a b c =
      let lo = Int64.mul a b in
      let hi = umul_hi a b in
      let s = Int64.add r lo in
      let hi = if Int64.unsigned_compare s lo < 0 then Int64.succ hi else hi in
      let s2 = Int64.add s c in
      let hi = if Int64.unsigned_compare s2 s < 0 then Int64.succ hi else hi in
      (s2, hi)

    (* (a - b - borrow_in) with borrow_in/out in {0,1}. *)
    let[@inline] sbb a b borrow =
      let d = Int64.sub a b in
      let bo1 = if Int64.unsigned_compare a b < 0 then 1L else 0L in
      let d2 = Int64.sub d borrow in
      let bo2 = if Int64.unsigned_compare d borrow < 0 then 1L else 0L in
      (d2, Int64.add bo1 bo2)

    let[@inline] adc a b carry =
      let s = Int64.add a b in
      let c1 = if Int64.unsigned_compare s b < 0 then 1L else 0L in
      let s2 = Int64.add s carry in
      let c2 = if Int64.unsigned_compare s2 carry < 0 then 1L else 0L in
      (s2, Int64.add c1 c2)

    let[@inline] g b off i = Bytes.get_int64_le b (off + (8 * i))
    let[@inline] s b off i v = Bytes.set_int64_le b (off + (8 * i)) v

    (* Store (r0..r3) minus p if >= p, else as-is. *)
    let store_reduced dst doff r0 r1 r2 r3 =
      let s0, bo = sbb r0 pl0 0L in
      let s1, bo = sbb r1 pl1 bo in
      let s2, bo = sbb r2 pl2 bo in
      let s3, bo = sbb r3 pl3 bo in
      if Int64.equal bo 0L then begin
        s dst doff 0 s0; s dst doff 1 s1; s dst doff 2 s2; s dst doff 3 s3
      end
      else begin
        s dst doff 0 r0; s dst doff 1 r1; s dst doff 2 r2; s dst doff 3 r3
      end

    (* CIOS with interleaved no-carry reduction; same structure as the C
       kernel in fp64_stubs.c. *)
    let ml_mul_row r0 r1 r2 r3 ai b0 b1 b2 b3 =
      let t0, c = mac r0 ai b0 in
      let t1, c = macc r1 ai b1 c in
      let t2, c = macc r2 ai b2 c in
      let t3, c = macc r3 ai b3 c in
      let t4 = c in
      let m = Int64.mul t0 n0 in
      let _, c = mac t0 m pl0 in
      let r0, c = macc t1 m pl1 c in
      let r1, c = macc t2 m pl2 c in
      let r2, c = macc t3 m pl3 c in
      let r3 = Int64.add t4 c in
      (r0, r1, r2, r3)

    let ml_mul dst doff a aoff b boff =
      let b0 = g b boff 0 and b1 = g b boff 1
      and b2 = g b boff 2 and b3 = g b boff 3 in
      let r0, r1, r2, r3 =
        ml_mul_row 0L 0L 0L 0L (g a aoff 0) b0 b1 b2 b3
      in
      let r0, r1, r2, r3 = ml_mul_row r0 r1 r2 r3 (g a aoff 1) b0 b1 b2 b3 in
      let r0, r1, r2, r3 = ml_mul_row r0 r1 r2 r3 (g a aoff 2) b0 b1 b2 b3 in
      let r0, r1, r2, r3 = ml_mul_row r0 r1 r2 r3 (g a aoff 3) b0 b1 b2 b3 in
      store_reduced dst doff r0 r1 r2 r3

    let ml_add dst doff a aoff b boff =
      let r0, c = adc (g a aoff 0) (g b boff 0) 0L in
      let r1, c = adc (g a aoff 1) (g b boff 1) c in
      let r2, c = adc (g a aoff 2) (g b boff 2) c in
      let r3, _ = adc (g a aoff 3) (g b boff 3) c in
      (* a + b < 2p < 2^255: no carry out of the top limb. *)
      store_reduced dst doff r0 r1 r2 r3

    let ml_sub dst doff a aoff b boff =
      let r0, bo = sbb (g a aoff 0) (g b boff 0) 0L in
      let r1, bo = sbb (g a aoff 1) (g b boff 1) bo in
      let r2, bo = sbb (g a aoff 2) (g b boff 2) bo in
      let r3, bo = sbb (g a aoff 3) (g b boff 3) bo in
      if Int64.equal bo 0L then begin
        s dst doff 0 r0; s dst doff 1 r1; s dst doff 2 r2; s dst doff 3 r3
      end
      else begin
        let r0, c = adc r0 pl0 0L in
        let r1, c = adc r1 pl1 c in
        let r2, c = adc r2 pl2 c in
        let r3, _ = adc r3 pl3 c in
        s dst doff 0 r0; s dst doff 1 r1; s dst doff 2 r2; s dst doff 3 r3
      end

    (* ------------------------------------------------------------------ *)

    (* The C stubs read the little-endian layout on any host (mont4.h
       swaps on a big-endian one), but only little-endian hosts have run
       them; big-endian hosts keep the explicit-endianness OCaml kernel.
       The pairing's tower (lib/curve/tower_stubs.c) runs in C on both. *)
    let use_c = K.use_c && not Sys.big_endian

    let mul_off : Bytes.t -> int -> Bytes.t -> int -> Bytes.t -> int -> unit =
      if use_c then fun dst doff a aoff b boff ->
        c_mul prm dst doff a aoff b boff
      else ml_mul

    let add_off =
      if use_c then fun dst doff a aoff b boff ->
        c_add prm dst doff a aoff b boff
      else ml_add

    let sub_off =
      if use_c then fun dst doff a aoff b boff ->
        c_sub prm dst doff a aoff b boff
      else ml_sub

    type t = Bytes.t (* exactly 32 bytes, value < p, Montgomery form *)

    let zero = Bytes.make el_bytes '\000'

    (* equal/is_zero: the representation is canonical (< p), so limb
       comparison is value comparison. *)
    let equal (a : t) (b : t) = Bytes.equal a b
    let is_zero (a : t) = Bytes.equal a zero

    let of_nat n =
      let std = le32_of_nat (Nat.rem n modulus) in
      let r = Bytes.create el_bytes in
      mul_off r 0 std 0 r2_bytes 0;
      r

    (* Montgomery form times 1 is the canonical value, already in the
       little-endian limb layout.  The kernels do not bounds-check. *)
    let to_limbs_le (a : t) (dst : Bytes.t) =
      if Bytes.length dst < el_bytes then
        invalid_arg "Fp64.to_limbs_le: destination shorter than 32 bytes";
      mul_off dst 0 a 0 one_std 0

    let one = of_nat Nat.one

    let mul (a : t) (b : t) : t =
      let r = Bytes.create el_bytes in
      mul_off r 0 a 0 b 0;
      r

    let sqr a = mul a a

    (* The OCaml kernel's exponentiation: square-and-multiply over the
       exponent's bits, top set bit first, in place on the result. *)
    let ml_pow r a e =
      let bit i = (Char.code e.[i lsr 3] lsr (i land 7)) land 1 = 1 in
      let top = ref ((8 * String.length e) - 1) in
      while !top >= 0 && not (bit !top) do
        decr top
      done;
      Bytes.blit one 0 r 0 el_bytes;
      for i = !top downto 0 do
        ml_mul r 0 r 0 r 0;
        if bit i then ml_mul r 0 r 0 a 0
      done

    let pow_limbs (a : t) (e : string) : t =
      if String.length e mod 8 <> 0 then
        invalid_arg "Fp64.pow_limbs: exponent is not whole 64-bit limbs";
      let r = Bytes.create el_bytes in
      if use_c then c_pow prm r a e else ml_pow r a e;
      r

    let add (a : t) (b : t) : t =
      let r = Bytes.create el_bytes in
      add_off r 0 a 0 b 0;
      r

    let sub (a : t) (b : t) : t =
      let r = Bytes.create el_bytes in
      sub_off r 0 a 0 b 0;
      r

    let double a = add a a
    let neg a = if is_zero a then a else sub zero a

    type buf = Bytes.t (* n contiguous 32-byte elements *)

    let buf_create n = Bytes.make (n * el_bytes) '\000'
    let buf_length (b : buf) = Bytes.length b / el_bytes
    let buf_get (b : buf) i : t = Bytes.sub b (i * el_bytes) el_bytes
    let buf_set (b : buf) i (v : t) = Bytes.blit v 0 b (i * el_bytes) el_bytes

    let buf_blit (src : buf) spos (dst : buf) dpos len =
      Bytes.blit src (spos * el_bytes) dst (dpos * el_bytes) (len * el_bytes)

    let buf_of_array (a : t array) : buf =
      let b = buf_create (Array.length a) in
      Array.iteri (fun i v -> buf_set b i v) a;
      b

    let buf_to_array (b : buf) : t array =
      Array.init (buf_length b) (buf_get b)

    let buf_mul (d : buf) i (a : buf) j (b : buf) k =
      mul_off d (i * el_bytes) a (j * el_bytes) b (k * el_bytes)

    let buf_sqr (d : buf) i (a : buf) j =
      mul_off d (i * el_bytes) a (j * el_bytes) a (j * el_bytes)

    let buf_add (d : buf) i (a : buf) j (b : buf) k =
      add_off d (i * el_bytes) a (j * el_bytes) b (k * el_bytes)

    let buf_sub (d : buf) i (a : buf) j (b : buf) k =
      sub_off d (i * el_bytes) a (j * el_bytes) b (k * el_bytes)

    let buf_double (d : buf) i (a : buf) j =
      add_off d (i * el_bytes) a (j * el_bytes) a (j * el_bytes)

    let buf_is_zero_off (b : buf) off =
      Int64.equal (Bytes.get_int64_le b off) 0L
      && Int64.equal (Bytes.get_int64_le b (off + 8)) 0L
      && Int64.equal (Bytes.get_int64_le b (off + 16)) 0L
      && Int64.equal (Bytes.get_int64_le b (off + 24)) 0L

    let buf_is_zero (b : buf) i = buf_is_zero_off b (i * el_bytes)

    let buf_neg (d : buf) i (a : buf) j =
      if buf_is_zero_off a (j * el_bytes) then
        Bytes.fill d (i * el_bytes) el_bytes '\000'
      else sub_off d (i * el_bytes) zero 0 a (j * el_bytes)

    let buf_equal (a : buf) i (b : buf) j =
      let ao = i * el_bytes and bo = j * el_bytes in
      let rec go k =
        k = 4
        || Int64.equal
             (Bytes.get_int64_le a (ao + (8 * k)))
             (Bytes.get_int64_le b (bo + (8 * k)))
           && go (k + 1)
      in
      go 0

  end

  include Core
  include Field_derived.Make (Core)

  let kernel_params = Bytes.to_string prm

  (* The FFT layer and bit reversal trust their arguments too: every
     index they touch must be a cell of its buffer. *)
  let check_layer_shapes b tw ~stride ~half ~blo ~bhi ~jlo ~jhi =
    let n = buf_length b and ntw = buf_length tw in
    if half < 1 || half > n / 2 || blo < 0 || blo > bhi
       || bhi > n / (2 * half)
    then invalid_arg "Fp64.buf_fft_layer: blocks out of range";
    if jlo < 0 || jlo > jhi || jhi > half || stride < 0 then
      invalid_arg "Fp64.buf_fft_layer: butterflies out of range";
    if jhi > jlo && (ntw < 1 || (stride > 0 && jhi - 1 > (ntw - 1) / stride))
    then invalid_arg "Fp64.buf_fft_layer: twiddle table too small"

  (* The pure-OCaml layer: the C loop on this kernel's buf ops. *)
  let ml_fft_layer b tw ~stride ~half ~blo ~bhi ~jlo ~jhi =
    let v = buf_create 1 in
    for blk = blo to bhi - 1 do
      let lo = 2 * half * blk in
      let hi = lo + half in
      for j = jlo to jhi - 1 do
        buf_mul v 0 b (hi + j) tw (j * stride);
        buf_sub b (hi + j) b (lo + j) v 0;
        buf_add b (lo + j) b (lo + j) v 0
      done
    done

  let buf_fft_layer b ~tw ~stride ~half ~blo ~bhi ~jlo ~jhi =
    check_layer_shapes b tw ~stride ~half ~blo ~bhi ~jlo ~jhi;
    if use_c then c_fft_layer prm b tw stride half blo bhi jlo jhi
    else ml_fft_layer b tw ~stride ~half ~blo ~bhi ~jlo ~jhi

  let ml_bit_reverse b bits =
    let t = buf_create 1 in
    for i = 0 to (1 lsl bits) - 1 do
      let j = ref 0 in
      for k = 0 to bits - 1 do
        if i land (1 lsl k) <> 0 then j := !j lor (1 lsl (bits - 1 - k))
      done;
      if i < !j then begin
        buf_blit b i t 0 1;
        buf_blit b !j b i 1;
        buf_blit t 0 b !j 1
      end
    done

  let buf_bit_reverse b =
    let n = buf_length b in
    if n < 1 || n land (n - 1) <> 0 then
      invalid_arg "Fp64.buf_bit_reverse: length is not a power of two";
    let bits =
      let rec go k = if 1 lsl k = n then k else go (k + 1) in
      go 0
    in
    if use_c then c_bit_reverse b bits else ml_bit_reverse b bits
end

module Make (M : Field_intf.MODULUS) = Make_kernel (struct
  let use_c = true
end) (M)
