(** Signatures of prime fields and their kernel buffer layer.

    {!Fp64.Make} implements {!S}: flat 4x64-bit limbs packed little-endian
    into 32-byte [Bytes], with unrolled 4-limb CIOS Montgomery
    multiplication in a C stub (pure-OCaml int64 kernel on big-endian
    hosts).

    Everything above the field layer sees only these signatures: wire
    encodings go through [to_bytes_be]/[of_bytes_be_canonical] (canonical
    big-endian integers), so proof bytes, state hashes and golden vectors
    do not depend on the in-memory representation. *)

module type MODULUS = sig
  val modulus_decimal : string
end

(** The representation-specific core a field implementation must
    provide.  All remaining operations of {!S} are derived by
    {!Field_derived.Make}: inversion chains, Tonelli-Shanks paths, and
    the [Random.State] consumption pattern of [random], which blinding
    factors and SRS generation depend on. *)
module type CORE = sig
  type t

  val modulus : Zkdet_num.Nat.t
  val num_bits : int
  val num_bytes : int

  val zero : t
  val one : t

  val equal : t -> t -> bool
  val is_zero : t -> bool

  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val mul : t -> t -> t
  val sqr : t -> t
  val double : t -> t

  val of_nat : Zkdet_num.Nat.t -> t

  val to_limbs_le : t -> Bytes.t -> unit
  (** [to_limbs_le a dst] writes the canonical value of [a] (in
      [[0, modulus)], not the internal form) into bytes [0..31] of [dst]
      as four little-endian 64-bit limbs, so bit [i] of the value is bit
      [i mod 8] of byte [i / 8].  It allocates nothing; a [dst] shorter
      than 32 bytes raises [Invalid_argument].  Scalar digits and bit
      reads in the curve layer use it instead of a {!Zkdet_num.Nat.t}
      round trip. *)

  (** {2 Flat kernel buffers}

      [buf] is the primary storage story for batch inner loops: a flat,
      contiguous block of [n] field elements addressed by index (for
      {!Fp64} a single [Bytes] of [n * 32] bytes: cache friendly, no
      per-element boxing).  Every operand of every operation is a
      [(buf, index)] pair, so no op allocates or exposes an aliasing
      intermediate value.

      The storage is visible, read-only, to native kernels outside this
      library (the pairing's tower in the curve layer): cell [i] is bytes
      [32 i .. 32 i + 31], four little-endian 64-bit limbs of the value in
      Montgomery form ([x R mod p], [R = 2^256]).  Such a kernel takes
      {!S.kernel_params} with the buffers it reads and writes. *)

  type buf = private Bytes.t

  val buf_create : int -> buf
  (** [buf_create n] is a buffer of [n] cells, all zero. *)

  val buf_length : buf -> int
  val buf_get : buf -> int -> t
  (** [buf_get b i] copies cell [i] out as a fresh field element. *)

  val buf_set : buf -> int -> t -> unit

  val buf_blit : buf -> int -> buf -> int -> int -> unit
  (** [buf_blit src spos dst dpos len] copies [len] cells; [src] and
      [dst] may be the same buffer (overlaps handled correctly). *)

  val buf_of_array : t array -> buf
  val buf_to_array : buf -> t array

  val buf_mul : buf -> int -> buf -> int -> buf -> int -> unit
  (** [buf_mul dst i a j b k] sets [dst[i] <- a[j] * b[k]].  Any operands
      may alias (including [dst] with [a]/[b]). *)

  val buf_sqr : buf -> int -> buf -> int -> unit
  val buf_add : buf -> int -> buf -> int -> buf -> int -> unit
  val buf_sub : buf -> int -> buf -> int -> buf -> int -> unit
  val buf_double : buf -> int -> buf -> int -> unit
  val buf_neg : buf -> int -> buf -> int -> unit
  val buf_is_zero : buf -> int -> bool
  val buf_equal : buf -> int -> buf -> int -> bool
end

(** Full field signature: {!CORE} plus the derived operations. *)
module type S = sig
  include CORE

  val to_nat : t -> Zkdet_num.Nat.t

  val of_int : int -> t
  (** [of_int n] maps any native int into the field (negatives wrap). *)

  val of_string : string -> t
  (** Decimal string, reduced mod the modulus. *)

  val to_string : t -> string

  val of_bytes_be : string -> t
  (** Big-endian bytes, reduced mod the modulus. *)

  val to_bytes_be : t -> string
  (** Fixed-width ([num_bytes]) big-endian encoding. *)

  val of_bytes_be_canonical : string -> (t, string) result
  (** Strict decoder for untrusted input: requires exactly [num_bytes]
      big-endian bytes denoting a value [< modulus].  Unlike
      {!of_bytes_be} it never reduces. *)

  val codec : t Zkdet_codec.Codec.t
  (** Canonical wire codec: fixed-width big-endian via
      {!to_bytes_be} / {!of_bytes_be_canonical}.  Deliberately
      representation-independent. *)

  val is_one : t -> bool

  val inv : t -> t
  (** Multiplicative inverse. Raises [Division_by_zero] on zero. *)

  val div : t -> t -> t

  val batch_inv : t array -> t array
  (** Invert many elements with one field inversion (Montgomery's trick).
      Raises [Division_by_zero] if any element is zero. *)

  val buf_batch_inv0 : scratch:buf -> buf -> int -> unit
  (** [buf_batch_inv0 ~scratch buf n] replaces the first [n] cells of
      [buf] by their inverses with a single true inversion.  Zero cells
      are skipped and stay zero — batch users treat zero as an "absent"
      marker rather than an error.  [scratch] must have at least [n + 2]
      cells. *)

  val pow : t -> int -> t
  (** [pow x e] for a native-int exponent [e >= 0]. *)

  val pow_nat : t -> Zkdet_num.Nat.t -> t

  val is_square : t -> bool
  val sqrt : t -> t option

  val random : Random.State.t -> t
  (** Uniform field element.  The [Random.State] consumption pattern is
      part of the interface contract (one draw per 26-bit limb of the
      value, rejecting values [>= modulus]), so seeded randomness — SRS
      generation, proof blinding — produces a fixed stream. *)

  val pp : Format.formatter -> t -> unit
  val compare : t -> t -> int

  val buf_fft_layer :
    buf ->
    tw:buf ->
    stride:int ->
    half:int ->
    blo:int ->
    bhi:int ->
    jlo:int ->
    jhi:int ->
    unit
  (** One radix-2 layer of an in-place FFT, or the [\[blo, bhi)] x
      [\[jlo, jhi)] part of it.  The buffer is cut into blocks of
      [2 * half] cells; for every block [b] in [\[blo, bhi)] and
      butterfly [j] in [\[jlo, jhi)], with [i = 2 * half * b + j],
      [u = buf[i]] and [v = buf[i + half] * tw[j * stride]], it sets
      [buf[i] <- u + v] and [buf[i + half] <- u - v].  Different blocks
      and different butterflies touch different cells, so disjoint parts
      may run concurrently.  [tw] cell 0 must be one.  Shapes are checked
      and a bad one raises [Invalid_argument]. *)

  val buf_bit_reverse : buf -> unit
  (** Permute a buffer of [2^k] cells into bit-reversed index order;
      raises [Invalid_argument] when the length is not a power of two. *)

  val kernel_params : string
  (** The 72-byte parameter block of the field's C kernels: the modulus
      as four little-endian 64-bit limbs, [n0 = -p^-1 mod 2^64], then
      [R mod p] (the Montgomery form of one).  Native kernels elsewhere
      pass it to the shared Montgomery kernel ([mont4.h]) with the
      [buf] storage above. *)
end
