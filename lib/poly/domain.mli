(** Multiplicative-subgroup evaluation domains over the BN254 scalar
    field, with radix-2 (I)FFT and the coset variants used by the Plonk
    quotient computation. *)

module Fr = Zkdet_field.Bn254.Fr

type t

val create : int -> t
(** [create log2size]; raises [Invalid_argument] beyond the field's
    2-adicity (28). *)

val size : t -> int
val log2size : t -> int
val omega : t -> Fr.t

val shift : t -> Fr.t
(** The coset generator used by [coset_fft_buf]; guaranteed outside the
    subgroup. *)

val element : t -> int -> Fr.t
(** [element d i] = omega^i. *)

val elements : t -> Fr.t array

val buf_of_coeffs : t -> Fr.t array -> Fr.buf
(** Load a coefficient vector into a fresh domain-sized flat buffer
    (zero padded); raises [Invalid_argument] if larger than the domain. *)

val fft_buf : t -> Fr.buf -> unit
(** In-place transforms over domain-sized flat buffers.  [fft_buf]
    takes coefficients to evaluations in order omega^0, omega^1, ...;
    [ifft_buf] inverts it; the coset variants evaluate on (shift * H)
    and back.  All raise [Invalid_argument] when the buffer length is
    not the domain size.  The first transform of a size builds that
    size's twiddle and coset tables, shared by every domain of the size
    (safe from any pool worker). *)

val ifft_buf : t -> Fr.buf -> unit
val coset_fft_buf : t -> Fr.buf -> unit
val coset_ifft_buf : t -> Fr.buf -> unit

val vanishing_eval : t -> Fr.t -> Fr.t
(** Z_H(x) = x^n - 1. *)

val lagrange_eval : t -> int -> Fr.t -> Fr.t
(** L_i(x) for x outside the domain. *)

val lagrange_evals : t -> zh:Fr.t -> int -> Fr.t -> Fr.t array
(** [lagrange_evals d ~zh k x] is [[| L_0(x); ...; L_(k-1)(x) |]] for x
    outside the domain: the same field elements as {!lagrange_eval}, for
    one inversion in all.  [zh] must be [vanishing_eval d x], which a
    verifier already holds.  Raises [Division_by_zero] when x is in the
    domain. *)
