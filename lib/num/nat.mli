(** Arbitrary-precision natural numbers.

    Little-endian limbs in base [2^26] stored in native-int arrays, so every
    limb product fits a 63-bit OCaml [int] with room to accumulate carries.
    This module is the substrate for deriving all field and curve parameters
    at program start; it is not used in proving hot paths (those use the
    fixed-width Montgomery representation of {!Zkdet_field}). *)

type t

val limb_bits : int
(** Number of bits per limb (26). *)

val zero : t
val one : t
val two : t

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val of_int : int -> t
(** [of_int n] converts a non-negative native int. Raises
    [Invalid_argument] on negatives. *)

val to_int : t -> int option
(** [to_int n] is [Some i] when [n] fits a native int. *)

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] requires [a >= b]; raises [Invalid_argument] otherwise. *)

val mul : t -> t -> t
val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. Raises [Division_by_zero] when
    [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val testbit : t -> int -> bool
(** [testbit n i] is bit [i] (little-endian) of [n]. *)

val num_bits : t -> int
(** [num_bits n] is the position of the highest set bit plus one;
    [num_bits zero = 0]. *)

val of_limbs : int array -> t
(** [of_limbs a] builds a value from base-[2^26] little-endian limbs.
    The array is copied and normalized. *)

val pow : t -> int -> t
(** [pow b e] is [b^e] for a small exponent [e >= 0]. *)

val of_decimal : string -> t
(** Parse a decimal string. Raises [Invalid_argument] on bad input. *)

val to_decimal : t -> string

val of_hex : string -> t
(** Parse a hex string (with or without ["0x"] prefix, case-insensitive). *)

val to_hex : t -> string

val of_bytes_be : string -> t
(** Interpret a big-endian byte string as a natural number. *)

val to_bytes_be : length:int -> t -> string
(** [to_bytes_be ~length n] is the big-endian encoding padded to exactly
    [length] bytes. Raises [Invalid_argument] if [n] does not fit. *)

val pp : Format.formatter -> t -> unit
