(* Field operations derived once from Field_intf.CORE: exponentiation
   chains, inversion, Tonelli-Shanks square roots (including the
   non-residue search), batch inversion, byte codecs and the
   Random.State consumption pattern of [random].  Proof bytes and golden
   vectors depend on these algorithms, not on the limb representation. *)

module Nat = Zkdet_num.Nat

module Make (C : Field_intf.CORE) = struct
  open C

  let is_one a = equal a one

  let of_int n =
    if n >= 0 then of_nat (Nat.of_int n)
    else sub zero (of_nat (Nat.of_int (-n)))

  (* The canonical value as 32 big-endian bytes, straight from the
     limbs. *)
  let be32 a =
    let le = Bytes.create 32 in
    to_limbs_le a le;
    Bytes.init 32 (fun i -> Bytes.get le (31 - i))

  let to_nat a = Nat.of_bytes_be (Bytes.unsafe_to_string (be32 a))
  let of_string s = of_nat (Nat.of_decimal s)
  let to_string a = Nat.to_decimal (to_nat a)
  let of_bytes_be s = of_nat (Nat.of_bytes_be s)
  let to_bytes_be a = Bytes.sub_string (be32 a) (32 - num_bytes) num_bytes

  let of_bytes_be_canonical s =
    if String.length s <> num_bytes then
      Error
        (Printf.sprintf "field element must be %d bytes, got %d" num_bytes
           (String.length s))
    else
      let n = Nat.of_bytes_be s in
      if Nat.compare n modulus >= 0 then
        Error "field element not canonical (>= modulus)"
      else Ok (of_nat n)

  let codec =
    Zkdet_codec.Codec.(
      with_context "field"
        (conv to_bytes_be of_bytes_be_canonical (bytes_fixed num_bytes)))

  (* An exponent's bits, top bit first; the fixed exponents below read
     theirs once per field. *)
  let exponent_bits e =
    let n = Nat.num_bits e in
    Array.init n (fun i -> Nat.testbit e (n - 1 - i))

  (* Square-and-multiply on one 2-cell scratch buffer (cell 0 holds x,
     cell 1 the running power): only the buffer and the result are
     allocated, not a value per step. *)
  let pow_bits x (bits : bool array) =
    let s = buf_create 2 in
    buf_set s 0 x;
    buf_set s 1 one;
    Array.iter
      (fun b ->
        buf_sqr s 1 s 1;
        if b then buf_mul s 1 s 1 s 0)
      bits;
    buf_get s 1

  let pow_nat x e = pow_bits x (exponent_bits e)

  let pow x e =
    if e < 0 then invalid_arg "Field.pow: negative exponent";
    pow_nat x (Nat.of_int e)

  let p_minus_2_bits = exponent_bits (Nat.sub modulus Nat.two)

  let inv a =
    if is_zero a then raise Division_by_zero;
    pow_bits a p_minus_2_bits

  let div a b = mul a (inv b)

  (* Montgomery's batch-inversion trick: n inversions for the price of one
     plus 3n multiplications. Zero entries raise. *)
  let batch_inv (xs : t array) : t array =
    let n = Array.length xs in
    if n = 0 then [||]
    else begin
      let prefix = Array.make n one in
      let acc = ref one in
      for i = 0 to n - 1 do
        prefix.(i) <- !acc;
        acc := mul !acc xs.(i)
      done;
      let inv_acc = ref (inv !acc) in
      let out = Array.make n one in
      for i = n - 1 downto 0 do
        out.(i) <- mul !inv_acc prefix.(i);
        inv_acc := mul !inv_acc xs.(i)
      done;
      out
    end

  let buf_batch_inv0 ~(scratch : buf) (b : buf) (n : int) : unit =
    if n > 0 then begin
      (* scratch cell i holds the prefix product of nonzero cells before i;
         cell n the running product, cell n+1 the running inverse. *)
      buf_set scratch n one;
      for i = 0 to n - 1 do
        buf_blit scratch n scratch i 1;
        if not (buf_is_zero b i) then buf_mul scratch n scratch n b i
      done;
      buf_set scratch (n + 1) (inv (buf_get scratch n));
      for i = n - 1 downto 0 do
        if not (buf_is_zero b i) then begin
          buf_mul scratch n scratch (n + 1) scratch i;
          (* Fold the original cell into the running inverse before the
             result overwrites it. *)
          buf_mul scratch (n + 1) scratch (n + 1) b i;
          buf_blit scratch n b i 1
        end
      done
    end

  let p_minus_1_half_bits =
    exponent_bits (Nat.shift_right (Nat.sub modulus Nat.one) 1)

  let is_square a = is_zero a || is_one (pow_bits a p_minus_1_half_bits)

  (* Tonelli-Shanks. s and q with p-1 = 2^s * q derived once. *)
  let ts_s, ts_q =
    let rec go s q =
      if Nat.testbit q 0 then (s, q) else go (s + 1) (Nat.shift_right q 1)
    in
    go 0 (Nat.sub modulus Nat.one)

  let ts_nonresidue =
    let rec find c =
      let x = of_int c in
      if (not (is_zero x)) && not (is_square x) then x else find (c + 1)
    in
    find 2

  (* p = 3 (mod 4), i.e. s = 1 (Fp): r = a^((p+1)/4) is a root iff a is a
     square, and it is the root Tonelli-Shanks returns at s = 1. *)
  let p_plus_1_quarter_bits =
    exponent_bits (Nat.shift_right (Nat.add modulus Nat.one) 2)

  let sqrt a =
    if is_zero a then Some zero
    else if ts_s = 1 then begin
      let r = pow_bits a p_plus_1_quarter_bits in
      if equal (sqr r) a then Some r else None
    end
    else if not (is_square a) then None
    else begin
      let m = ref ts_s in
      let c = ref (pow_nat ts_nonresidue ts_q) in
      let t = ref (pow_nat a ts_q) in
      let r = ref (pow_nat a (Nat.shift_right (Nat.add ts_q Nat.one) 1)) in
      let rec loop () =
        if is_one !t then Some !r
        else begin
          (* Least i with t^(2^i) = 1. *)
          let i = ref 0 in
          let t2 = ref !t in
          while not (is_one !t2) do
            t2 := sqr !t2;
            incr i
          done;
          let b = ref !c in
          for _ = 1 to !m - !i - 1 do
            b := sqr !b
          done;
          m := !i;
          c := sqr !b;
          t := mul !t !c;
          r := mul !r !b;
          loop ()
        end
      in
      loop ()
    end

  (* One draw per 26-bit Nat limb with rejection sampling.  The draw width
     is tied to Nat.limb_bits, not to the 64-bit limbs of the
     representation: the stream is part of the seeded-randomness
     contract. *)
  let random st =
    let limb_bits = Nat.limb_bits in
    let nlimbs = (num_bits + limb_bits - 1) / limb_bits in
    let rec go () =
      let n =
        Nat.of_limbs
          (Array.init nlimbs (fun i ->
               let bits =
                 if i = nlimbs - 1 then num_bits - ((nlimbs - 1) * limb_bits)
                 else limb_bits
               in
               Random.State.int st (1 lsl bits)))
      in
      if Nat.compare n modulus >= 0 then go () else of_nat n
    in
    go ()

  let compare a b = Nat.compare (to_nat a) (to_nat b)
  let pp fmt a = Format.pp_print_string fmt (to_string a)
end
