let limb_bits = 26
let base = 1 lsl limb_bits
let mask = base - 1

(* Invariant: little-endian limbs, each in [0, base), no trailing zero limb.
   zero is the empty array. *)
type t = int array

let zero : t = [||]
let is_zero n = Array.length n = 0

let normalize (a : int array) : t =
  let k = ref (Array.length a) in
  while !k > 0 && a.(!k - 1) = 0 do
    decr k
  done;
  if !k = Array.length a then a else Array.sub a 0 !k

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  if n = 0 then zero
  else begin
    let rec count acc n = if n = 0 then acc else count (acc + 1) (n lsr limb_bits) in
    let len = count 0 n in
    let a = Array.make len 0 in
    let rec fill i n =
      if n <> 0 then begin
        a.(i) <- n land mask;
        fill (i + 1) (n lsr limb_bits)
      end
    in
    fill 0 n;
    a
  end

let one = of_int 1
let two = of_int 2

let to_int n =
  (* A native int holds at most 62 bits: 3 limbs only if the top limb is
     small enough. *)
  let len = Array.length n in
  if len > 3 then None
  else begin
    let v = ref 0 and ok = ref true in
    for i = len - 1 downto 0 do
      if !v > max_int lsr limb_bits then ok := false
      else v := (!v lsl limb_bits) lor n.(i)
    done;
    if !ok then Some !v else None
  end

let limb n i = if i < Array.length n then n.(i) else 0

let of_limbs a = normalize (Array.copy a)

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = limb a i + limb b i + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  normalize r

let sub a b =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let la = Array.length a in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - limb b i - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  normalize r

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land mask;
        carry := s lsr limb_bits
      done;
      (* Propagate the final carry; it can exceed one limb. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land mask;
        carry := s lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let num_bits n =
  let len = Array.length n in
  if len = 0 then 0
  else begin
    let top = n.(len - 1) in
    let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
    ((len - 1) * limb_bits) + width 0 top
  end

let testbit n i =
  if i < 0 then invalid_arg "Nat.testbit";
  let w = i / limb_bits and b = i mod limb_bits in
  (limb n w lsr b) land 1 = 1

let shift_left n k =
  if k < 0 then invalid_arg "Nat.shift_left";
  if is_zero n || k = 0 then n
  else begin
    let wk = k / limb_bits and bk = k mod limb_bits in
    let len = Array.length n in
    let r = Array.make (len + wk + 1) 0 in
    for i = 0 to len - 1 do
      let v = n.(i) lsl bk in
      r.(i + wk) <- r.(i + wk) lor (v land mask);
      r.(i + wk + 1) <- r.(i + wk + 1) lor (v lsr limb_bits)
    done;
    normalize r
  end

let shift_right n k =
  if k < 0 then invalid_arg "Nat.shift_right";
  if is_zero n || k = 0 then n
  else begin
    let wk = k / limb_bits and bk = k mod limb_bits in
    let len = Array.length n in
    if wk >= len then zero
    else begin
      let r = Array.make (len - wk) 0 in
      for i = 0 to len - wk - 1 do
        let lo = n.(i + wk) lsr bk in
        let hi =
          if bk = 0 || i + wk + 1 >= len then 0
          else (n.(i + wk + 1) lsl (limb_bits - bk)) land mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* Binary long division: O(bits(a) * limbs(a)). Division only runs during
   parameter derivation and radix conversion, never in proving hot paths. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let shift = num_bits a - num_bits b in
    let q = Array.make (shift / limb_bits + 1) 0 in
    let r = ref a in
    for i = shift downto 0 do
      let d = shift_left b i in
      if compare !r d >= 0 then begin
        r := sub !r d;
        q.(i / limb_bits) <- q.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    (normalize q, !r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let pow b e =
  if e < 0 then invalid_arg "Nat.pow";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let of_decimal s =
  if String.length s = 0 then invalid_arg "Nat.of_decimal: empty";
  let acc = ref zero in
  let ten = of_int 10 in
  String.iter
    (fun c ->
      if c < '0' || c > '9' then invalid_arg "Nat.of_decimal: bad digit";
      acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0')))
    s;
  !acc

let to_decimal n =
  if is_zero n then "0"
  else begin
    (* Peel off 7 decimal digits at a time via division by 10^7. *)
    let chunk = of_int 10_000_000 in
    let buf = Buffer.create 80 in
    let rec go n parts =
      if is_zero n then parts
      else begin
        let q, r = divmod n chunk in
        let digits = match to_int r with Some v -> v | None -> assert false in
        go q (digits :: parts)
      end
    in
    match go n [] with
    | [] -> assert false
    | first :: rest ->
      Buffer.add_string buf (string_of_int first);
      List.iter (fun d -> Buffer.add_string buf (Printf.sprintf "%07d" d)) rest;
      Buffer.contents buf
  end

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Nat.of_hex: bad digit"

let of_hex s =
  let s =
    if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')
    then String.sub s 2 (String.length s - 2)
    else s
  in
  if String.length s = 0 then invalid_arg "Nat.of_hex: empty";
  let acc = ref zero in
  String.iter (fun c -> acc := add (shift_left !acc 4) (of_int (hex_digit c))) s;
  !acc

let to_hex n =
  if is_zero n then "0"
  else begin
    let bits = num_bits n in
    let digits = (bits + 3) / 4 in
    let buf = Buffer.create digits in
    for i = digits - 1 downto 0 do
      let v =
        (if testbit n ((4 * i) + 3) then 8 else 0)
        + (if testbit n ((4 * i) + 2) then 4 else 0)
        + (if testbit n ((4 * i) + 1) then 2 else 0)
        + if testbit n (4 * i) then 1 else 0
      in
      Buffer.add_char buf "0123456789abcdef".[v]
    done;
    Buffer.contents buf
  end

(* Byte j, counting from the least significant, holds bits 8j .. 8j + 7:
   the low part of limb 8j / 26 at offset 8j mod 26, spilling into the
   next limb when the offset is above 18.  Both directions are one pass. *)
let of_bytes_be s =
  let n = String.length s in
  let a = Array.make (((8 * n) + limb_bits - 1) / limb_bits) 0 in
  for j = 0 to n - 1 do
    let v = Char.code s.[n - 1 - j] and pos = 8 * j in
    let l = pos / limb_bits and off = pos mod limb_bits in
    a.(l) <- a.(l) lor ((v lsl off) land mask);
    if off > limb_bits - 8 then a.(l + 1) <- a.(l + 1) lor (v lsr (limb_bits - off))
  done;
  normalize a

let to_bytes_be ~length n =
  if num_bits n > 8 * length then invalid_arg "Nat.to_bytes_be: overflow";
  String.init length (fun i ->
      let pos = 8 * (length - 1 - i) in
      let l = pos / limb_bits and off = pos mod limb_bits in
      Char.chr
        (((limb n l lsr off) lor (limb n (l + 1) lsl (limb_bits - off))) land 0xff))

let pp fmt n = Format.pp_print_string fmt (to_decimal n)
