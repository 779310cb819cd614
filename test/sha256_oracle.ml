(* SHA-256 (FIPS 180-4) in plain OCaml on native ints masked to 32 bits:
   the test oracle for the C block kernel behind lib/hash/sha256.ml.

   One-shot only: the message is padded as one string and its blocks are
   compressed in order, each with a fresh 64-word schedule.  Slow and
   simple enough to check against the standard by eye; it shares no code
   or constants with the library. *)

let mask32 = 0xFFFFFFFF

(* Round constants: fractional parts of cube roots of the first 64
   primes. *)
let k =
  let primes =
    let sieve = Array.make 400 true in
    let out = ref [] in
    for i = 2 to 399 do
      if sieve.(i) then begin
        out := i :: !out;
        let j = ref (i * i) in
        while !j < 400 do
          sieve.(!j) <- false;
          j := !j + i
        done
      end
    done;
    Array.of_list (List.rev !out)
  in
  Array.init 64 (fun i ->
      let c = Float.cbrt (float_of_int primes.(i)) in
      int_of_float (Float.rem c 1.0 *. 4294967296.0) land mask32)

(* Initial state: fractional parts of square roots of the first 8
   primes. *)
let h0 =
  Array.map
    (fun p ->
      let c = sqrt (float_of_int p) in
      int_of_float (Float.rem c 1.0 *. 4294967296.0) land mask32)
    [| 2; 3; 5; 7; 11; 13; 17; 19 |]

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

let process_block h block off =
  let w = Array.make 64 0 in
  for t = 0 to 15 do
    w.(t) <-
      (Char.code block.[off + (4 * t)] lsl 24)
      lor (Char.code block.[off + (4 * t) + 1] lsl 16)
      lor (Char.code block.[off + (4 * t) + 2] lsl 8)
      lor Char.code block.[off + (4 * t) + 3]
  done;
  for t = 16 to 63 do
    let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
    let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask32
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = !e land !f lxor (lnot !e land !g) in
    let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land mask32 in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask32 in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

(* The message, 0x80, zeros up to 56 mod 64, the 64-bit big-endian bit
   length; then every block in order. *)
let digest s =
  let len = String.length s in
  let padlen =
    let r = (len + 1 + 8) mod 64 in
    if r = 0 then 0 else 64 - r
  in
  let bitlen = len * 8 in
  let padded =
    s ^ "\x80" ^ String.make padlen '\x00'
    ^ String.init 8 (fun i -> Char.chr ((bitlen lsr (8 * (7 - i))) land 0xFF))
  in
  let h = Array.copy h0 in
  for i = 0 to (String.length padded / 64) - 1 do
    process_block h padded (i * 64)
  done;
  String.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xFF))
