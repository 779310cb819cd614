(* SHA-256 (FIPS 180-4): an allocation-free streaming context around one C
   block kernel (sha256_stubs.c).

   The context holds the chaining state, one 64-byte block buffer, its fill
   count and the message length.  [feed] compresses every whole block
   straight from its argument and keeps only a partial block; [finalize]
   pads in the block buffer.  Nothing is allocated per block, so hashing
   costs the compression and little else. *)

let mask32 = 0xFFFFFFFF

(* Round constants: fractional parts of cube roots of the first 64 primes.
   Derived here rather than transcribed, and handed to the C kernel. *)
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

(* The initial state, big-endian: fractional parts of square roots of the
   first 8 primes. *)
let h0 =
  let primes = [| 2; 3; 5; 7; 11; 13; 17; 19 |] in
  let b = Bytes.create 32 in
  Array.iteri
    (fun i p ->
      let c = sqrt (float_of_int p) in
      Bytes.set_int32_be b (4 * i)
        (Int32.of_int (int_of_float (Float.rem c 1.0 *. 4294967296.0) land mask32)))
    primes;
  Bytes.to_string b

(* [compress k h src off n] compresses the [n] blocks of [src] at byte
   [off] into the state [h] (eight words, big-endian).  Every caller below
   keeps [off + 64 * n] within [src]. *)
external compress : int array -> Bytes.t -> string -> int -> int -> unit
  = "zkdet_sha256_blocks"
[@@noalloc]

type ctx = {
  h : Bytes.t;  (* chaining state, big-endian: the digest once finalized *)
  block : Bytes.t;  (* the pending partial block *)
  mutable fill : int;  (* bytes of [block] in use, < 64 between calls *)
  mutable total : int;  (* message bytes fed so far *)
}

let init () =
  { h = Bytes.of_string h0; block = Bytes.create 64; fill = 0; total = 0 }

let compress_block ctx = compress k ctx.h (Bytes.unsafe_to_string ctx.block) 0 1

let feed ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  (* Top up a pending partial block first. *)
  let pos =
    if ctx.fill = 0 then 0
    else begin
      let take = min len (64 - ctx.fill) in
      Bytes.blit_string s 0 ctx.block ctx.fill take;
      ctx.fill <- ctx.fill + take;
      if ctx.fill = 64 then begin
        compress_block ctx;
        ctx.fill <- 0
      end;
      take
    end
  in
  let nblocks = (len - pos) / 64 in
  if nblocks > 0 then compress k ctx.h s pos nblocks;
  let rest = pos + (64 * nblocks) in
  Bytes.blit_string s rest ctx.block ctx.fill (len - rest);
  ctx.fill <- ctx.fill + (len - rest)

let finalize ctx =
  (* 0x80, zeros up to 56 mod 64, then the 64-bit big-endian bit length;
     a block with no room for the length spills into one more block. *)
  Bytes.set ctx.block ctx.fill '\x80';
  if ctx.fill >= 56 then begin
    Bytes.fill ctx.block (ctx.fill + 1) (63 - ctx.fill) '\x00';
    compress_block ctx;
    Bytes.fill ctx.block 0 56 '\x00'
  end
  else Bytes.fill ctx.block (ctx.fill + 1) (55 - ctx.fill) '\x00';
  Bytes.set_int64_be ctx.block 56 (Int64.of_int (ctx.total * 8));
  compress_block ctx;
  Bytes.sub_string ctx.h 0 32

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let hex_digits = "0123456789abcdef"

let hex_of_string s =
  let out = Bytes.create (2 * String.length s) in
  for i = 0 to String.length s - 1 do
    let b = Char.code s.[i] in
    Bytes.set out (2 * i) hex_digits.[b lsr 4];
    Bytes.set out ((2 * i) + 1) hex_digits.[b land 15]
  done;
  Bytes.unsafe_to_string out

let digest_hex s = hex_of_string (digest s)
