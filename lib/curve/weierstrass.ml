(* Short Weierstrass curves y^2 = x^3 + b (a = 0, the BN shape) over an
   arbitrary field, in Jacobian coordinates. Instantiated for G1 (over Fp)
   and G2 (over Fp2). *)

module Nat = Zkdet_num.Nat
module Fr = Zkdet_field.Bn254.Fr
module Pool = Zkdet_parallel.Pool
module Telemetry = Zkdet_telemetry.Telemetry

(* Bit [i] of a canonical value laid out by [to_limbs_le]
   ({!Zkdet_field.Field_intf.CORE}): bit [i mod 8] of byte [i / 8]. *)
let limb_bit (limbs : Bytes.t) i =
  (Char.code (Bytes.get limbs (i lsr 3)) lsr (i land 7)) land 1 = 1

(* ---- the MSM engine in C (msm_stubs.c) ----

   What the engine needs of a field: its kernel parameter block
   ({!Zkdet_field.Field_intf.S.kernel_params}) and the storage of its
   buffers, cells laid out as {!Zkdet_field.Field_intf.CORE} documents.
   The engine runs on any a = 0 curve over a field on the shared
   Montgomery kernel; G1 is the one that has it. *)
type 'buf kernel = { params : string; storage : 'buf -> Bytes.t }

(* Sizes of an MSM's work buffer and of the scratch every call of it fits
   in: (n, c, nwindows, nchunks, table). *)
external c_work_bytes : int -> int -> int -> int -> bool -> int
  = "zkdet_msm_work_bytes"
[@@noalloc]

external c_scratch_bytes : int -> int -> int -> int -> bool -> int
  = "zkdet_msm_scratch_bytes"
[@@noalloc]

(* (prm, work, scratch, table x, table y, table finite flags, chunk)
   -> rounds; the generic path passes the work buffer for the table. *)
external c_chunk :
  string -> Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> int -> int
  = "zkdet_msm_chunk_bc" "zkdet_msm_chunk"
[@@noalloc]

(* (prm, work, scratch) -> rounds; the result lands in cells 2..4. *)
external c_merge : string -> Bytes.t -> Bytes.t -> int = "zkdet_msm_merge"
[@@noalloc]

(* (prm, bases, mx, my, mfinite, scratch, c, nwindows, lo, hi). *)
external c_table_build :
  string -> Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> int ->
  int -> int -> int -> unit
  = "zkdet_msm_table_build_bc" "zkdet_msm_table_build"
[@@noalloc]

(* (nbuckets, entries) -> scratch bytes; (prm, ex, ey, start, len,
   scratch) -> rounds. *)
external c_reduce_bytes : int -> int -> int = "zkdet_msm_reduce_bytes"
[@@noalloc]

external c_reduce :
  string -> Bytes.t -> Bytes.t -> int array -> int array -> Bytes.t -> int
  = "zkdet_msm_reduce_bc" "zkdet_msm_reduce"
[@@noalloc]

(* (prm, dst, a): dst <- 1 / a in 32-byte cells, by the Fermat inversion
   each round of the C engine runs; the tests hold it to the field's. *)
external kernel_inv : string -> Bytes.t -> Bytes.t -> unit = "zkdet_msm_inv"
[@@noalloc]

(* The calling domain's scratch arena for the C calls.  It only grows, to
   the largest call it has served (a chunk, not a whole MSM), and nothing
   in it outlives one call, so calls that interleave on a domain share it
   safely. *)
let arena_key = Domain.DLS.new_key (fun () -> ref Bytes.empty)

let arena bytes =
  let r = Domain.DLS.get arena_key in
  if Bytes.length !r < bytes then r := Bytes.create bytes;
  !r

let count_rounds r =
  if r > 0 then Telemetry.count "curve.msm.batch_add_rounds" r

module type CURVE_FIELD = sig
  type t

  val zero : t
  val one : t
  val of_int : int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val mul : t -> t -> t
  val sqr : t -> t
  val double : t -> t
  val inv : t -> t

  (** Flat kernel buffers (see {!Zkdet_field.Field_intf.CORE}): [n]
      mutable cells addressed by index, contiguous for Fp and Fr (an Fp2
      buffer is a pair of Fp buffers).  Every operand is a [(buf, index)]
      pair and destinations may alias sources, so the batch-affine MSM
      inner loops allocate nothing per field operation. *)

  type buf

  val buf_create : int -> buf
  val buf_get : buf -> int -> t
  val buf_set : buf -> int -> t -> unit

  val buf_blit : buf -> int -> buf -> int -> int -> unit
  (** [buf_blit src spos dst dpos len]; overlaps are handled. *)

  val buf_mul : buf -> int -> buf -> int -> buf -> int -> unit
  val buf_sqr : buf -> int -> buf -> int -> unit
  val buf_add : buf -> int -> buf -> int -> buf -> int -> unit
  val buf_sub : buf -> int -> buf -> int -> buf -> int -> unit
  val buf_double : buf -> int -> buf -> int -> unit
  val buf_neg : buf -> int -> buf -> int -> unit
  val buf_is_zero : buf -> int -> bool
  val buf_equal : buf -> int -> buf -> int -> bool

  val buf_batch_inv0 : scratch:buf -> buf -> int -> unit
  (** In-place batch inversion over the first [n] cells (zero cells stay
      zero — the "absent" marker of the batch-affine adders); [scratch]
      needs [n + 2] cells. *)

  val kernel : buf kernel option
  (** The field's hook into the C engine ({!kernel}); [None] runs the
      OCaml chunk, as G2 and the tests' oracles do. *)

  val equal : t -> t -> bool
  val is_zero : t -> bool
  val to_bytes : t -> string
  val of_bytes : string -> t

  val num_bytes : int
  (** Width of [to_bytes] output (fixed). *)

  val of_bytes_canonical : string -> (t, string) result
  (** Strict decoder: exactly [num_bytes] bytes, each coordinate below the
      modulus (no reduction). *)

  val sqrt_opt : t -> t option

  val parity : t -> bool
  (** Sign bit for point compression; flips under negation for any
      non-zero element. *)

  val pp : Format.formatter -> t -> unit
end

module type PARAMS = sig
  module F : CURVE_FIELD

  val b : F.t
  val generator : F.t * F.t

  val subgroup_check : bool
  (** Whether decoded points must additionally pass an order-[r] subgroup
      check (true for G2, whose twist has a non-trivial cofactor; false
      for G1, where on-curve implies in-subgroup). *)
end

module Make (P : PARAMS) = struct
  module F = P.F

  (* z = 0 encodes the point at infinity. *)
  type t = { x : F.t; y : F.t; z : F.t }

  let zero = { x = F.one; y = F.one; z = F.zero }
  let is_zero p = F.is_zero p.z

  let on_curve_affine x y =
    F.equal (F.sqr y) (F.add (F.mul (F.sqr x) x) P.b)

  let of_affine (x, y) =
    if not (on_curve_affine x y) then invalid_arg "Weierstrass.of_affine: not on curve";
    { x; y; z = F.one }

  let of_affine_unchecked (x, y) = { x; y; z = F.one }

  (* A point with z = 1 is its own affine form: decoded points and the
     stored keys are, so encoding them costs no inversion. *)
  let to_affine p =
    if is_zero p then None
    else if F.equal p.z F.one then Some (p.x, p.y)
    else begin
      let zinv = F.inv p.z in
      let zinv2 = F.sqr zinv in
      Some (F.mul p.x zinv2, F.mul p.y (F.mul zinv2 zinv))
    end

  let generator = of_affine P.generator

  let neg p = if is_zero p then p else { p with y = F.neg p.y }

  let equal p q =
    match (is_zero p, is_zero q) with
    | true, true -> true
    | true, false | false, true -> false
    | false, false ->
      let z1z1 = F.sqr p.z and z2z2 = F.sqr q.z in
      F.equal (F.mul p.x z2z2) (F.mul q.x z1z1)
      && F.equal (F.mul p.y (F.mul z2z2 q.z)) (F.mul q.y (F.mul z1z1 p.z))

  let double p =
    if is_zero p then p
    else if F.is_zero p.y then zero
    else begin
      (* dbl-2009-l *)
      let a = F.sqr p.x in
      let b = F.sqr p.y in
      let c = F.sqr b in
      let d = F.double (F.sub (F.sub (F.sqr (F.add p.x b)) a) c) in
      let e = F.add (F.double a) a in
      let f = F.sqr e in
      let x3 = F.sub f (F.double d) in
      let y3 = F.sub (F.mul e (F.sub d x3)) (F.double (F.double (F.double c))) in
      let z3 = F.double (F.mul p.y p.z) in
      { x = x3; y = y3; z = z3 }
    end

  let add p q =
    if is_zero p then q
    else if is_zero q then p
    else begin
      (* add-2007-bl *)
      let z1z1 = F.sqr p.z in
      let z2z2 = F.sqr q.z in
      let u1 = F.mul p.x z2z2 in
      let u2 = F.mul q.x z1z1 in
      let s1 = F.mul p.y (F.mul z2z2 q.z) in
      let s2 = F.mul q.y (F.mul z1z1 p.z) in
      if F.equal u1 u2 then
        if F.equal s1 s2 then double p else zero
      else begin
        let h = F.sub u2 u1 in
        let i = F.sqr (F.double h) in
        let j = F.mul h i in
        let r = F.double (F.sub s2 s1) in
        let v = F.mul u1 i in
        let x3 = F.sub (F.sub (F.sqr r) j) (F.double v) in
        let y3 = F.sub (F.mul r (F.sub v x3)) (F.double (F.mul s1 j)) in
        let z3 = F.mul (F.sub (F.sub (F.sqr (F.add p.z q.z)) z1z1) z2z2) h in
        { x = x3; y = y3; z = z3 }
      end
    end

  let sub_point p q = add p (neg q)

  (* Mixed addition (q affine, z = 1): 7M + 4S vs 11M + 5S for full
     addition. The workhorse of the MSM bucket phase. *)
  let add_mixed p ((x2, y2) : F.t * F.t) =
    if is_zero p then { x = x2; y = y2; z = F.one }
    else begin
      let z1z1 = F.sqr p.z in
      let u2 = F.mul x2 z1z1 in
      let s2 = F.mul y2 (F.mul p.z z1z1) in
      if F.equal p.x u2 then
        if F.equal p.y s2 then double p else zero
      else begin
        let h = F.sub u2 p.x in
        let hh = F.sqr h in
        let i = F.double (F.double hh) in
        let j = F.mul h i in
        let r = F.double (F.sub s2 p.y) in
        let v = F.mul p.x i in
        let x3 = F.sub (F.sub (F.sqr r) j) (F.double v) in
        let y3 = F.sub (F.mul r (F.sub v x3)) (F.double (F.mul p.y j)) in
        let z3 = F.sub (F.sub (F.sqr (F.add p.z h)) z1z1) hh in
        { x = x3; y = y3; z = z3 }
      end
    end

  (** Normalize many points to affine with one shared inversion
      (Montgomery's batch-inversion trick). Infinity maps to [None]. *)
  let batch_to_affine (points : t array) : (F.t * F.t) option array =
    let n = Array.length points in
    let prefix = Array.make n F.one in
    let acc = ref F.one in
    for i = 0 to n - 1 do
      prefix.(i) <- !acc;
      if not (is_zero points.(i)) then acc := F.mul !acc points.(i).z
    done;
    let inv_acc = ref (F.inv !acc) in
    let out = Array.make n None in
    for i = n - 1 downto 0 do
      if not (is_zero points.(i)) then begin
        let zinv = F.mul !inv_acc prefix.(i) in
        inv_acc := F.mul !inv_acc points.(i).z;
        let zinv2 = F.sqr zinv in
        out.(i) <-
          Some (F.mul points.(i).x zinv2, F.mul points.(i).y (F.mul zinv2 zinv))
      end
    done;
    out

  (** The same points with z = 1 (infinity unchanged), for one shared
      inversion: a point kept this way encodes for free. *)
  let batch_normalize (points : t array) : t array =
    Array.map2
      (fun p a -> match a with Some xy -> of_affine_unchecked xy | None -> p)
      points (batch_to_affine points)

  let mul_nat p (e : Nat.t) =
    let nbits = Nat.num_bits e in
    let acc = ref zero in
    for i = nbits - 1 downto 0 do
      acc := double !acc;
      if Nat.testbit e i then acc := add !acc p
    done;
    !acc

  (* Double-and-add over the scalar's limb bits, top bit first; the
     leading zero bits leave [acc] at [zero], as in [mul_nat]. *)
  let mul p (s : Fr.t) =
    let limbs = Bytes.create 32 in
    Fr.to_limbs_le s limbs;
    let acc = ref zero in
    for i = Fr.num_bits - 1 downto 0 do
      acc := double !acc;
      if limb_bit limbs i then acc := add !acc p
    done;
    !acc

  let mul_int p k =
    if k >= 0 then mul_nat p (Nat.of_int k) else neg (mul_nat p (Nat.of_int (-k)))

  (* ================= Pippenger multi-scalar multiplication =================

     Signed-digit (wNAF-style) windows over batch-affine buckets:

     - Scalars decompose into digits d_w in (-2^(c-1), 2^(c-1)] with
       sum_w d_w 2^(cw) = s.  A negative digit files the *negated* affine
       point under bucket |d_w|, halving the bucket count per window.
     - Bucket contents are reduced by rounds of pairwise affine additions
       whose slope denominators are inverted together — one field
       inversion per round (Montgomery's trick, F.buf_batch_inv0) — at ~6
       field mults per addition vs ~11 for Jacobian add_mixed.
     - Points are partitioned into chunks whose count depends only on n;
       each chunk computes every window and chunks are merged in fixed
       index order, so the result (and hence any proof bytes built from
       it) is identical at any pool size / ZKDET_DOMAINS. *)

  let scalar_bits = Fr.num_bits

  (* One extra window absorbs the final carry of the signed digits. *)
  let nwindows_for c = ((scalar_bits + c - 1) / c) + 1

  (* Window width by input size for the generic (per-window bucket sets)
     path; tuned by the `msm` bench sweep — see EXPERIMENTS.md.  Below 128
     terms (the verifier's sizes) a window's running sum costs more than
     its share of the doublings saved, so narrow windows win; those rows
     come from a paired sweep of c against c + 1 on the C engine (61
     interleaved repeats, two seeds; a row moved only where the wider
     window won both). *)
  let pick_window n =
    if n < 16 then 2
    else if n < 40 then 3
    else if n < 96 then 4
    else if n < 128 then 5
    else if n < 512 then 6
    else if n < 2048 then 7
    else if n < 8192 then 8
    else if n < 32768 then 9
    else 10

  (* Chunk count for the point partition. Depends only on n — never on
     the pool size — so chunk boundaries (and the merge) are stable. *)
  let nchunks_for n = if n < 256 then 1 else min 4 (n / 128)

  (* Scratch the scalar windows are read from: the 32 bytes of
     [Fr.to_limbs_le] plus 8 zero bytes, so the 64-bit load of the top
     window stays in bounds.  Reused across scalars. *)
  let limb_scratch () = Bytes.make 40 '\000'

  (* The [c]-bit window at bit [lo]: one unaligned 64-bit load at byte
     [lo / 8], a shift by [lo mod 8] and a mask.  With c <= 16 the window
     always lies inside the loaded word. *)
  let[@inline] limb_window (limbs : Bytes.t) lo c =
    Int64.to_int
      (Int64.shift_right_logical (Bytes.get_int64_le limbs (lo lsr 3)) (lo land 7))
    land ((1 lsl c) - 1)

  (* Writes the signed digits of [s] into [out] (length >= nwindows_for c).
     [limbs] is a [limb_scratch]; the scalar's canonical limbs are written
     once and each window is then an O(1) load/shift/mask. *)
  let signed_digits ~c (limbs : Bytes.t) (out : int array) (s : Fr.t) : unit =
    Fr.to_limbs_le s limbs;
    let half = 1 lsl (c - 1) in
    let nw = nwindows_for c in
    let carry = ref 0 in
    for w = 0 to nw - 2 do
      let v = limb_window limbs (w * c) c + !carry in
      if v > half then begin
        out.(w) <- v - (2 * half);
        carry := 1
      end else begin
        out.(w) <- v;
        carry := 0
      end
    done;
    out.(nw - 1) <- !carry

  (* Batched affine bucket accumulation. [ex]/[ey] are flat F buffers
     ({!F.buf_create}); entries for bucket b occupy cells
     start.(b) .. start.(b) + len.(b) - 1, all finite affine points.
     Rounds of pairwise additions shrink every bucket to at most one
     survivor (left at start.(b)); each round resolves all its slope
     denominators in place with ONE field inversion. A zero denominator
     marks an annihilating P + (-P) pair, which simply drops out —
     identity entries are never stored, only skipped.

     This is the OCaml chunk's reduction: every field op reads and writes
     preallocated buffer cells through the (buf, index) kernels, so it
     allocates only its scratch buffers.  It serves G2 and the tests'
     oracles; the C engine runs the same rounds. *)
  let ocaml_rounds ~(ex : F.buf) ~(ey : F.buf) ~(start : int array)
      ~(len : int array) ~num ~den ~scratch =
    let nbuckets = Array.length start in
    let tmp = F.buf_create 3 in
    let pending = ref true in
    while !pending do
      pending := false;
      (* Phase 1: classify each pair, collecting slope numerators and
         denominators.  Doubling uses (3x^2) / (2y); distinct x uses
         (y2 - y1) / (x2 - x1); x1 = x2 with y1 = -y1 annihilates. *)
      let np = ref 0 in
      for b = 0 to nbuckets - 1 do
        let m = len.(b) in
        for k = 0 to (m / 2) - 1 do
          let i = start.(b) + (2 * k) in
          (if F.buf_equal ex i ex (i + 1) then
             if F.buf_equal ey i ey (i + 1) && not (F.buf_is_zero ey i)
             then begin
               F.buf_sqr num !np ex i;
               F.buf_double tmp 0 num !np;
               F.buf_add num !np tmp 0 num !np;
               F.buf_double den !np ey i
             end else begin
               F.buf_set num !np F.zero;
               F.buf_set den !np F.zero
             end
           else begin
             F.buf_sub num !np ey (i + 1) ey i;
             F.buf_sub den !np ex (i + 1) ex i
           end);
          incr np
        done
      done;
      if !np > 0 then begin
        Telemetry.count "curve.msm.batch_add_rounds" 1;
        F.buf_batch_inv0 ~scratch den !np;
        (* Phase 2: apply the additions, compacting each bucket in
           place.  The write pointer never passes the read index, and
           an odd leftover entry is preserved at the tail. *)
        let np2 = ref 0 in
        for b = 0 to nbuckets - 1 do
          let m = len.(b) in
          if m > 1 then begin
            let wp = ref (start.(b)) in
            for k = 0 to (m / 2) - 1 do
              let i = start.(b) + (2 * k) in
              if not (F.buf_is_zero den !np2) then begin
                (* tmp0 = lambda, tmp1 = x3, tmp2 = y3, all materialized
                   before the writeback — cell !wp may be cell i. *)
                F.buf_mul tmp 0 num !np2 den !np2;
                F.buf_sqr tmp 1 tmp 0;
                F.buf_sub tmp 1 tmp 1 ex i;
                F.buf_sub tmp 1 tmp 1 ex (i + 1);
                F.buf_sub tmp 2 ex i tmp 1;
                F.buf_mul tmp 2 tmp 0 tmp 2;
                F.buf_sub tmp 2 tmp 2 ey i;
                F.buf_blit tmp 1 ex !wp 1;
                F.buf_blit tmp 2 ey !wp 1;
                incr wp
              end;
              incr np2
            done;
            if m land 1 = 1 then begin
              let i = start.(b) + m - 1 in
              if !wp <> i then begin
                F.buf_blit ex i ex !wp 1;
                F.buf_blit ey i ey !wp 1
              end;
              incr wp
            end;
            len.(b) <- !wp - start.(b);
            if len.(b) > 1 then pending := true
          end
        done
      end
    done

  let ocaml_reduce ~(ex : F.buf) ~(ey : F.buf) ~(start : int array)
      ~(len : int array) : unit =
    let total = Array.fold_left ( + ) 0 len in
    if total > 1 then begin
      let cap = (total / 2) + 1 in
      let den = F.buf_create cap in
      let num = F.buf_create cap in
      let scratch = F.buf_create (cap + 2) in
      ocaml_rounds ~ex ~ey ~start ~len ~num ~den ~scratch
    end

  (** One batch-affine reduction of caller-built buckets, on the C engine
      when the field has one: the tests aim hand-built buckets at both.
      The C engine trusts the layout, so it is checked here first. *)
  let reduce_buckets ~(ex : F.buf) ~(ey : F.buf) ~(start : int array)
      ~(len : int array) : unit =
    match F.kernel with
    | None -> ocaml_reduce ~ex ~ey ~start ~len
    | Some k ->
      let sx = k.storage ex and sy = k.storage ey in
      let n = Bytes.length sx / 32 and nb = Array.length start in
      if Bytes.length sy <> Bytes.length sx || Array.length len <> nb then
        invalid_arg "Weierstrass.reduce_buckets: mismatched buckets";
      let total = ref 0 in
      for b = 0 to nb - 1 do
        let s = start.(b) and m = len.(b) in
        if s < 0 || m < 0 || s > n - m then
          invalid_arg "Weierstrass.reduce_buckets: bucket out of range";
        total := !total + m
      done;
      count_rounds
        (c_reduce k.params sx sy start len (arena (c_reduce_bytes nb !total)))

  (* Running-sum trick over a contiguous range of reduced buckets:
     sum_{j} (j + 1) * bucket_{first + j}. *)
  let bucket_running_sum ~(ex : F.buf) ~(ey : F.buf) ~start ~len ~first ~count
      =
    let running = ref zero and sum = ref zero in
    for j = count - 1 downto 0 do
      let b = first + j in
      if len.(b) = 1 then
        running :=
          add_mixed !running (F.buf_get ex start.(b), F.buf_get ey start.(b));
      if not (is_zero !running) then sum := add !sum !running
    done;
    !sum

  (* Chunk output: the surviving bucket points, sorted by bucket index.
     Chunks must NOT pay the running sum themselves — it costs
     O(nbuckets) curve adds and would be multiplied by the chunk count —
     so survivors are handed back for one shared cross-chunk reduction. *)
  type survivors = { sn : int; sb : int array; sx : F.buf; sy : F.buf }

  let compact_survivors ~(ex : F.buf) ~(ey : F.buf) ~start ~len =
    let nbuckets = Array.length start in
    let ns = ref 0 in
    for b = 0 to nbuckets - 1 do
      if len.(b) = 1 then incr ns
    done;
    let sb = Array.make (max !ns 1) 0 in
    let sx = F.buf_create (max !ns 1) in
    let sy = F.buf_create (max !ns 1) in
    let k = ref 0 in
    for b = 0 to nbuckets - 1 do
      if len.(b) = 1 then begin
        sb.(!k) <- b;
        F.buf_blit ex start.(b) sx !k 1;
        F.buf_blit ey start.(b) sy !k 1;
        incr k
      end
    done;
    { sn = !ns; sb; sx; sy }

  (* Merge per-chunk survivors: one more counting sort (entries for a
     bucket appear in chunk index order — the deterministic merge) and one
     more batch-affine reduction, at most ceil(log2 nchunks) rounds.
     Returns the final per-bucket arrays, each bucket holding <= 1 point. *)
  let merge_survivors ~nbuckets (parts : survivors array) =
    let counts = Array.make nbuckets 0 in
    Array.iter
      (fun p ->
        for k = 0 to p.sn - 1 do
          counts.(p.sb.(k)) <- counts.(p.sb.(k)) + 1
        done)
      parts;
    let start = Array.make nbuckets 0 in
    let acc = ref 0 in
    for b = 0 to nbuckets - 1 do
      start.(b) <- !acc;
      acc := !acc + counts.(b)
    done;
    let total = !acc in
    let ex = F.buf_create (max total 1) in
    let ey = F.buf_create (max total 1) in
    let fill = Array.make nbuckets 0 in
    Array.iter
      (fun p ->
        for k = 0 to p.sn - 1 do
          let b = p.sb.(k) in
          let pos = start.(b) + fill.(b) in
          fill.(b) <- fill.(b) + 1;
          F.buf_blit p.sx k ex pos 1;
          F.buf_blit p.sy k ey pos 1
        done)
      parts;
    ocaml_reduce ~ex ~ey ~start ~len:fill;
    (ex, ey, start, fill)

  (* One chunk of the generic MSM: points [lo, hi) against their scalars,
     every window at once.  All windows share the entry arrays so each
     batch-inversion round spans every window's buckets. *)
  let msm_chunk ~c ~(aff : (F.t * F.t) option array) ~(scalars : Fr.t array) lo
      hi =
    let nw = nwindows_for c in
    let half = 1 lsl (c - 1) in
    let nbuckets = nw * half in
    let nchunk = hi - lo in
    let digits = Array.make (max 1 (nchunk * nw)) 0 in
    let dig_buf = Array.make nw 0 in
    let limbs = limb_scratch () in
    let counts = Array.make nbuckets 0 in
    for i = 0 to nchunk - 1 do
      match aff.(lo + i) with
      | None -> () (* identity input: contributes nothing, digits stay 0 *)
      | Some _ ->
        signed_digits ~c limbs dig_buf scalars.(lo + i);
        for w = 0 to nw - 1 do
          let d = dig_buf.(w) in
          digits.((i * nw) + w) <- d;
          if d <> 0 then begin
            let b = (w * half) + abs d - 1 in
            counts.(b) <- counts.(b) + 1
          end
        done
    done;
    let start = Array.make nbuckets 0 in
    let acc = ref 0 in
    for b = 0 to nbuckets - 1 do
      start.(b) <- !acc;
      acc := !acc + counts.(b)
    done;
    let total = !acc in
    let ex = F.buf_create (max total 1) in
    let ey = F.buf_create (max total 1) in
    let fill = Array.make nbuckets 0 in
    for i = 0 to nchunk - 1 do
      match aff.(lo + i) with
      | None -> ()
      | Some (x, y) ->
        (* The negated ordinate is shared by every window with a negative
           digit for this point. *)
        let yn = F.neg y in
        for w = 0 to nw - 1 do
          let d = digits.((i * nw) + w) in
          if d <> 0 then begin
            let b = (w * half) + abs d - 1 in
            let pos = start.(b) + fill.(b) in
            fill.(b) <- fill.(b) + 1;
            F.buf_set ex pos x;
            F.buf_set ey pos (if d > 0 then y else yn)
          end
        done
    done;
    (* after filling, fill.(b) = counts.(b): reuse it as the live length *)
    ocaml_reduce ~ex ~ey ~start ~len:fill;
    compact_survivors ~ex ~ey ~start ~len:fill

  (* ---- the C engine's side of an MSM ----

     An MSM on the C engine takes a work buffer for its whole length:
     cells 0-1 hold its shape (int64s n, c, nwindows, nchunks, table),
     cells 2-4 receive the result (x, y, z), and on the generic path the
     points follow as (x, y, z) cells from cell 5; then the scalars'
     canonical limbs, a cell each.  The rest is msm_stubs.c's.  Each
     domain keeps its idle work buffers, so a warm MSM allocates O(1)
     words.  An MSM that starts on a domain while another waits there for
     its chunks (the pool's caller helps drain the queue) takes a buffer
     of its own. *)
  let work_key = Domain.DLS.new_key (fun () -> ref [])

  let with_work (k : F.buf kernel) ~n ~c ~nw ~nchunks ~table f =
    let bytes = c_work_bytes n c nw nchunks table in
    let free = Domain.DLS.get work_key in
    let w =
      match !free with
      | w :: rest when Bytes.length (k.storage w) >= bytes ->
        free := rest;
        w
      | _ :: rest ->
        free := rest;
        F.buf_create ((bytes + 31) / 32)
      | [] -> F.buf_create ((bytes + 31) / 32)
    in
    let ws = k.storage w in
    Bytes.set_int64_le ws 0 (Int64.of_int n);
    Bytes.set_int64_le ws 8 (Int64.of_int c);
    Bytes.set_int64_le ws 16 (Int64.of_int nw);
    Bytes.set_int64_le ws 24 (Int64.of_int nchunks);
    Bytes.set_int64_le ws 32 (if table then 1L else 0L);
    let scalar_cell = if table then 5 else 5 + (3 * n) in
    let r = f w ws ~scalar_cell ~scratch:(c_scratch_bytes n c nw nchunks table) in
    free := w :: !free;
    r

  let write_scalars ws ~scalar_cell (scalars : Fr.t array) n =
    let limbs = Bytes.create 32 in
    for i = 0 to n - 1 do
      Fr.to_limbs_le scalars.(i) limbs;
      Bytes.blit limbs 0 ws (32 * (scalar_cell + i)) 32
    done

  let work_result w = { x = F.buf_get w 2; y = F.buf_get w 3; z = F.buf_get w 4 }

  let native_msm (k : F.buf kernel) ~c (points : t array) (scalars : Fr.t array)
      =
    let n = Array.length points in
    let nw = nwindows_for c and nchunks = nchunks_for n in
    with_work k ~n ~c ~nw ~nchunks ~table:false
    @@ fun w ws ~scalar_cell ~scratch ->
    for i = 0 to n - 1 do
      let p = points.(i) in
      F.buf_set w (5 + (3 * i)) p.x;
      F.buf_set w (6 + (3 * i)) p.y;
      F.buf_set w (7 + (3 * i)) p.z
    done;
    write_scalars ws ~scalar_cell scalars n;
    ignore
      (Pool.parallel_init nchunks (fun ci ->
           count_rounds (c_chunk k.params ws (arena scratch) ws ws ws ci)));
    count_rounds (c_merge k.params ws (arena scratch));
    work_result w

  (** Pippenger MSM at an explicit window width (2..16). Exposed for the
      differential tests and the bench sweep; [msm] picks the width. *)
  let msm_with_window ~window:c (points : t array) (scalars : Fr.t array) =
    let n = Array.length points in
    if n <> Array.length scalars then invalid_arg "Weierstrass.msm: length mismatch";
    if c < 2 || c > 16 then invalid_arg "Weierstrass.msm: window outside [2, 16]";
    if n = 0 then zero
    else
      match F.kernel with
      | Some k -> native_msm k ~c points scalars
      | None ->
        let aff = batch_to_affine points in
        let nw = nwindows_for c in
        let half = 1 lsl (c - 1) in
        let nchunks = nchunks_for n in
        let parts =
          Pool.parallel_init nchunks (fun ci ->
              msm_chunk ~c ~aff ~scalars (ci * n / nchunks)
                ((ci + 1) * n / nchunks))
        in
        let ex, ey, start, len = merge_survivors ~nbuckets:(nw * half) parts in
        (* Horner walk over the per-window running sums, doubling c times
           between windows. *)
        let acc = ref zero in
        for w = nw - 1 downto 0 do
          if w < nw - 1 then
            for _ = 1 to c do
              acc := double !acc
            done;
          acc :=
            add !acc
              (bucket_running_sum ~ex ~ey ~start ~len ~first:(w * half)
                 ~count:half)
        done;
        !acc

  (* Pippenger multi-scalar multiplication: sum_i scalars(i) * points(i). *)
  let msm (points : t array) (scalars : Fr.t array) =
    let n = Array.length points in
    if n <> Array.length scalars then invalid_arg "Weierstrass.msm: length mismatch";
    Telemetry.count "curve.msm.calls" 1;
    Telemetry.count "curve.msm.points" n;
    Telemetry.observe "curve.msm.size" (float_of_int n);
    if n = 0 then zero
    else begin
      let c = pick_window n in
      Telemetry.observe "curve.msm.window_bits" (float_of_int c);
      msm_with_window ~window:c points scalars
    end

  (* Fixed-base scalar multiplication: precompute d * 2^(c*j) * base for a
     window width c, turning each subsequent scalar mul into ~(254/c) point
     additions. Used to generate SRS powers quickly. *)
  module Fixed_base = struct
    type table = { window : int; rows : t array array }

    let create ?(window = 8) base =
      let total_bits = Fr.num_bits in
      let nwindows = (total_bits + window - 1) / window in
      let rows =
        Array.init nwindows (fun _ -> Array.make ((1 lsl window) - 1) zero)
      in
      let cur = ref base in
      for j = 0 to nwindows - 1 do
        let acc = ref zero in
        for d = 0 to (1 lsl window) - 2 do
          acc := add !acc !cur;
          rows.(j).(d) <- !acc
        done;
        for _ = 1 to window do
          cur := double !cur
        done
      done;
      { window; rows }

    (* Unsigned windows of the scalar's limbs (bits past the value read
       as zero). *)
    let mul { window; rows } (s : Fr.t) =
      let limbs = limb_scratch () in
      Fr.to_limbs_le s limbs;
      let acc = ref zero in
      for j = 0 to Array.length rows - 1 do
        let v = limb_window limbs (j * window) window in
        if v > 0 then acc := add !acc rows.(j).(v - 1)
      done;
      !acc

    (* ---- multi-base signed-window MSM tables ----

       Row (i, j) stores [2^(c*j)] P_i in affine form.  With every window
       of every base pre-shifted, an MSM over a prefix of the bases needs
       no doublings at all: all (base, window) digit entries land in ONE
       shared set of 2^(c-1) buckets and a single running sum finishes the
       job.  That makes much larger windows pay off than in the generic
       path (the running sum is paid once per MSM, not once per window). *)

    type msm_table = {
      mwindow : int;  (* signed window width c *)
      mnwindows : int;  (* rows per base = nwindows_for c *)
      mbases : int;
      mx : F.buf;  (* mbases * mnwindows flat cells, row-major by base *)
      my : F.buf;
      mfinite : Bytes.t;  (* a byte per row: '\000' marks an identity row *)
    }

    let msm_window t = t.mwindow
    let msm_size t = t.mbases
    let row_finite t k = Bytes.get t.mfinite k <> '\000'

    (* Window width when all windows share one bucket set; tuned by the
       `msm` bench sweep — see EXPERIMENTS.md. *)
    let msm_window_for n = if n <= 128 then 8 else if n <= 512 then 10 else 11

    let of_affine_rows ~window ~nbases (aff : (F.t * F.t) option array) =
      let nw = nwindows_for window in
      let total = nbases * nw in
      let mx = F.buf_create (max total 1) in
      let my = F.buf_create (max total 1) in
      let mfinite = Bytes.make (max total 1) '\000' in
      for k = 0 to total - 1 do
        match aff.(k) with
        | Some (x, y) ->
          F.buf_set mx k x;
          F.buf_set my k y;
          Bytes.set mfinite k '\001'
        | None -> ()
      done;
      { mwindow = window; mnwindows = nw; mbases = nbases; mx; my; mfinite }

    (* The C engine builds each chunk of bases' rows by doubling and one
       batch normalization; the scratch is two cells per row. *)
    let native_create (k : F.buf kernel) ~c (points : t array) =
      let n = Array.length points in
      let nw = nwindows_for c in
      let total = max (n * nw) 1 in
      let mx = F.buf_create total and my = F.buf_create total in
      let mfinite = Bytes.make total '\000' in
      let bases = F.buf_create (max (3 * n) 1) in
      Array.iteri
        (fun i p ->
          F.buf_set bases (3 * i) p.x;
          F.buf_set bases ((3 * i) + 1) p.y;
          F.buf_set bases ((3 * i) + 2) p.z)
        points;
      let sb = k.storage bases and sx = k.storage mx and sy = k.storage my in
      Pool.parallel_for_chunks ~chunks:(nchunks_for n) 0 n (fun ~lo ~hi ->
          c_table_build k.params sb sx sy mfinite
            (arena (64 * (hi - lo) * nw))
            c nw lo hi);
      { mwindow = c; mnwindows = nw; mbases = n; mx; my; mfinite }

    let msm_create ?window (points : t array) : msm_table =
      let n = Array.length points in
      let c = match window with Some c -> c | None -> msm_window_for n in
      if c < 2 || c > 16 then
        invalid_arg "Fixed_base.msm_create: window outside [2, 16]";
      match F.kernel with
      | Some k -> native_create k ~c points
      | None ->
        let nw = nwindows_for c in
        let rows = Array.make (max (n * nw) 1) zero in
        let build lo hi =
          for i = lo to hi - 1 do
            let cur = ref points.(i) in
            for j = 0 to nw - 1 do
              rows.((i * nw) + j) <- !cur;
              for _ = 1 to c do
                cur := double !cur
              done
            done
          done
        in
        let nchunks = nchunks_for n in
        Pool.parallel_for_chunks ~chunks:nchunks 0 n (fun ~lo ~hi -> build lo hi);
        of_affine_rows ~window:c ~nbases:n (batch_to_affine rows)

    (** The table rows as points (row-major by base: base i's rows occupy
        indices [i * nwindows, (i+1) * nwindows)); identity bases yield
        identity rows.  Serialization uses this view. *)
    let msm_rows (t : msm_table) : t array =
      Array.init (t.mbases * t.mnwindows) (fun k ->
          if row_finite t k then
            of_affine_unchecked (F.buf_get t.mx k, F.buf_get t.my k)
          else zero)

    (** Rebuild a table from decoded rows (the inverse of {!msm_rows}).
        Checks only shape; callers validating untrusted bytes must also
        check row contents against the bases (see Srs). *)
    let msm_of_rows ~window ~nbases (rows : t array) :
        (msm_table, string) result =
      if window < 2 || window > 16 then Error "fixed-base window outside [2, 16]"
      else if Array.length rows <> nbases * nwindows_for window then
        Error "fixed-base table has the wrong number of rows"
      else Ok (of_affine_rows ~window ~nbases (batch_to_affine rows))

    (* One chunk of a table MSM: bases [lo, hi) with their scalars, all
       windows into one shared bucket set. *)
    let msm_table_chunk (tb : msm_table) (scalars : Fr.t array) lo hi =
      let c = tb.mwindow in
      let nw = tb.mnwindows in
      let half = 1 lsl (c - 1) in
      let nchunk = hi - lo in
      let digits = Array.make (max 1 (nchunk * nw)) 0 in
      let dig_buf = Array.make nw 0 in
      let limbs = limb_scratch () in
      let counts = Array.make half 0 in
      for i = 0 to nchunk - 1 do
        signed_digits ~c limbs dig_buf scalars.(lo + i);
        for w = 0 to nw - 1 do
          let d = dig_buf.(w) in
          let d = if row_finite tb (((lo + i) * nw) + w) then d else 0 in
          digits.((i * nw) + w) <- d;
          if d <> 0 then counts.(abs d - 1) <- counts.(abs d - 1) + 1
        done
      done;
      let start = Array.make half 0 in
      let acc = ref 0 in
      for b = 0 to half - 1 do
        start.(b) <- !acc;
        acc := !acc + counts.(b)
      done;
      let total = !acc in
      let ex = F.buf_create (max total 1) in
      let ey = F.buf_create (max total 1) in
      let fill = Array.make half 0 in
      for i = 0 to nchunk - 1 do
        for w = 0 to nw - 1 do
          let d = digits.((i * nw) + w) in
          if d <> 0 then begin
            let b = abs d - 1 in
            let row = ((lo + i) * nw) + w in
            let pos = start.(b) + fill.(b) in
            fill.(b) <- fill.(b) + 1;
            F.buf_blit tb.mx row ex pos 1;
            if d > 0 then F.buf_blit tb.my row ey pos 1
            else F.buf_neg ey pos tb.my row
          end
        done
      done;
      ocaml_reduce ~ex ~ey ~start ~len:fill;
      compact_survivors ~ex ~ey ~start ~len:fill

    let native_msm (k : F.buf kernel) (tb : msm_table) (scalars : Fr.t array)
        =
      let n = Array.length scalars in
      let c = tb.mwindow and nw = tb.mnwindows and nchunks = nchunks_for n in
      with_work k ~n ~c ~nw ~nchunks ~table:true
      @@ fun w ws ~scalar_cell ~scratch ->
      write_scalars ws ~scalar_cell scalars n;
      let tx = k.storage tb.mx and ty = k.storage tb.my in
      ignore
        (Pool.parallel_init nchunks (fun ci ->
             count_rounds
               (c_chunk k.params ws (arena scratch) tx ty tb.mfinite ci)));
      count_rounds (c_merge k.params ws (arena scratch));
      work_result w

    (** MSM against the first [Array.length scalars] bases of the table.
        No doublings: every (base, window) entry is pre-shifted into ONE
        shared bucket set and a single running sum finishes. Chunked over
        bases with a fixed-order merge, same determinism contract as the
        generic {!msm}. *)
    let msm (tb : msm_table) (scalars : Fr.t array) =
      let n = Array.length scalars in
      if n > tb.mbases then
        invalid_arg "Fixed_base.msm: more scalars than table bases";
      Telemetry.count "curve.msm.calls" 1;
      Telemetry.count "curve.msm.points" n;
      Telemetry.count "curve.msm.fixed_base" 1;
      Telemetry.observe "curve.msm.size" (float_of_int n);
      if n = 0 then zero
      else begin
        Telemetry.observe "curve.msm.window_bits" (float_of_int tb.mwindow);
        match F.kernel with
        | Some k -> native_msm k tb scalars
        | None ->
          let half = 1 lsl (tb.mwindow - 1) in
          let nchunks = nchunks_for n in
          let parts =
            Pool.parallel_init nchunks (fun ci ->
                msm_table_chunk tb scalars (ci * n / nchunks)
                  ((ci + 1) * n / nchunks))
          in
          let ex, ey, start, len = merge_survivors ~nbuckets:half parts in
          bucket_running_sum ~ex ~ey ~start ~len ~first:0 ~count:half
      end
  end

  let random st = mul generator (Fr.random st)

  (** Order-r subgroup membership. On-curve points always satisfy this for
      cofactor-1 curves (G1); the G2 twist needs the explicit check. *)
  let in_subgroup p = is_zero (mul_nat p Fr.modulus)

  let to_bytes p =
    match to_affine p with
    | None -> "\x00"
    | Some (x, y) -> "\x04" ^ F.to_bytes x ^ F.to_bytes y

  (** Fixed-width encoding: infinity is padded to the same length as a
      finite point so records containing points are fixed-size. *)
  let encoded_size = 1 + (2 * F.num_bytes)

  let to_bytes_fixed p =
    let s = to_bytes p in
    s ^ String.make (encoded_size - String.length s) '\x00'

  let all_zero_from s i =
    let rec go i = i >= String.length s || (s.[i] = '\x00' && go (i + 1)) in
    go i

  (* Shared validation for decoded affine coordinates: canonical field
     bytes were already enforced by the caller; here we enforce the curve
     equation and (when the params require it) subgroup membership. *)
  let checked_affine x y =
    if not (on_curve_affine x y) then Error "not on curve"
    else
      let p = { x; y; z = F.one } in
      if P.subgroup_check && not (in_subgroup p) then Error "not in subgroup"
      else Ok p

  (** Total decoder for the fixed-width uncompressed encoding.  Rejects
      bad lengths/tags, non-canonical (>= modulus) coordinates, off-curve
      points, non-zero infinity padding, and (for G2) points outside the
      order-r subgroup. *)
  let of_bytes_fixed_result (s : string) : (t, string) result =
    if String.length s <> encoded_size then Error "bad length"
    else
      match s.[0] with
      | '\x00' -> if all_zero_from s 1 then Ok zero else Error "bad infinity padding"
      | '\x04' -> (
        let fw = F.num_bytes in
        match
          ( F.of_bytes_canonical (String.sub s 1 fw),
            F.of_bytes_canonical (String.sub s (1 + fw) fw) )
        with
        | Ok x, Ok y -> checked_affine x y
        | Error e, _ | _, Error e -> Error e)
      | _ -> Error "bad tag"

  (** Parse a fixed-width encoding; validates canonicity, the curve
      equation and (for G2) the subgroup.  Raises on malformed input —
      prefer {!of_bytes_fixed_result} for untrusted bytes. *)
  let of_bytes_fixed (s : string) : t =
    match of_bytes_fixed_result s with
    | Ok p -> p
    | Error "bad length" -> invalid_arg "Weierstrass.of_bytes_fixed: bad length"
    | Error _ -> invalid_arg "Weierstrass.of_affine: not on curve"

  (* ---------------- compressed form: sign bit + x ---------------- *)

  let compressed_size = 1 + F.num_bytes

  let to_bytes_compressed p =
    match to_affine p with
    | None -> "\x00" ^ String.make F.num_bytes '\x00'
    | Some (x, y) -> (if F.parity y then "\x03" else "\x02") ^ F.to_bytes x

  (** Total decoder for the compressed encoding: recovers y as
      sqrt(x^3 + b) with the tagged sign, with the same validation rules
      as {!of_bytes_fixed_result}. *)
  let of_bytes_compressed_result (s : string) : (t, string) result =
    if String.length s <> compressed_size then Error "bad length"
    else
      match s.[0] with
      | '\x00' -> if all_zero_from s 1 then Ok zero else Error "bad infinity padding"
      | ('\x02' | '\x03') as tag -> (
        match F.of_bytes_canonical (String.sub s 1 F.num_bytes) with
        | Error e -> Error e
        | Ok x -> (
          let y2 = F.add (F.mul (F.sqr x) x) P.b in
          match F.sqrt_opt y2 with
          | None -> Error "x not on curve"
          | Some y ->
            let want_odd = tag = '\x03' in
            let y = if F.parity y = want_odd then y else F.neg y in
            checked_affine x y))
      | _ -> Error "bad tag"

  (* ---------------- canonical wire codecs ---------------- *)

  module C = Zkdet_codec.Codec

  (** Compressed point codec — the default for all new wire formats. *)
  let codec : t C.t =
    C.with_context "point"
      (C.conv to_bytes_compressed of_bytes_compressed_result
         (C.bytes_fixed compressed_size))

  (** Uncompressed point codec — larger but cheap to decode (no square
      root); used for bulk artifacts such as SRS power tables. *)
  let codec_uncompressed : t C.t =
    C.with_context "point"
      (C.conv to_bytes_fixed of_bytes_fixed_result (C.bytes_fixed encoded_size))

  let pp fmt p =
    match to_affine p with
    | None -> Format.pp_print_string fmt "O"
    | Some (x, y) -> Format.fprintf fmt "(%a, %a)" F.pp x F.pp y
end
