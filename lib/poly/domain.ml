(* Multiplicative-subgroup evaluation domains over the BN254 scalar field,
   with radix-2 (I)FFT and coset variants used by the Plonk quotient
   computation.

   Transforms run in place on flat Fr kernel buffers (Fr.buf): one
   contiguous allocation for the whole vector.  A transform is one
   bit-reversal call and then one Fr.buf_fft_layer call per radix-2
   layer (per chunk when the layer is split over the pool); the layer
   reads its twiddles from a table of omega^j, so no twiddle is computed
   while transforming.  The tables depend only on the size and are built
   once per size, on the first transform, and shared by every domain of
   that size. *)

module Fr = Zkdet_field.Bn254.Fr
module Pool = Zkdet_parallel.Pool
module Telemetry = Zkdet_telemetry.Telemetry

(* Transforms below this size are not worth scheduling on the pool. *)
let par_threshold = 256

type t = {
  log2size : int;
  size : int;
  omega : Fr.t;
  shift : Fr.t; (* coset generator for the coset transforms *)
}

let create log2size =
  if log2size < 0 || log2size > Fr.two_adicity then
    invalid_arg "Domain.create: size beyond the field's 2-adicity";
  let size = 1 lsl log2size in
  let shift = Fr.coset_shift in
  (* The coset gH must be disjoint from H: shift^size <> 1. *)
  assert (not (Fr.is_one (Fr.pow shift size)));
  { log2size; size; omega = Fr.root_of_unity ~log2size; shift }

let size d = d.size
let log2size d = d.log2size
let omega d = d.omega
let shift d = d.shift

(** [element d i] is omega^i. *)
let element d i = Fr.pow d.omega (i mod d.size)

(** All domain elements in order. *)
let elements d =
  let a = Array.make d.size Fr.one in
  for i = 1 to d.size - 1 do
    a.(i) <- Fr.mul a.(i - 1) d.omega
  done;
  a

(* The tables of one size n. *)
type tables = {
  fwd : Fr.buf; (* omega^j, j < n/2 *)
  bwd : Fr.buf; (* omega^-j, j < n/2 *)
  coset : Fr.buf; (* g^i, i < n *)
  coset_inv : Fr.buf; (* n^-1 g^-i, i < n: the coset iFFT's last pass *)
  size_inv : Fr.buf; (* one cell: n^-1 *)
}

(* Cells x0 * step^i, i < len. *)
let powers x0 step len =
  let b = Fr.buf_create len in
  if len > 0 then begin
    let s = Fr.buf_create 1 in
    Fr.buf_set s 0 step;
    Fr.buf_set b 0 x0;
    for i = 1 to len - 1 do
      Fr.buf_mul b i b (i - 1) s 0
    done
  end;
  b

let build_tables d =
  let n = d.size in
  let n_inv = Fr.inv (Fr.of_int n) in
  {
    fwd = powers Fr.one d.omega (n / 2);
    bwd = powers Fr.one (Fr.inv d.omega) (n / 2);
    coset = powers Fr.one d.shift n;
    coset_inv = powers n_inv (Fr.inv d.shift) n;
    size_inv = Fr.buf_of_array [| n_inv |];
  }

(* One slot per size.  A transform may first run on a pool worker, where
   racing a Lazy.force would raise; two racing builders instead both
   build, the first to publish wins and the other adopts its tables. *)
let cache : tables option Atomic.t array =
  Array.init (Fr.two_adicity + 1) (fun _ -> Atomic.make None)

let tables d =
  let slot = cache.(d.log2size) in
  match Atomic.get slot with
  | Some t -> t
  | None ->
    let t = build_tables d in
    if Atomic.compare_and_set slot None (Some t) then t
    else Option.get (Atomic.get slot)

(* Bit-reverse, then one layer call per layer (per chunk when the layer
   is split).  Blocks are disjoint, and within a block the j-ranges are
   disjoint, so any partition can run concurrently; the chunking below
   only decides how the pool shares the work, and the result is the same
   at any pool size. *)
let transform (a : Fr.buf) (tw : Fr.buf) =
  let n = Fr.buf_length a in
  Telemetry.count "fft.calls" 1;
  Telemetry.count "fft.points" n;
  Telemetry.observe "fft.size" (float_of_int n);
  Fr.buf_bit_reverse a;
  let len = ref 2 in
  while !len <= n do
    let len_v = !len in
    let half = len_v / 2 and nblocks = n / len_v in
    (* This layer's root is omega^(n / len_v), so its twiddles sit
       nblocks cells apart in the table. *)
    let layer ~blo ~bhi ~jlo ~jhi =
      Fr.buf_fft_layer a ~tw ~stride:nblocks ~half ~blo ~bhi ~jlo ~jhi
    in
    if n < par_threshold then layer ~blo:0 ~bhi:nblocks ~jlo:0 ~jhi:half
    else if nblocks >= 8 then
      (* many small blocks: one or more blocks per task *)
      Pool.parallel_for_chunks 0 nblocks (fun ~lo ~hi ->
          layer ~blo:lo ~bhi:hi ~jlo:0 ~jhi:half)
    else
      (* few large blocks (top layers): split each block's butterflies *)
      for b = 0 to nblocks - 1 do
        Pool.parallel_for_chunks 0 half (fun ~lo ~hi ->
            layer ~blo:b ~bhi:(b + 1) ~jlo:lo ~jhi:hi)
      done;
    len := len_v * 2
  done

(* a.(i) <- a.(i) * tab.(i * stride): stride 1 scales by a table, stride
   0 by the constant in cell 0. *)
let scale (a : Fr.buf) (tab : Fr.buf) ~stride =
  let n = Fr.buf_length a in
  let chunk ~lo ~hi =
    for i = lo to hi - 1 do
      Fr.buf_mul a i a i tab (i * stride)
    done
  in
  if n < par_threshold then chunk ~lo:0 ~hi:n
  else Pool.parallel_for_chunks 0 n chunk

(** [buf_of_coeffs d coeffs] loads a coefficient vector into a fresh
    domain-sized flat buffer (zero padded). *)
let buf_of_coeffs d (coeffs : Fr.t array) : Fr.buf =
  if Array.length coeffs > d.size then
    invalid_arg "Domain.buf_of_coeffs: polynomial larger than domain";
  let a = Fr.buf_create d.size in
  Array.iteri (fun i c -> Fr.buf_set a i c) coeffs;
  a

let check_size d (a : Fr.buf) name =
  if Fr.buf_length a <> d.size then invalid_arg (name ^ ": size mismatch")

(** In-place transforms over domain-sized flat buffers. *)
let fft_buf d (a : Fr.buf) =
  check_size d a "Domain.fft_buf";
  transform a (tables d).fwd

let ifft_buf d (a : Fr.buf) =
  check_size d a "Domain.ifft_buf";
  let t = tables d in
  transform a t.bwd;
  scale a t.size_inv ~stride:0

let coset_fft_buf d (a : Fr.buf) =
  check_size d a "Domain.coset_fft_buf";
  let t = tables d in
  scale a t.coset ~stride:1;
  transform a t.fwd

let coset_ifft_buf d (a : Fr.buf) =
  check_size d a "Domain.coset_ifft_buf";
  let t = tables d in
  transform a t.bwd;
  scale a t.coset_inv ~stride:1

(** Z_H(x) = x^n - 1. *)
let vanishing_eval d x = Fr.sub (Fr.pow x d.size) Fr.one

(** L_i(x) = omega^i (x^n - 1) / (n (x - omega^i)), the i-th Lagrange basis
    polynomial of the domain, evaluated outside the domain. *)
let lagrange_eval d i x =
  let wi = element d i in
  let num = Fr.mul wi (vanishing_eval d x) in
  let den = Fr.mul (Fr.of_int d.size) (Fr.sub x wi) in
  Fr.div num den

(** L_0(x) .. L_(k-1)(x) by the same formula, with one inversion for all
    k denominators (Montgomery's trick); [zh] is x^n - 1. *)
let lagrange_evals d ~zh k x =
  let n = Fr.of_int d.size in
  let w = Array.make k Fr.one in
  for i = 1 to k - 1 do
    w.(i) <- Fr.mul w.(i - 1) d.omega
  done;
  let inv = Fr.batch_inv (Array.map (fun wi -> Fr.mul n (Fr.sub x wi)) w) in
  Array.mapi (fun i wi -> Fr.mul (Fr.mul wi zh) inv.(i)) w
