(* Deterministic merge scheduling for optimistically-executed blocks.

   The block builder runs every candidate transaction speculatively (in
   parallel, against the frozen pre-block state) and records the state
   keys each one read and wrote.  This module owns the sequential merge
   that follows: walking the candidates in canonical order with a
   running set of dirtied keys,

   - a transaction whose read and write sets are disjoint from every
     key written by an earlier transaction in the block is untouched by
     its predecessors, so its speculative result (computed against the
     pre-block state) is still exact and its buffered writes commit
     as-is;
   - otherwise its speculation is stale and it re-executes against the
     live state, which by induction already reflects transactions
     0..i-1.

   Either way the keys the transaction actually wrote join the dirtied
   set.  The schedule consults only the canonical order and the key
   sets, so the outcome is identical at any domain count: parallelism
   only decides how fast phase A runs, never what phase B commits.

   Write-write conflicts are treated as conflicts even without an
   intervening read because gas for storage writes depends on the
   previous value of the slot (warm/zero refunds), so a blind overwrite
   of a dirtied key can still change the fee. *)

module Key_set = struct
  type t = (string, unit) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let add (t : t) k = Hashtbl.replace t k ()

  (* Membership tests only: the answer does not depend on the order in
     which [ks]'s keys are visited. *)
  let intersects (t : t) (ks : t) = Seq.exists (Hashtbl.mem t) (Hashtbl.to_seq_keys ks)
  let union_into t (ks : t) = Hashtbl.iter (fun k () -> add t k) ks
end

type decision = Commit | Reexec

(** [merge ~count ~sets ~commit ~reexec] walks indices [0..count-1] in
    order.  [sets i] returns the speculative (reads, writes) key sets
    of candidate [i].  Non-conflicting candidates get [commit i] (apply
    the speculative buffer); conflicting ones get [reexec i], which must
    re-run the transaction against live state and return the keys it
    actually wrote.  Returns the per-candidate decisions. *)
let merge ~count ~(sets : int -> Key_set.t * Key_set.t)
    ~(commit : int -> unit) ~(reexec : int -> Key_set.t) : decision array =
  let dirtied = Key_set.create () in
  let decisions = Array.make count Commit in
  for i = 0 to count - 1 do
    let reads, writes = sets i in
    if Key_set.intersects dirtied reads || Key_set.intersects dirtied writes
    then begin
      decisions.(i) <- Reexec;
      Key_set.union_into dirtied (reexec i)
    end
    else begin
      commit i;
      Key_set.union_into dirtied writes
    end
  done;
  decisions

let reexec_count (d : decision array) =
  Array.fold_left (fun n -> function Reexec -> n + 1 | Commit -> n) 0 d
