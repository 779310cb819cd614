(** Deterministic merge scheduling for optimistically-executed blocks.

    Phase A (owned by [Chain.produce_block]) executes every candidate
    transaction speculatively in parallel against the frozen pre-block
    state, recording per-transaction read/write key sets.  This module
    owns phase B: a sequential walk in canonical order that commits each
    speculative result whose key sets are disjoint from everything
    written earlier in the block, and re-executes the rest against live
    state.  The schedule depends only on the canonical order and the
    key sets — never on domain count — so the merged state is
    byte-identical at any [ZKDET_DOMAINS]. *)

module Key_set : sig
  type t

  val create : unit -> t
  val add : t -> string -> unit

  val intersects : t -> t -> bool
  (** Whether the two sets share a key. *)

  val union_into : t -> t -> unit
  (** [union_into t ks] adds every key of [ks] to [t]. *)
end

type decision = Commit | Reexec

val merge :
  count:int ->
  sets:(int -> Key_set.t * Key_set.t) ->
  commit:(int -> unit) ->
  reexec:(int -> Key_set.t) ->
  decision array
(** Walk candidates [0..count-1] in order with a running dirtied-key
    set.  [sets i] gives candidate [i]'s speculative (reads, writes);
    non-conflicting candidates receive [commit i], conflicting ones
    [reexec i] (re-run against live state, return the keys actually
    written).  Write-write overlaps count as conflicts: storage-write
    gas depends on the slot's previous value. *)

val reexec_count : decision array -> int
