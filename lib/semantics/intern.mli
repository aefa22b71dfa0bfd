(** Hash-consed interning of configuration components.

    The exploration engines fold states through their canonical
    representations — deep nested lists that OCaml's generic hash
    truncates after ~10 nodes.  Each component of a configuration (a
    process, the store, the allocation-counter map, the error marker)
    is interned into a small integer id with a {e full-width}
    structural hash, so a whole configuration collapses to a flat int
    tuple ({!Config.digest}) whose equality and hashing are O(#procs).

    Processes, stores and environments carry their own lazily filled
    ids and own their pools ({!Proc.id}, {!Store.id}, {!Env.id}); this
    module holds the counter and error pools, the counter-map edge
    memo, and the snapshot/restore of every pool.  A component derived
    from a parent with a known id by a few edits resolves through an
    edge memo [(parent id, edits) -> id] first; the pool stays the
    ground truth.

    Invariants:
    - id equality is equivalent to structural equality of the canonical
      representation ([Proc.id a = Proc.id b] iff
      [Proc.repr a = Proc.repr b], [Store.id a = Store.id b] iff
      [Store.repr a = Store.repr b], and likewise for the others);
    - ids are never reused, so digests remain valid for the life of the
      process.

    Domain-safety: each pool and memo serializes its own lookups and id
    assignment under a mutex, so the process-wide pools may be shared
    by any number of OCaml 5 domains.  Ids stay sequential and stable
    no matter how many domains intern concurrently; the parallel
    exploration engine relies on this. *)

module CounterMap : Map.S with type key = Value.pid * int
(** The allocation-counter map, keyed by (pid, site).  Defined here (and
    re-exported by {!Config}) so {!counters_id} can take it. *)

type state
(** The process-wide interner: there is exactly one, since components
    cache the ids it hands out. *)

val global : unit -> state

val counters_id :
  state -> ?edge:(Value.pid * int) Cobegin_hash.edge -> int CounterMap.t -> int
(** The counter map's id: through the edge memo when [edge] records the
    bumps that made the map from one with a known id, else (and on a
    memo miss) by the pool. *)

val error_id : state -> string option -> int
(** [-1] for [None]; interned string ids (≥ 0) for [Some _]. *)

val distinct_procs : state -> int
val distinct_stores : state -> int
(** Pool sizes, for instrumentation and the E14 bench. *)

(** {2 Snapshot / restore}

    Checkpointing support ({!Cobegin_explore.Checkpoint}): a snapshot
    captures the deep canonical representations behind every interned
    id ({!Proc.repr}, {!Store.repr}, never environment ids), so digests
    serialized to disk can be rebuilt in another process. *)

type snapshot
(** The id-indexed contents of all four pools.  Pure data
    ([Marshal]-safe), taken atomically per pool. *)

val snapshot : state -> snapshot

type remap = {
  rm_procs : int array;  (** saved proc id → id in the restored pools *)
  rm_stores : int array;
  rm_counters : int array;
  rm_errors : int array;
}

val restore : state -> snapshot -> remap
(** Re-intern every snapshotted representation (idempotent for
    components already present) and return the saved-id → new-id maps.
    Restoring a snapshot into the fresh pools of a new process yields
    the identity remap; restoring into warm pools yields valid ids that
    merely differ in numbering.  The saved error
    id [-1] ([None]) is not in the map — it stays [-1]. *)
