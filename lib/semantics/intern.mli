(** Hash-consed interning of configuration components.

    The exploration engines fold states through their canonical
    representations — deep nested lists that OCaml's generic hash
    truncates after ~10 nodes.  This layer interns each component of a
    configuration (a process, the store, the allocation-counter map,
    the error marker) into a small integer id with a {e full-width}
    structural hash, so a whole configuration collapses to a flat int
    tuple ({!Config.digest}) whose equality and hashing are O(#procs).

    Every [*_id] call here looks the component up in its pool.  A
    process is keyed by its shallow {!Proc.key}, whose environments are
    hash-consed ids ({!Env.id}); a store by itself, through its cached
    {!Store.hash} and {!Store.equal}.  Incrementality lives
    one level up: a configuration carries the ids of its components
    once digested, and a step forgets only the ids of what it changed,
    so {!Config.digest} calls this module for the changed components
    alone.

    Invariants:
    - id equality is equivalent to structural equality of the canonical
      representation ([proc_id a = proc_id b] iff
      [Proc.repr a = Proc.repr b], [store_id a = store_id b] iff
      [Store.repr a = Store.repr b], and likewise for the others);
    - ids are never reused, so digests remain valid for the lifetime of
      the interner that produced them.

    Domain-safety: each pool serializes its own lookups and id
    assignment under a mutex, so one interner — in particular
    {!global}, which is created eagerly at module initialization — may
    be shared by any number of OCaml 5 domains.  Ids stay sequential
    and stable no matter how many domains intern concurrently; the
    parallel exploration engine relies on this. *)

module CounterMap : Map.S with type key = Value.pid * int
(** The allocation-counter map, keyed by (pid, site).  Defined here (and
    re-exported by {!Config}) so {!counters_id} can take it. *)

type state
(** An interner: one pool per component kind. *)

val create : unit -> state

val global : unit -> state
(** The process-wide default interner used by {!Config.digest}.  Ids
    from distinct [state]s are not comparable; stick to one. *)

val proc_id : state -> Proc.t -> int
val store_id : state -> Store.t -> int
val counters_id : state -> int CounterMap.t -> int
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
(** Re-intern every snapshotted representation into [st] (idempotent
    for components already present) and return the saved-id → new-id
    maps.  Restoring a snapshot into the fresh interner of a new
    process yields the identity remap; restoring into a warm interner
    yields valid ids that merely differ in numbering.  The saved error
    id [-1] ([None]) is not in the map — it stays [-1]. *)
