(** Configurations — the global states of the interleaving semantics
    (paper section 2): live processes, shared store, allocation counters
    and an optional error marker.  Equality and hashing go through a
    canonical representation so that exploration folds states reached by
    different interleavings. *)

module PidMap : Map.S with type key = Value.pid
module CounterMap : Map.S with type key = Value.pid * int

type t = private {
  procs : Proc.t PidMap.t;
  store : Store.t;
  counters : int CounterMap.t;  (** next sequence number per (pid, site) *)
  error : string option;  (** a runtime failure: the configuration is terminal *)
  mutable counters_id : int;  (** filled by {!digest} only; -1 until then *)
  counters_edge : (Value.pid * int) Cobegin_hash.edge;
      (** the (pid, site) bumps since a counter map with a known id *)
}
(** Private: configurations are built by {!make} and derived by the
    updates below.  Processes and the store carry their own ids
    ({!Proc.id}, {!Store.id}); the counter map's id lives here, and
    only {!next_seq} changes the map — so no configuration carries a
    stale id. *)

val make :
  procs:Proc.t PidMap.t ->
  store:Store.t ->
  counters:int CounterMap.t ->
  error:string option ->
  t
(** A configuration whose counter-map id is unknown (its processes and
    store keep whatever ids they carry). *)

val processes : t -> Proc.t list
(** Live processes, in pid order. *)

val find_proc : Value.pid -> t -> Proc.t option
val num_procs : t -> int
val is_error : t -> bool

val all_terminated : t -> bool
(** Every process has run to completion: a final configuration. *)

val next_seq : pid:Value.pid -> site:int -> t -> int * t
(** Allocate the next sequence number for (pid, site).  The new counter
    map records the bump as an edge from the old map's id when that is
    known (see {!digest}). *)

val update_proc : Proc.t -> t -> t
val remove_proc : Value.pid -> t -> t
val add_proc : Proc.t -> t -> t
(** Each returns the configuration itself when the process map is
    physically unchanged. *)

val with_store : Store.t -> t -> t

val forget_ids : t -> t
(** The same configuration with no cached id and no recorded edge on it
    or any of its components ({!Proc.forget_ids}, {!Store.forget_id}):
    for values from another process (a checkpoint), and the ground
    truth a derived digest is checked against. *)

val with_error : string -> t -> t

type repr
(** Canonical representation: pure data with structural equality. *)

val repr : t -> repr

type digest = {
  d_procs : int array;  (** interned {!Proc.key} ids, in pid order *)
  d_store : int;  (** interned store id *)
  d_counters : int;  (** interned counter-map id *)
  d_error : int;  (** -1, or the interned error string id *)
  d_hash : int;  (** precomputed full-width hash of the tuple *)
}
(** Hash-consed identity (see {!Intern}): a flat int tuple such that
    [digest_equal (digest a) (digest b)] iff [repr a = repr b]. *)

val digest : t -> digest
(** Read each component's cached id, resolving only those not cached
    yet ({!Proc.id}, {!Store.id}, and the counter map's id here); the
    resolved ids stay on the components, so a one-process step resolves
    only the changed process (and the store or counters, when written)
    and a repeated digest is an array of reads.  A store or counter map
    written by the step, and an environment bound by it, resolve
    through an edge memo from the parent's id; a changed process is
    five ints into its pool, its stack interning only the pushed items.
    Counts [intern.memo_hits] (an id read) and [intern.memo_misses] (an
    id resolved). *)

val digest_of_ids :
  d_procs:int array -> d_store:int -> d_counters:int -> d_error:int -> digest
(** Rebuild a digest from component ids (recomputing [d_hash] with the
    same formula {!digest} uses).  For checkpoint restore, where saved
    ids are mapped through an {!Intern.remap} before reuse.  The ids
    must come from the interner the digest will be compared under. *)

val digest_equal : digest -> digest -> bool
val digest_hash : digest -> int

module Digest_tbl : Hashtbl.S with type key = digest
(** The specialized visited-set table every state-folding client keys
    by: hashing reads the precomputed [d_hash], equality compares a
    handful of ints. *)

val equal : t -> t -> bool
val hash : t -> int
(** Both go through {!digest} (full-width, cached ids). *)

val pp : Format.formatter -> t -> unit
