(** Configurations — the global states of the interleaving semantics
    (paper section 2): live processes, shared store, allocation counters
    and an optional error marker.  Equality and hashing go through a
    canonical representation so that exploration folds states reached by
    different interleavings. *)

module PidMap : Map.S with type key = Value.pid
module CounterMap : Map.S with type key = Value.pid * int

type ids
(** The interned ids of the components already digested (see
    {!digest}); unknown for every component of a fresh configuration. *)

type t = private {
  procs : Proc.t PidMap.t;
  store : Store.t;
  counters : int CounterMap.t;  (** next sequence number per (pid, site) *)
  error : string option;  (** a runtime failure: the configuration is terminal *)
  mutable ids : ids;  (** filled by {!digest} only *)
}
(** Private: configurations are built by {!make} and derived by the
    updates below, which keep the ids of untouched components and
    forget the rest — so no configuration carries a stale id. *)

val make :
  procs:Proc.t PidMap.t ->
  store:Store.t ->
  counters:int CounterMap.t ->
  error:string option ->
  t
(** A configuration with every component id unknown. *)

val processes : t -> Proc.t list
(** Live processes, in pid order. *)

val find_proc : Value.pid -> t -> Proc.t option
val num_procs : t -> int
val is_error : t -> bool

val all_terminated : t -> bool
(** Every process has run to completion: a final configuration. *)

val next_seq : pid:Value.pid -> site:int -> t -> int * t
(** Allocate the next sequence number for (pid, site); forgets the
    counter id. *)

val update_proc : Proc.t -> t -> t
val remove_proc : Value.pid -> t -> t
val add_proc : Proc.t -> t -> t
(** Each forgets the id of that pid only, and returns the configuration
    itself when the process map is physically unchanged. *)

val with_store : Store.t -> t -> t
(** Forgets the store id unless the store is physically unchanged. *)

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
(** Intern against the process-wide default interner
    ({!Intern.global}).  Only the components whose ids [t] does not
    carry yet are interned; the ids are then stored on [t], so a
    one-process step interns only the changed process (and the store
    or counters, when written) and a repeated digest interns nothing.
    The changed process is keyed shallowly ({!Proc.key}: environments
    by their cached {!Env.id}) and the store by its cached
    {!Store.hash}.  Cost: O(changed components) plus O(#procs log #procs) to
    assemble the tuple.  Counts [intern.memo_hits] (an id reused) and
    [intern.memo_misses] (a pool intern). *)

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
