(** Full-width structural hashing and hash-consing primitives.

    OCaml's generic [Hashtbl.hash] inspects at most ~10 meaningful nodes
    of its argument, so deep canonical representations (configuration
    reprs, Petri markings, abstract-machine keys) degenerate into
    collision chains on anything bigger than a toy program.  This module
    provides explicit full-width folds — every node of the value
    contributes to the hash — plus the building block of the interning
    layer: sequential-id {!Pool}s keyed by structural equality. *)

val combine : int -> int -> int
(** [combine h k] mixes [k] into the running hash [h] (boost-style,
    full native-int width, always non-negative). *)

val hash_int : int -> int
(** Mix a single integer through {!combine} (avalanches nearby ints). *)

val hash_bool : bool -> int

val hash_string : string -> int
(** Folds over {e every} byte of the string. *)

val hash_list : ('a -> int) -> 'a list -> int
(** Folds over every element; the length is mixed in, so a prefix never
    hashes like the whole. *)

val hash_option : ('a -> int) -> 'a option -> int

val hash_int_array : int array -> int
(** Full fold over the array — the replacement for
    [Hashtbl.hash (Array.to_list m)] truncated at ~10 elements. *)

(** Hash-consing pool: assigns small sequential ids to structurally
    distinct keys.  Two keys receive the same id iff they are equal per
    [H.equal]; ids are never reused, so id equality is a sound and
    complete proxy for structural equality of the interned values.

    Lookup is mutex-guarded, so a pool may be shared across OCaml 5
    domains: ids stay sequential and stable no matter how many domains
    intern concurrently. *)
module Pool (H : Hashtbl.HashedType) : sig
  type t

  val create : int -> t
  val intern : t -> H.t -> int
  val size : t -> int
  (** Number of distinct keys interned so far (= the next fresh id). *)

  val by_id : t -> H.t array
  (** Every key interned so far, indexed by its id, read atomically
      under the pool mutex.  For snapshot/restore ({!Intern}). *)
end

(** {2 Edges}

    A value derived from a parent whose id is known by one edit (or a
    short run of them) can record the derivation: the parent's id and
    the edits since, newest first.  Its contents are a function of the
    parent's contents and the edits, so [(base, edits) -> id] is a sound
    memo in front of the value's pool. *)

type 'e edge = private { base : int;  (** -1: none recorded *) edits : 'e list }

val no_edge : 'e edge

val derive : id:int -> 'e edge -> 'e -> 'e edge
(** The edge of a value made by edit [e] from a parent with id [id]
    ([-1] when unknown) and edge [edge]: from the parent when its id is
    known, else the parent's edge extended (up to 8 edits), else
    none. *)

(** Edge memo: [(base id, edits) -> id].  It never forgets an entry and
    never decides identity: every id it holds came from the value's
    pool.  Mutex-guarded like {!Pool}. *)
module Memo (E : Hashtbl.HashedType) : sig
  type t

  val create : int -> t

  val resolve : t -> E.t edge -> hit:(unit -> unit) -> (unit -> int) -> int
  (** [resolve m edge ~hit intern] is the recorded id of [edge] (calling
      [hit]), else [intern ()], recorded for next time.  With no edge it
      is [intern ()]. *)
end

(** A {!Pool} specialized to keys of five ints, for the interners whose
    keys are ids of parts: flat arrays under open addressing, so a
    lookup allocates nothing and follows no pointer.  Same contract as
    {!Pool}: sequential, stable, never-reused ids, mutex-guarded. *)
module Ipool : sig
  type t

  val create : int -> t
  val intern : t -> int -> int -> int -> int -> int -> int
  val size : t -> int

  val by_id : t -> int array array
  (** Every five-int key, indexed by its id, as {!Pool.by_id}. *)
end
