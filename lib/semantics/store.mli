(** The shared store: locations to values, plus instrumentation metadata
    (birthdates, heap/exposure flags, malloc block sizes).  Metadata is
    excluded from equality — it is functionally determined by the logical
    state, and keeping it out lets interleavings that reach the same
    state fold during exploration. *)

type t

val empty : t
val find : Value.loc -> t -> Value.t option
val mem : Value.loc -> t -> bool
val set : Value.loc -> Value.t -> t -> t

val alloc :
  ?heap:bool -> ?exposed:bool -> birth:Pstring.t -> Value.loc -> Value.t -> t -> t
(** Create a cell.  [heap] marks malloc cells; [exposed] marks
    address-taken variables; [birth] is the creating procedure string. *)

val free : Value.LocSet.t -> t -> t
(** Remove the cells; later accesses are runtime errors. *)

val birth : Value.loc -> t -> Pstring.t option
val is_heap : Value.loc -> t -> bool

val is_mem_covered : Value.loc -> t -> bool
(** Reachable through a pointer: a heap cell or an address-taken
    variable.  The memory token of the may-access summaries concretizes
    to exactly these. *)

val register_block : Value.loc -> int -> t -> t
(** Record a malloc block's size under its base location. *)

val block_cells : Value.loc -> t -> Value.LocSet.t option
(** All cells of the block [loc] points into; [None] if [loc] is not a
    registered block. *)

val repr : t -> (Value.loc * Value.t) list
(** Canonical representation: the cells, sorted by location. *)

val hash : t -> int
(** A full-width hash of the cells alone, independent of the order they
    were written in.  Computed on the first call and cached on the
    value; an update that changes the cells starts over. *)

val equal : t -> t -> bool
(** Equal cells (metadata ignored).  Compares cached hashes first. *)

val bindings : t -> (Value.loc * Value.t) list

val id : t -> int
(** The cells' number in a process-wide, never-cleared pool: equal
    cells get equal ids, metadata ignored.  Computed on the first call
    and cached on the value.  A store made by {!set}/{!alloc} from one
    whose id was known resolves through an edge memo keyed on (that id,
    the writes), counting [intern.store_edge_hits] or
    [intern.store_edge_misses]; only a memo miss or a store with no
    recorded edge asks the pool ({!hash}, then {!equal} on a hit). *)

val cached_id : t -> int
(** The id if {!id} has filled it already, else [-1]. *)

val distinct : unit -> int
(** Number of distinct stores the pool holds. *)

val interned : unit -> (Value.loc * Value.t) list array
(** The cells of every pooled store, indexed by id (checkpoints). *)

val forget_id : t -> t
(** The same store with no cached id and no recorded edge, for values
    from another process (a checkpoint).  The cached hash stays: it
    depends on the cells alone. *)

val pp : Format.formatter -> t -> unit
