(** Environments: variable names to locations.  Blocks save and restore
    environments at entry/exit (lexical scoping); cobegin branches
    inherit the spawning environment — which is how concurrent threads
    come to share variables. *)

type t

val empty : t
val find : string -> t -> Value.loc option
val bind : string -> Value.loc -> t -> t
val bindings : t -> (string * Value.loc) list

val of_bindings : (string * Value.loc) list -> t
(** The environment binding exactly these names (the last binding of a
    repeated name wins). *)

val id : t -> int
(** The environment's number in a process-wide hash-consing pool: equal
    binding maps get equal ids, and distinct ones distinct ids.
    Computed on the first call and cached on the value, so a step that
    does not bind — and so passes its environment on physically — never
    resolves it again.  An environment made by {!bind} from one whose id
    was known resolves through an edge memo keyed on (that id, the
    binds), and asks the pool only on a memo miss.  Counts
    [intern.env_interns] per resolution and [intern.env_edge_hits] per
    memo hit.  Ids are valid for the life of the process only. *)

val forget_id : t -> t
(** The same bindings with no cached id and no recorded edge, for
    values that come from another process (a checkpoint), whose ids
    number that process's pool. *)

val interned : unit -> t array
(** Every environment the pool holds, indexed by id — what a
    checkpoint needs to turn ids back into bindings. *)

val locations : t -> Value.LocSet.t
(** The locations named by the environment's bindings. *)

val pp : Format.formatter -> t -> unit
