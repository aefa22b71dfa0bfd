(** Process states: fork path, current environment, procedure string, a
    continuation stack of work items and — under relaxed memory models —
    a FIFO store buffer of issued-but-unflushed writes. *)

open Cobegin_lang

(** Continuation items.  [Ipop] restores the environment at block exit;
    [Iret] marks a pending procedure return (destination + caller
    environment); [Ijoin] waits for the children of a cobegin. *)
type item =
  | Istmt of Ast.stmt
  | Ipop of Env.t
  | Iret of { dest : Ast.lvalue option; saved_env : Env.t; site : int }
  | Ijoin of { cob : int; children : Value.pid list }

type scache
(** The interned ids of a stack's suffixes (see {!id}). *)

type t = private {
  pid : Value.pid;
  env : Env.t;
  stack : item list;
  pstr : Pstring.t;
  buf : (Value.loc * Value.t) list;
      (** store buffer, oldest write first; always [[]] under SC *)
  mutable id : int;  (** filled by {!id} only; -1 until then *)
  mutable pid_id : int;
  mutable pstr_id : int;
  mutable buf_id : int;
  mutable scache : scache;
}
(** Private: processes are built by {!make} and derived by {!update},
    which keep the cached ids of the parts left physically unchanged
    and forget the process's own id — so no process carries a stale
    id. *)

val make :
  ?buf:(Value.loc * Value.t) list ->
  pid:Value.pid ->
  env:Env.t ->
  stack:item list ->
  pstr:Pstring.t ->
  unit ->
  t
(** A process with no cached ids. *)

val update :
  ?env:Env.t ->
  ?stack:item list ->
  ?pstr:Pstring.t ->
  ?buf:(Value.loc * Value.t) list ->
  t ->
  t
(** The process with the given parts replaced; the process itself when
    every given part is physically the one it has. *)

(** Canonical forms of a process, over a form ['e] of its
    environments: statements identified by label, procedure strings and
    store buffers verbatim (buffer order is semantically significant).
    A pending return is keyed by its call site and destination. *)
type 'e item_form =
  | Rstmt of int
  | Rpop of 'e  (** the environment the block exit restores *)
  | Rret of int * Ast.lvalue option * 'e  (** site, destination, caller env *)
  | Rjoin of int * Value.pid list

type 'e form = {
  r_pid : Value.pid;
  r_env : 'e;
  r_stack : 'e item_form list;
  r_pstr : Pstring.t;
  r_buf : (Value.loc * Value.t) list;
}

type item_repr = (string * Value.loc) list item_form

type repr = (string * Value.loc) list form
(** Environments by sorted bindings: the deep ground truth, and what
    checkpoints save. *)

type key = int form
(** Environments by {!Env.id}.  [key a = key b] iff [repr a = repr b]. *)

val item_repr : item -> item_repr
val repr : t -> repr

val key : t -> key
(** Interns the environments whose ids are not cached yet. *)

val id : t -> int
(** The process's number in a process-wide, never-cleared pool:
    [id a = id b] iff [repr a = repr b].  Computed on the first call and
    cached on the value.  The pool keys on five ints — the ids of the
    pid, the environment ({!Env.id}), the stack, the procedure string
    and the buffer — and the stack's id is that of its top cell, a
    (item, id of the stack below) pair: a derived process reuses the
    ids of the stack suffix its parent left physically in place, and
    interns only the pushed items.  No key is built and no polymorphic
    equality is called on a process. *)

val distinct : unit -> int
(** Number of distinct processes the pool holds. *)

val id_of_repr : repr -> int
(** The id of any process with this representation (checkpoint
    restore). *)

val interned : unit -> repr array
(** Every pooled process in its deep form, indexed by id (checkpoint
    snapshots). *)

val forget_ids : t -> t
(** The same process with no cached ids, its environments' included
    (see {!Env.forget_id}). *)

val next_stmt : t -> Ast.stmt option
(** The statement the process executes next, when its top item is one. *)

val is_terminated : t -> bool
(** The process has run to completion: no continuation left {e and} no
    buffered write still awaiting a flush. *)

val pp_item : Format.formatter -> item -> unit
val pp : Format.formatter -> t -> unit
