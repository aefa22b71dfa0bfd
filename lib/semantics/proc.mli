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

type t = {
  pid : Value.pid;
  env : Env.t;
  stack : item list;
  pstr : Pstring.t;
  buf : (Value.loc * Value.t) list;
      (** store buffer, oldest write first; always [[]] under SC *)
}

val make :
  ?buf:(Value.loc * Value.t) list ->
  pid:Value.pid ->
  env:Env.t ->
  stack:item list ->
  pstr:Pstring.t ->
  unit ->
  t

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
(** Environments by {!Env.id}: the shallow identity the intern pool
    keys on.  [key a = key b] iff [repr a = repr b]. *)

val item_repr : item -> item_repr
val repr : t -> repr

val key : t -> key
(** Interns the environments whose ids are not cached yet. *)

val key_of_repr : repr -> key
(** The key of any process with this representation (interns its
    environments). *)

val repr_of_key : env:(int -> Env.t) -> key -> repr
(** Back to the deep form, given the environment of each id. *)

val forget_ids : t -> t
(** The same process with no cached environment ids (see
    {!Env.forget_id}). *)

val next_stmt : t -> Ast.stmt option
(** The statement the process executes next, when its top item is one. *)

val is_terminated : t -> bool
(** The process has run to completion: no continuation left {e and} no
    buffered write still awaiting a flush. *)

val pp_item : Format.formatter -> item -> unit
val pp : Format.formatter -> t -> unit
