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

val item_equal : item -> item -> bool
val equal : t -> t -> bool

(** Canonical, hashable digest: statements identified by label,
    environments by sorted bindings, procedure strings and store
    buffers verbatim (buffer order is semantically significant).  A
    pending return is keyed by its call site and destination. *)
type item_repr =
  | Rstmt of int
  | Rpop of (string * Value.loc) list
  | Rret of int * Ast.lvalue option * (string * Value.loc) list
  | Rjoin of int * Value.pid list

type repr = {
  r_pid : Value.pid;
  r_env : (string * Value.loc) list;
  r_stack : item_repr list;
  r_pstr : Pstring.t;
  r_buf : (Value.loc * Value.t) list;
}

val item_repr : item -> item_repr
val repr : t -> repr

val next_stmt : t -> Ast.stmt option
(** The statement the process executes next, when its top item is one. *)

val is_terminated : t -> bool
(** The process has run to completion: no continuation left {e and} no
    buffered write still awaiting a flush. *)

val pp_item : Format.formatter -> item -> unit
val pp : Format.formatter -> t -> unit
