(** Virtual coarsening (paper Observation 5): "atomic actions of a
    thread can be combined if they contain at most one critical
    reference."  Rewrites every block, greedily grouping maximal runs of
    simple statements whose total critical-reference count is at most
    one into a single [atomic] block — executed in one transition by the
    interleaving semantics.  Coarsening preserves the reachable final
    stores (a qcheck property of the suite). *)

open Cobegin_lang

val is_simple : Ast.stmt -> bool
(** May the statement participate in a coarsened run? *)

val program : Ast.program -> Ast.program
(** Coarsen a whole program; the conflict report is computed once from
    the input.  The new atomic blocks get labels above the input's
    largest, allocated per call: equal inputs give equal outputs. *)

val program_with_report : Ast.program -> Ast.program * Critical.conflicts
