(* Virtual coarsening (paper Observation 5):

     "Atomic actions of a thread can be combined if they contain at most
      one critical reference."

   The transform rewrites every block, greedily grouping maximal runs of
   simple statements (skip / decl / assign / assert) whose *total* number
   of critical references is at most one into a single [Satomic] block.
   The interleaving semantics executes an atomic block in one transition,
   so the grouped run contributes one state instead of many.  Runs of
   length one are left alone.

   Soundness: a run with at most one critical reference commutes, as one
   action, with every action of every other thread except at that single
   reference — exactly the observation the paper makes.  The qcheck suite
   checks that coarsening preserves the set of reachable final stores on
   random programs. *)

open Cobegin_lang
open Ast

let is_simple (s : stmt) =
  match s.kind with
  | Sskip | Sdecl _ | Sassert _ -> true
  | Sassign _ -> true
  | Smalloc _ | Sfree _ | Scall _ | Sreturn _ | Sblock _ | Sif _ | Swhile _
  | Scobegin _ | Satomic _ | Sawait _ | Sacquire _ | Srelease _ | Sfence ->
      false

(* Group a block's statements.  [conf] is the program's conflict report;
   [fresh] labels the new atomic blocks. *)
let rec group_block conf ~fresh (ss : stmt list) : stmt list =
  let flush run acc =
    match run with
    | [] -> acc
    | [ single ] -> single :: acc
    | _ -> { label = fresh (); kind = Satomic (List.rev run) } :: acc
  in
  let rec go acc run crit = function
    | [] -> List.rev (flush run acc)
    | s :: rest when is_simple s ->
        let c = Critical.stmt_critical conf s in
        if crit + c <= 1 then go acc (s :: run) (crit + c) rest
        else
          (* close the current run and start a new one at [s] *)
          go (flush run acc) [ s ] c rest
    | s :: rest ->
        let s' = coarsen_stmt conf ~fresh s in
        go (s' :: flush run acc) [] 0 rest
  in
  go [] [] 0 ss

and coarsen_stmt conf ~fresh (s : stmt) : stmt =
  let go = coarsen_stmt conf ~fresh in
  match s.kind with
  | Sblock ss -> { s with kind = Sblock (group_block conf ~fresh ss) }
  | Scobegin bs -> { s with kind = Scobegin (List.map go bs) }
  | Sif (c, s1, s2) -> { s with kind = Sif (c, go s1, go s2) }
  | Swhile (c, b) -> { s with kind = Swhile (c, go b) }
  | _ -> s

(* Coarsen a whole program.  The conflict report is computed once from the
   original program (coarsening does not change accesses).  New atomic
   blocks are labelled from a counter of this call, starting above the
   input's largest label: the output is a function of the input alone,
   so a coarsened program digests — and keys a cached run — the same in
   every call and on every domain. *)
let program_with_report (prog : program) : program * Critical.conflicts =
  let conf = Critical.of_program prog in
  let next = ref (List.fold_left max 0 (Ast.labels prog)) in
  let fresh () =
    incr next;
    !next
  in
  ( {
      procs =
        List.map
          (fun p -> { p with body = coarsen_stmt conf ~fresh p.body })
          prog.procs;
    },
    conf )

let program prog = fst (program_with_report prog)
