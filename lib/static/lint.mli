(** The static concurrency lint suite: MHP + lockset races + lock-order
    deadlock cycles + cheap lock/await discipline checks, bundled into a
    canonical position-sorted report.  Polynomial in program size; never
    explores the state space.

    Rules emitted: ["static-race"], ["lock-order-cycle"],
    ["double-acquire"] (an error — the process provably blocks
    forever), ["release-unheld"], ["await-no-writer"]. *)

open Cobegin_lang

type result = {
  races : Lockset.race list;
  cycles : Deadlock.cycle list;
  findings : Report.finding list;  (** canonical order, all rules *)
}

val run : ?facts:(Mhp.t * Lockset.t) Lazy.t -> Ast.program -> result
(** [facts] is {!Lockset.facts} of the same program, when the caller
    shares it with another analysis; computed here otherwise. *)

val pp : Format.formatter -> result -> unit
