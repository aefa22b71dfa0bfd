(** Access-anomaly (data-race) detection by co-enabledness: two enabled
    processes whose next-action footprints conflict at a reachable
    configuration are simultaneously poised to touch the same location —
    the anomaly the compile-time debugging literature reports (paper
    sections 1 and 8, [MH89]).  Synchronization operations (lock, unlock,
    await) contend by design and are excluded.

    Exact up to the engine's atomicity: lock-protected accesses never
    become co-enabled; await-ordered accesses do not race. *)

open Cobegin_semantics

type race = {
  stmt1 : int;  (** statement labels, [stmt1 <= stmt2] *)
  stmt2 : int;
  loc : Value.loc;
  write_write : bool;  (** both sides write *)
}

val compare_race : race -> race -> int

val make :
  stmt1:int -> stmt2:int -> loc:Value.loc -> write_write:bool -> race
(** The only constructor: normalizes the pair so [stmt1 <= stmt2],
    collapsing mirrored discoveries. *)

module RaceSet : Set.S with type elt = race

type result = {
  races : RaceSet.t;
  status : Budget.status;
      (** [Truncated _] when the scan covered only a reachable prefix *)
}

val observer :
  Step.ctx ->
  (Config.t -> Step.action list Worklist.shape -> unit)
  * (unit -> RaceSet.t)
(** [observer ctx] is the pair scan as an exploration observer: a hook
    for {!Cobegin_explore.Space.Kernel}'s [on_pop] that records the
    co-enabled conflicting pairs of every live configuration it is
    shown — the processes of its shape's [Arun] actions, so the enabled
    actions are evaluated once per pop — and a reader of the races
    recorded so far.  Hooked into a complete full exploration it finds
    exactly {!find}'s races. *)

val find :
  ?max_configs:int ->
  ?budget:Budget.t ->
  ?probe:Cobegin_obs.Probe.t ->
  Step.ctx ->
  result
(** Scan every reachable configuration for co-enabled conflicting
    pairs, in an exploration of its own (fault site [races.pop]).  The
    budget counts fired transitions like every engine's.  At budget
    exhaustion the scan also covers the configurations already queued
    and reports the races of that prefix.  [probe] is ticked once per
    worklist pop. *)

val pp_race : Format.formatter -> race -> unit
val pp : Format.formatter -> RaceSet.t -> unit
