(** State-space generation (paper section 2).

    Breadth-first construction of the configuration graph of a program
    under a pluggable {e expansion strategy}: [full] fires every enabled
    process at every configuration; {!Stubborn} (through {!explore}) and
    {!Sleep} (through {!run}) plug in reduced strategies.  The engine accumulates configuration and
    transition counts, the terminal configurations (final, deadlocked,
    erroneous) and the merged instrumentation log consumed by the
    analyses of Cobegin_analysis. *)

open Cobegin_semantics

type stats = {
  configurations : int;  (** distinct configurations visited *)
  transitions : int;  (** transitions fired *)
  max_frontier : int;  (** peak size of the BFS queue *)
  finals : int;  (** configurations with every process terminated *)
  deadlocks : int;  (** non-final configurations with nothing enabled *)
  errors : int;  (** error configurations (runtime failures) *)
}

type result = {
  stats : stats;
  status : Budget.status;
      (** [Complete], or [Truncated reason] when a resource budget was
          exhausted — the other fields then hold the partial result *)
  final_configs : Config.t list;
  deadlock_configs : Config.t list;
  error_configs : Config.t list;
  log : Step.events;  (** merged instrumentation of every transition *)
}

(** Visited sets keyed by the hash-consed configuration digest
    ({!Config.digest}): O(1) probes with full-width precomputed hashes.
    The [_digest] variants take a digest computed once by the caller and
    threaded through, saving the second serialization of a mem/add or
    find/add pair. *)
module ConfigTbl : sig
  type 'a t = 'a Config.Digest_tbl.t

  val create : int -> 'a t
  val mem : 'a t -> Config.t -> bool
  val add : 'a t -> Config.t -> 'a -> unit
  val length : 'a t -> int
  val find_opt : 'a t -> Config.t -> 'a option
  val mem_digest : 'a t -> Config.digest -> bool
  val add_digest : 'a t -> Config.digest -> 'a -> unit
  val find_digest : 'a t -> Config.digest -> 'a option
end

(** {2 The kernel instance}

    Every configuration engine is a {!Space.engine} variant run by
    {!Worklist} over configurations keyed by digest. *)

module Kernel :
  Worklist.S with type state = Config.t and module Tbl = Config.Digest_tbl

val shape : Step.ctx -> Config.t -> Step.action list Worklist.shape
(** Error, final (every process terminated), deadlock (nothing
    enabled), or live with its enabled actions. *)

val engine :
  Step.ctx ->
  expand:(Config.t -> Step.action list -> Step.action list) ->
  (Step.action list, Step.action, unit, Step.events) Kernel.engine
(** The plain generation engine: site [space.pop], the [space.*]
    counters and journal events, the instrumentation log kept, no-op
    hooks.  At each live configuration [c] it fires [expand c enabled],
    where [enabled] is the list {!shape} computed, so {!Step.enabled_actions}
    is evaluated once per pop; full generation passes
    [fun _ enabled -> enabled].  Variants are record updates of it. *)

val run :
  ?max_configs:int ->
  ?budget:Budget.t ->
  ?probe:Cobegin_obs.Probe.t ->
  Step.ctx ->
  ('w, 'a, 'v, Step.events) Kernel.engine ->
  'v ->
  result
(** [run ctx eng v0] runs [eng] from the initial configuration,
    recorded with visited value [v0], under [budget] (default: one
    bounding the visited set at [max_configs], one million). *)

val result_of : ('v, Step.events) Kernel.run -> result
(** The result of a finished (complete or drained) run. *)

val explore :
  ?max_configs:int ->
  ?budget:Budget.t ->
  ?probe:Cobegin_obs.Probe.t ->
  Step.ctx ->
  expand:(Config.t -> Step.action list) ->
  result
(** [explore ctx ~expand] generates the graph, firing at each
    configuration exactly the actions [expand] returns.  [expand] must
    return a subset of the enabled actions, non-empty whenever any
    action is enabled (under {!Step.Sc} actions are exactly the enabled
    processes; under TSO/PSO they also include buffer flushes).  When [budget] is given it governs the run
    ([max_configs] is then ignored); otherwise [max_configs] (default
    one million) bounds the visited set.  Never raises on exhaustion:
    the partial result comes back with [status = Truncated _], and the
    admitted-but-unexpanded frontier is still {e classified} — terminal
    configurations sitting in the queue count toward
    [finals]/[deadlocks]/[errors] (without firing anything).  When
    [probe] is given it is ticked once per worklist pop — the same
    cadence as [Budget.check] — so long runs emit live progress. *)

val full :
  ?max_configs:int ->
  ?budget:Budget.t ->
  ?probe:Cobegin_obs.Probe.t ->
  Step.ctx ->
  result
(** Ordinary (full interleaving) generation. *)

val final_store_reprs : result -> (Value.loc * Value.t) list list
(** Canonical list of the distinct final stores — the
    "result-configurations" used to compare strategies.  Deduplicated
    and ordered by hash-consed store id (first-intern order, stable
    within a process), so comparing two runs' lists for equality is
    meaningful in-process regardless of which engine produced them. *)

val pp_stats : Format.formatter -> stats -> unit
