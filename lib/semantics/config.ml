(* Configurations: the global states of the interleaving semantics
   (paper section 2): the set of live processes plus the shared store,
   the allocation counters, and an optional error marker.

   Equality and hashing go through a canonical representation so that the
   exploration engine folds states reached by different interleavings.
   Instrumentation metadata (birthdates, heap-ness) is excluded: it is
   functionally determined by the rest. *)

module Metrics = Cobegin_obs.Metrics

module PidMap = Map.Make (struct
  type t = Value.pid

  let compare = Value.compare_pid
end)

(* Defined in Intern so the interner can take whole counter maps. *)
module CounterMap = Intern.CounterMap

(* A configuration keeps its counter map as plain data, so the map's
   interned id sits here: [counters_id] is -1 until a digest fills it,
   and a bump on a configuration whose counter id is known (or on one
   derived from such by a few bumps) records the edge
   (Cobegin_hash.derive) of bumped (pid, site) keys.  Processes and the
   store carry their own ids. *)
type t = {
  procs : Proc.t PidMap.t;
  store : Store.t;
  counters : int CounterMap.t; (* next sequence number per (pid, site) *)
  error : string option;
  mutable counters_id : int;
  counters_edge : (Value.pid * int) Cobegin_hash.edge;
}

let make ~procs ~store ~counters ~error =
  {
    procs;
    store;
    counters;
    error;
    counters_id = -1;
    counters_edge = Cobegin_hash.no_edge;
  }

let processes c = List.map snd (PidMap.bindings c.procs)
let find_proc pid c = PidMap.find_opt pid c.procs
let num_procs c = PidMap.cardinal c.procs
let is_error c = Option.is_some c.error

(* Terminal: error, or every process has terminated (the root included).
   A configuration where some process is blocked forever and none can move
   is a *deadlock*, also terminal but distinguished by the explorer. *)
let all_terminated c = PidMap.is_empty c.procs

(* Bump the allocation counter for (pid, site); returns seq and the new
   configuration counters. *)
let next_seq ~pid ~site c =
  let key = (pid, site) in
  let seq = match CounterMap.find_opt key c.counters with Some n -> n | None -> 0 in
  ( seq,
    {
      c with
      counters = CounterMap.add key (seq + 1) c.counters;
      counters_id = -1;
      counters_edge = Cobegin_hash.derive ~id:c.counters_id c.counters_edge key;
    } )

(* [PidMap.add] and [PidMap.remove] return their argument when nothing
   changes (re-adding a physically equal process, removing an absent
   pid): such an update returns the configuration itself. *)
let update_proc p c =
  let procs = PidMap.add p.Proc.pid p c.procs in
  if procs == c.procs then c else { c with procs }

let add_proc = update_proc

let remove_proc pid c =
  let procs = PidMap.remove pid c.procs in
  if procs == c.procs then c else { c with procs }

let with_store store c = if store == c.store then c else { c with store }

(* The same configuration with every cached id and recorded edge
   forgotten, its components' included. *)
let forget_ids c =
  make
    ~procs:(PidMap.map Proc.forget_ids c.procs)
    ~store:(Store.forget_id c.store) ~counters:c.counters ~error:c.error

let with_error msg c = { c with error = Some msg }

(* The deep canonical representation: the ground truth that digest
   equality agrees with (E14 and the intern tests compare against it). *)
type repr = {
  r_procs : Proc.repr list;
  r_store : (Value.loc * Value.t) list;
  r_counters : ((Value.pid * int) * int) list;
  r_error : string option;
}

let repr c =
  {
    r_procs = List.map (fun (_, p) -> Proc.repr p) (PidMap.bindings c.procs);
    r_store = Store.repr c.store;
    r_counters = CounterMap.bindings c.counters;
    r_error = c.error;
  }

(* Hash-consed digest: every component interned to a small id with a
   full-width precomputed hash (see intern.mli).  Digest equality is
   equivalent to repr equality, at the cost of comparing a handful of
   ints instead of deep lists. *)
type digest = {
  d_procs : int array; (* interned Proc keys, in pid order *)
  d_store : int;
  d_counters : int;
  d_error : int;
  d_hash : int; (* precomputed full-width hash of the tuple *)
}

(* The one hash formula for digests — [digest] and [digest_of_ids]
   must agree, or checkpointed visited sets stop matching live ones. *)
let digest_of_ids ~d_procs ~d_store ~d_counters ~d_error =
  let d_hash =
    Cobegin_hash.combine
      (Cobegin_hash.hash_int_array d_procs)
      (Cobegin_hash.combine d_store
         (Cobegin_hash.combine d_counters d_error))
  in
  { d_procs; d_store; d_counters; d_error; d_hash }

(* Hit rate of the id cache: an id read off a component is a hit, one
   resolved (by an edge memo or a pool) a miss.  No-ops (one branch)
   while telemetry is disabled. *)
let m_memo_hits = Metrics.counter "intern.memo_hits"
let m_memo_misses = Metrics.counter "intern.memo_misses"

(* Reads each component's cached id and resolves the unknown ones,
   which then stay cached on the components.  Under the parallel engine
   two domains may digest one configuration at once; both compute the
   same ids (ids do not depend on who asks first), so whichever write
   lands last is equally right. *)
let digest c =
  let st = Intern.global () in
  let d_procs = Array.make (PidMap.cardinal c.procs) 0 in
  let misses = ref 0 and i = ref 0 in
  PidMap.iter
    (fun _ (p : Proc.t) ->
      let id =
        if p.id >= 0 then p.id
        else (
          incr misses;
          Proc.id p)
      in
      d_procs.(!i) <- id;
      incr i)
    c.procs;
  let d_store =
    let s = c.store in
    if Store.cached_id s >= 0 then Store.cached_id s
    else (
      incr misses;
      Store.id s)
  in
  let d_counters =
    if c.counters_id >= 0 then c.counters_id
    else begin
      incr misses;
      let id = Intern.counters_id st ~edge:c.counters_edge c.counters in
      c.counters_id <- id;
      id
    end
  in
  if Metrics.enabled () then begin
    Metrics.add m_memo_misses !misses;
    Metrics.add m_memo_hits (Array.length d_procs + 2 - !misses)
  end;
  let d_error = Intern.error_id st c.error in
  digest_of_ids ~d_procs ~d_store ~d_counters ~d_error

let digest_equal a b =
  a.d_hash = b.d_hash && a.d_store = b.d_store
  && a.d_counters = b.d_counters && a.d_error = b.d_error
  &&
  let n = Array.length a.d_procs in
  n = Array.length b.d_procs
  &&
  let rec eq i = i >= n || (a.d_procs.(i) = b.d_procs.(i) && eq (i + 1)) in
  eq 0

let digest_hash d = d.d_hash

module Digest_tbl = Hashtbl.Make (struct
  type t = digest

  let equal = digest_equal
  let hash = digest_hash
end)

let equal a b = digest_equal (digest a) (digest b)
let hash c = (digest c).d_hash

let pp ppf c =
  Format.fprintf ppf "@[<v>%a@ store: %a%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Proc.pp)
    (processes c) Store.pp c.store
    (fun ppf -> function
      | None -> ()
      | Some e -> Format.fprintf ppf "@ ERROR: %s" e)
    c.error
