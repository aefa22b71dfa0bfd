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

(* The interned ids of the components already digested: [i_procs] maps
   a pid to its process's id, and [-1] marks an unknown store or
   counter id.  Every update below forgets exactly the ids of the
   components it replaces, so a successor keeps its parent's ids for
   everything the step left untouched.  Ids are those of the global
   interner: only [digest] reads or fills them. *)
type ids = { i_procs : int PidMap.t; i_store : int; i_counters : int }

let unknown = { i_procs = PidMap.empty; i_store = -1; i_counters = -1 }

type t = {
  procs : Proc.t PidMap.t;
  store : Store.t;
  counters : int CounterMap.t; (* next sequence number per (pid, site) *)
  error : string option;
  mutable ids : ids;
}

let make ~procs ~store ~counters ~error =
  { procs; store; counters; error; ids = unknown }

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
      ids = { c.ids with i_counters = -1 };
    } )

let forget_proc pid ids =
  let i_procs = PidMap.remove pid ids.i_procs in
  if i_procs == ids.i_procs then ids else { ids with i_procs }

(* [PidMap.add] and [PidMap.remove] return their argument when nothing
   changes (re-adding a physically equal process, removing an absent
   pid): such an update keeps the configuration and its ids. *)
let update_proc p c =
  let procs = PidMap.add p.Proc.pid p c.procs in
  if procs == c.procs then c
  else { c with procs; ids = forget_proc p.Proc.pid c.ids }

let add_proc = update_proc

let remove_proc pid c =
  let procs = PidMap.remove pid c.procs in
  if procs == c.procs then c else { c with procs; ids = forget_proc pid c.ids }

let with_store store c =
  if store == c.store then c
  else { c with store; ids = { c.ids with i_store = -1 } }

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

(* Hit rate of the id cache: a reused id is a hit, a pool intern a
   miss.  No-ops (one branch) while telemetry is disabled. *)
let m_memo_hits = Metrics.counter "intern.memo_hits"
let m_memo_misses = Metrics.counter "intern.memo_misses"

(* Interns only the components whose ids are unknown, then publishes the
   completed ids on [c].  Under the parallel engine two domains may
   digest one configuration at once; both compute the same ids (pool
   ids do not depend on who asks first) and each writes an immutable
   record, so whichever write lands last is equally right and a reader
   sees either the old ids or complete ones. *)
let digest c =
  let st = Intern.global () in
  let ids = c.ids in
  let d_procs = Array.make (PidMap.cardinal c.procs) 0 in
  let misses = ref 0 and i_procs = ref ids.i_procs and i = ref 0 in
  PidMap.iter
    (fun pid p ->
      let id =
        match PidMap.find_opt pid ids.i_procs with
        | Some id -> id
        | None ->
            incr misses;
            let id = Intern.proc_id st p in
            i_procs := PidMap.add pid id !i_procs;
            id
      in
      d_procs.(!i) <- id;
      incr i)
    c.procs;
  let d_store =
    if ids.i_store >= 0 then ids.i_store
    else (
      incr misses;
      Intern.store_id st c.store)
  in
  let d_counters =
    if ids.i_counters >= 0 then ids.i_counters
    else (
      incr misses;
      Intern.counters_id st c.counters)
  in
  if !misses > 0 then begin
    Metrics.add m_memo_misses !misses;
    c.ids <- { i_procs = !i_procs; i_store = d_store; i_counters = d_counters }
  end;
  Metrics.add m_memo_hits (Array.length d_procs + 2 - !misses);
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
