(* The shared store: a map from locations to values, plus instrumentation
   metadata (birthdates, heap-ness) that is deliberately EXCLUDED from
   configuration identity — it is a function of the logical state, and
   keeping it out of the comparison lets interleavings that reach the same
   state fold.

   Freeing removes the cells; any later access to a removed location is a
   runtime error surfaced as an error configuration.

   [hash] caches a hash of the cells and [id] the cells' number in the
   process-wide store pool, both -1 until a digest first asks; every
   update that changes the cells resets them.  A write on a store whose
   id is known (or on one derived from such by a few writes) records
   the edge (Cobegin_hash.derive), so [id] resolves it through the edge
   memo without hashing or comparing the cells. *)

type t = {
  cells : Value.t Value.LocMap.t;
  births : Pstring.t Value.LocMap.t; (* birthdate of each object *)
  heap : Value.LocSet.t; (* locations created by malloc *)
  exposed : Value.LocSet.t; (* address-taken variables' locations *)
  blocks : int Value.LocMap.t; (* malloc base location -> block size *)
  mutable hash : int;
  mutable id : int;
  edge : (Value.loc * Value.t) Cobegin_hash.edge;
}

let empty =
  {
    cells = Value.LocMap.empty;
    births = Value.LocMap.empty;
    heap = Value.LocSet.empty;
    exposed = Value.LocSet.empty;
    blocks = Value.LocMap.empty;
    hash = -1;
    id = -1;
    edge = Cobegin_hash.no_edge;
  }

let find loc st = Value.LocMap.find_opt loc st.cells
let mem loc st = Value.LocMap.mem loc st.cells

(* Writes the cell and records the edge; [alloc] adds the metadata. *)
let set loc v st =
  {
    st with
    cells = Value.LocMap.add loc v st.cells;
    hash = -1;
    id = -1;
    edge = Cobegin_hash.derive ~id:st.id st.edge (loc, v);
  }

let alloc ?(heap = false) ?(exposed = false) ~birth loc v st =
  let st = set loc v st in
  {
    st with
    births = Value.LocMap.add loc birth st.births;
    heap = (if heap then Value.LocSet.add loc st.heap else st.heap);
    exposed =
      (if exposed then Value.LocSet.add loc st.exposed else st.exposed);
  }

let free locs st =
  {
    st with
    cells = Value.LocSet.fold Value.LocMap.remove locs st.cells;
    hash = -1;
    id = -1;
    edge = Cobegin_hash.no_edge;
  }

let birth loc st = Value.LocMap.find_opt loc st.births
let is_heap loc st = Value.LocSet.mem loc st.heap

(* Is the location coverable through a pointer: a heap cell or an
   address-taken variable?  The memory token of the may-access summaries
   covers exactly these. *)
let is_mem_covered loc st =
  Value.LocSet.mem loc st.heap || Value.LocSet.mem loc st.exposed

(* Register a malloc block and return its cell locations. *)
let register_block base size st = { st with blocks = Value.LocMap.add base size st.blocks }

(* The cells of the block whose base is [loc] with offset reset to 0;
   None when [loc] does not point into a registered block. *)
let block_cells loc st =
  let base = { loc with Value.l_off = 0 } in
  match Value.LocMap.find_opt base st.blocks with
  | None -> None
  | Some size ->
      Some
        (List.init size (fun i -> { base with Value.l_off = i })
        |> Value.LocSet.of_list)

(* Canonical representation for hashing/equality: sorted bindings of the
   cells only. *)
let repr st = Value.LocMap.bindings st.cells

(* A sum of per-cell hashes: it does not depend on the order the cells
   are visited in.  Two domains may fill one store's hash at once; both
   compute the same value, so either write is right. *)
let hash st =
  if st.hash >= 0 then st.hash
  else begin
    let sum =
      Value.LocMap.fold
        (fun l v acc ->
          acc + Cobegin_hash.combine (Value.hash_loc l) (Value.hash_value v))
        st.cells 0
    in
    let h = Cobegin_hash.hash_int sum in
    st.hash <- h;
    h
  end

let equal a b =
  a.cells == b.cells
  || hash a = hash b
     && Value.LocMap.equal Value.equal_value a.cells b.cells

let bindings st = Value.LocMap.bindings st.cells

(* The pool is never cleared, like Env's: an id, once handed out, stays
   valid for the life of the process. *)
module Pool = Cobegin_hash.Pool (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Memo = Cobegin_hash.Memo (struct
  type t = Value.loc * Value.t

  let equal (l1, v1) (l2, v2) =
    (l1 == l2 || Value.compare_loc l1 l2 = 0) && Value.equal_value v1 v2

  let hash (l, v) = Cobegin_hash.combine (Value.hash_loc l) (Value.hash_value v)
end)

let pool = Pool.create 1024
let memo = Memo.create 1024
let m_edge_hits = Cobegin_obs.Metrics.counter "intern.store_edge_hits"
let m_edge_misses = Cobegin_obs.Metrics.counter "intern.store_edge_misses"

(* The pool keeps what identity needs: the cells and their hash, not
   the metadata or the edge. *)
let pool_id st =
  Pool.intern pool
    {
      cells = st.cells;
      births = Value.LocMap.empty;
      heap = Value.LocSet.empty;
      exposed = Value.LocSet.empty;
      blocks = Value.LocMap.empty;
      hash = hash st;
      id = -1;
      edge = Cobegin_hash.no_edge;
    }

let count_hit () = Cobegin_obs.Metrics.incr m_edge_hits

let resolve st =
  Memo.resolve memo st.edge ~hit:count_hit (fun () ->
      if st.edge.base >= 0 then Cobegin_obs.Metrics.incr m_edge_misses;
      pool_id st)

(* As with [hash], concurrent fills write the same id. *)
let id st =
  if st.id >= 0 then st.id
  else begin
    let id = resolve st in
    st.id <- id;
    id
  end

let cached_id st = st.id
let distinct () = Pool.size pool

let interned () = Array.map repr (Pool.by_id pool)

let forget_id st = { st with id = -1; edge = Cobegin_hash.no_edge }

let pp ppf st =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf (l, v) ->
         Format.fprintf ppf "%a = %a" Value.pp_loc l Value.pp v))
    (bindings st)
