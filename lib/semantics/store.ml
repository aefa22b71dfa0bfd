(* The shared store: a map from locations to values, plus instrumentation
   metadata (birthdates, heap-ness) that is deliberately EXCLUDED from
   configuration identity — it is a function of the logical state, and
   keeping it out of the comparison lets interleavings that reach the same
   state fold.

   Freeing removes the cells; any later access to a removed location is a
   runtime error surfaced as an error configuration.

   [hash] caches a hash of the cells, -1 until a digest first asks for
   it; every update that changes the cells resets it. *)

type t = {
  cells : Value.t Value.LocMap.t;
  births : Pstring.t Value.LocMap.t; (* birthdate of each object *)
  heap : Value.LocSet.t; (* locations created by malloc *)
  exposed : Value.LocSet.t; (* address-taken variables' locations *)
  blocks : int Value.LocMap.t; (* malloc base location -> block size *)
  mutable hash : int;
}

let empty =
  {
    cells = Value.LocMap.empty;
    births = Value.LocMap.empty;
    heap = Value.LocSet.empty;
    exposed = Value.LocSet.empty;
    blocks = Value.LocMap.empty;
    hash = -1;
  }

let find loc st = Value.LocMap.find_opt loc st.cells
let mem loc st = Value.LocMap.mem loc st.cells

let set loc v st =
  { st with cells = Value.LocMap.add loc v st.cells; hash = -1 }

let alloc ?(heap = false) ?(exposed = false) ~birth loc v st =
  {
    st with
    cells = Value.LocMap.add loc v st.cells;
    hash = -1;
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

let pp ppf st =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf (l, v) ->
         Format.fprintf ppf "%a = %a" Value.pp_loc l Value.pp v))
    (bindings st)
