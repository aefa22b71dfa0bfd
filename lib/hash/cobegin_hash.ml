(* Full-width structural hashing.  [Hashtbl.hash] stops after ~10
   meaningful nodes; the folds here visit every node, so structurally
   distinct values of any size almost never collide.  The mixer is the
   boost::hash_combine recurrence with a 60-bit slice of 2^64/phi,
   masked to stay non-negative on 64-bit natives. *)

let gold = 0x9e3779b97f4a7c1

let combine h k = (h lxor (k + gold + (h lsl 6) + (h lsr 2))) land max_int

let hash_int k = combine 0x2b1 k
let hash_bool b = if b then 0x5bd1e995 else 0x2e35a7cd

let hash_string s =
  (* djb2 over every byte, then the length so "" and "\000" differ *)
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h * 33) + Char.code c) land max_int) s;
  combine (String.length s) !h

let hash_list hash_elt l =
  List.fold_left (fun h x -> combine h (hash_elt x)) (hash_int (List.length l)) l

let hash_option hash_elt = function
  | None -> 0x4f
  | Some x -> combine 0x536f6d65 (hash_elt x)

let hash_int_array a =
  Array.fold_left combine (hash_int (Array.length a)) a

module Pool (H : Hashtbl.HashedType) = struct
  module T = Hashtbl.Make (H)

  (* The lookup is mutex-guarded so pools can be shared across OCaml 5
     domains (the parallel exploration engine interns from every
     worker).  Ids stay sequential — the mutex serializes assignment,
     so the n-th distinct key interned process-wide gets id n-1 — and
     stable: an id, once handed out, never changes or gets reused.
     Uncontended lock/unlock costs a few nanoseconds, noise next to the
     structural hash of the key. *)
  type t = { lock : Mutex.t; tbl : int T.t; mutable next : int }

  let create n = { lock = Mutex.create (); tbl = T.create n; next = 0 }

  let intern p k =
    Mutex.lock p.lock;
    let id =
      match T.find_opt p.tbl k with
      | Some id -> id
      | None ->
          let id = p.next in
          p.next <- id + 1;
          T.add p.tbl k id;
          id
    in
    Mutex.unlock p.lock;
    id

  let size p = Mutex.protect p.lock (fun () -> p.next)

  (* Consistent listing for snapshotting: taken under the pool mutex, so
     concurrent interns either appear fully or not at all — the ids
     listed are always 0..n-1. *)
  let by_id p =
    Mutex.protect p.lock (fun () ->
        let a = Array.make p.next None in
        T.iter (fun k id -> a.(id) <- Some k) p.tbl;
        Array.map Option.get a)
end

type 'e edge = { base : int; edits : 'e list }

let no_edge = { base = -1; edits = [] }

(* Chains stay short: a longer run of edits resolves by the pool. *)
let max_edits = 8

let derive ~id edge e =
  if id >= 0 then { base = id; edits = [ e ] }
  else if edge.base >= 0 && List.compare_length_with edge.edits max_edits < 0
  then { edge with edits = e :: edge.edits }
  else no_edge

module Memo (E : Hashtbl.HashedType) = struct
  module T = Hashtbl.Make (struct
    type t = E.t list

    let equal = List.equal E.equal
    let hash = hash_list E.hash
  end)

  (* Each distinct edit list is numbered once in [edits]; an entry is
     then three ints (base, edit-list number, id) in the open-addressed
     [slots], where a base of -1 marks an empty slot.  One mutex guards
     both.  A lookup and the recording of a miss are separate critical
     sections, so two domains missing on one key both resolve it and
     both record the same id. *)
  type t = {
    lock : Mutex.t;
    edits : int T.t;
    mutable slots : int array;
    mutable count : int;
  }

  let create n =
    let rec pow2 k = if k >= n then k else pow2 (2 * k) in
    {
      lock = Mutex.create ();
      edits = T.create 64;
      slots = Array.make (3 * pow2 16) (-1);
      count = 0;
    }

  (* The slot holding (base, e), or the empty slot where it goes. *)
  let rec probe slots mask base e i =
    let o = 3 * i in
    let b = slots.(o) in
    if b < 0 || (b = base && slots.(o + 1) = e) then o
    else probe slots mask base e ((i + 1) land mask)

  let start slots base e =
    let mask = (Array.length slots / 3) - 1 in
    probe slots mask base e (((combine base e * gold) lsr 17) land mask)

  let find m { base; edits } =
    Mutex.lock m.lock;
    let id =
      match T.find_opt m.edits edits with
      | None -> -1
      | Some e ->
          let o = start m.slots base e in
          if m.slots.(o) < 0 then -1 else m.slots.(o + 2)
    in
    Mutex.unlock m.lock;
    id

  let put slots base e id =
    let o = start slots base e in
    slots.(o) <- base;
    slots.(o + 1) <- e;
    slots.(o + 2) <- id

  (* Doubles the table once it is three-quarters full. *)
  let grow m =
    let old = m.slots in
    let slots = Array.make (2 * Array.length old) (-1) in
    for i = 0 to (Array.length old / 3) - 1 do
      let o = 3 * i in
      if old.(o) >= 0 then put slots old.(o) old.(o + 1) old.(o + 2)
    done;
    m.slots <- slots

  let add m { base; edits } id =
    Mutex.lock m.lock;
    let e =
      match T.find_opt m.edits edits with
      | Some e -> e
      | None ->
          let e = T.length m.edits in
          T.add m.edits edits e;
          e
    in
    let o = start m.slots base e in
    if m.slots.(o) < 0 then begin
      m.count <- m.count + 1;
      put m.slots base e id;
      if 4 * 3 * m.count > 3 * Array.length m.slots then grow m
    end;
    Mutex.unlock m.lock

  let resolve m edge ~hit intern =
    if edge.base < 0 then intern ()
    else
      match find m edge with
      | -1 ->
          let id = intern () in
          add m edge id;
          id
      | id ->
          hit ();
          id
end

(* Open addressing over flat int arrays: a probe reads one slot of
   [keys] and one of [ids], allocates nothing, and follows no pointer
   into a key. *)
module Ipool = struct
  let width = 5

  type t = {
    lock : Mutex.t;
    mutable keys : int array; (* [width] ints per slot *)
    mutable ids : int array; (* -1: empty slot *)
    mutable next : int;
  }

  let create n =
    let rec pow2 k = if k >= n then k else pow2 (2 * k) in
    let cap = pow2 16 in
    {
      lock = Mutex.create ();
      keys = Array.make (cap * width) 0;
      ids = Array.make cap (-1);
      next = 0;
    }

  let slot a b c d e mask =
    let h = combine (combine (combine (combine a b) c) d) e in
    ((h * gold) lsr 17) land mask

  (* The slot holding the key, or the empty slot where it goes. *)
  let rec find keys ids mask a b c d e i =
    if ids.(i) < 0 then i
    else
      let o = i * width in
      if
        keys.(o) = a
        && keys.(o + 1) = b
        && keys.(o + 2) = c
        && keys.(o + 3) = d
        && keys.(o + 4) = e
      then i
      else find keys ids mask a b c d e ((i + 1) land mask)

  let put keys ids i a b c d e id =
    let o = i * width in
    keys.(o) <- a;
    keys.(o + 1) <- b;
    keys.(o + 2) <- c;
    keys.(o + 3) <- d;
    keys.(o + 4) <- e;
    ids.(i) <- id

  (* Doubles the table once it is three-quarters full. *)
  let grow p =
    let cap = 2 * Array.length p.ids in
    let keys = Array.make (cap * width) 0 and ids = Array.make cap (-1) in
    let mask = cap - 1 in
    Array.iteri
      (fun i id ->
        if id >= 0 then begin
          let o = i * width in
          let a = p.keys.(o) and b = p.keys.(o + 1) and c = p.keys.(o + 2)
          and d = p.keys.(o + 3) and e = p.keys.(o + 4) in
          put keys ids (find keys ids mask a b c d e (slot a b c d e mask)) a b c d e id
        end)
      p.ids;
    p.keys <- keys;
    p.ids <- ids

  let intern p a b c d e =
    Mutex.lock p.lock;
    let mask = Array.length p.ids - 1 in
    let i = find p.keys p.ids mask a b c d e (slot a b c d e mask) in
    let id = p.ids.(i) in
    let id =
      if id >= 0 then id
      else begin
        let id = p.next in
        p.next <- id + 1;
        put p.keys p.ids i a b c d e id;
        if 4 * p.next > 3 * Array.length p.ids then grow p;
        id
      end
    in
    Mutex.unlock p.lock;
    id

  let size p = Mutex.protect p.lock (fun () -> p.next)

  let by_id p =
    Mutex.protect p.lock (fun () ->
        let a = Array.make p.next [||] in
        Array.iteri
          (fun i id -> if id >= 0 then a.(id) <- Array.sub p.keys (i * width) width)
          p.ids;
        a)
end
