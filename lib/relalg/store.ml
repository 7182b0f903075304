(* The row store behind every base table: a persistent B+-tree whose
   leaves are chunks of rows, plus one key tree per secondary index.

   Layout.  A leaf holds up to [chunk] entries as two parallel arrays:
   stamps and items.  An item is a row in the row tree and a key value
   in an index tree.  An inner node holds up to [fanout] children, the
   first entry (stamp and item) of each child as its separator, and the
   number of entries below it.  Every leaf sits at the same depth.
   Trees are never written in place: an operation copies the nodes on
   the paths it changes and shares everything else, so an old root
   stays a valid, unchanging table.

   Order.  The row tree is sorted by stamp, which is table order because
   stamps are handed out in insertion order.  The index tree on column
   [c] holds (row.(c), stamp) entries sorted by key, then stamp, so
   equal keys come back in table order; a lookup resolves its stamps
   through the row tree.  An UPDATE that leaves a row's key alone
   therefore never touches that index.

   Chunk and fanout were chosen by measuring a seek plus a single-row
   replace at 10k, 100k and 1M rows (CHANGES.md): past the cache the
   cost is the memory a path copy reads and writes, and 64-row chunks
   under 32-wide nodes came out cheapest at 1M rows (128-row chunks
   copy too much per change, 32-row chunks add a level). *)

let chunk = 64
let fanout = 32

type 'a node =
  | Leaf of { stamps : int array; items : 'a array }
  | Inner of {
      kids : 'a node array;
      lo_stamps : int array; (* first entry of each kid *)
      lo_items : 'a array;
      count : int; (* entries below this node *)
    }

let empty_node = Leaf { stamps = [||]; items = [||] }

let count_of = function Leaf l -> Array.length l.stamps | Inner n -> n.count
let width = function Leaf l -> Array.length l.stamps | Inner n -> Array.length n.kids
let capacity = function Leaf _ -> chunk | Inner _ -> fanout
let first_stamp = function Leaf l -> l.stamps.(0) | Inner n -> n.lo_stamps.(0)
let first_item = function Leaf l -> l.items.(0) | Inner n -> n.lo_items.(0)

let inner kids =
  Inner
    {
      kids;
      lo_stamps = Array.map first_stamp kids;
      lo_items = Array.map first_item kids;
      count = Array.fold_left (fun acc k -> acc + count_of k) 0 kids;
    }

(* A total order over entries: compares (s1, x1) with (s2, x2). *)
type 'a order = int -> 'a -> int -> 'a -> int

let by_stamp : Row.t order = fun s1 _ s2 _ -> Int.compare s1 s2

let by_key : Value.t order =
 fun s1 k1 s2 k2 ->
  let c = Value.compare k1 k2 in
  if c <> 0 then c else Int.compare s1 s2

let touched_rows = ref 0
let touched () = !touched_rows
let touch n = touched_rows := !touched_rows + n

(* The length of the prefix of [0, n) on which [p] holds ([p] must hold
   on a prefix): binary search. *)
let prefix n p =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p mid then lo := mid + 1 else hi := mid
  done;
  !lo

let insert_at a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

(* The child of an inner node that holds the entry (s, x), or would. *)
let child order lo_stamps lo_items s x =
  max 0 (prefix (Array.length lo_stamps) (fun i -> order lo_stamps.(i) lo_items.(i) s x <= 0) - 1)

(* ---- Bulk build ---- *)

(* [n] items cut into the fewest groups of at most [cap], sizes spread
   evenly, so every group but a lone one is at least half full. *)
let groups n cap make =
  let g = (n + cap - 1) / cap in
  Array.init g (fun i ->
      let a = i * n / g and b = (i + 1) * n / g in
      make a (b - a))

(* A tree over [n] entries already in order, the [i]th being
   [(stamp i, item i)].  O(n). *)
let build n stamp item =
  if n = 0 then empty_node
  else
    let rec up level =
      if Array.length level = 1 then level.(0)
      else up (groups (Array.length level) fanout (fun a len -> inner (Array.sub level a len)))
    in
    up
      (groups n chunk (fun a len ->
           Leaf
             {
               stamps = Array.init len (fun j -> stamp (a + j));
               items = Array.init len (fun j -> item (a + j));
             }))

(* ---- Reading ---- *)

let rec iter_node f = function
  | Leaf { stamps; items } ->
    for i = 0 to Array.length stamps - 1 do
      f stamps.(i) items.(i)
    done
  | Inner { kids; _ } -> Array.iter (iter_node f) kids

(* The items (or stamps) in order: one array per leaf, concatenated once. *)
let gather part node =
  let parts = ref [] in
  let rec go = function
    | Leaf _ as l -> parts := part l :: !parts
    | Inner { kids; _ } ->
      for i = Array.length kids - 1 downto 0 do
        go kids.(i)
      done
  in
  go node;
  Array.concat !parts

let flatten_items node = gather (function Leaf l -> l.items | Inner _ -> [||]) node
let flatten_stamps node = gather (function Leaf l -> l.stamps | Inner _ -> [||]) node

(* A stamp-to-item lookup over a stamp-ordered tree.  It keeps a finger
   on the last leaf it used: a lookup that lands in that leaf (the next
   stamp of a range, or a near one) skips the descent.  One resolver
   per lookup call, never shared between domains. *)
let resolver root =
  let stamps = ref [||] and items = ref [||] and last = ref 0 in
  let rec descend s = function
    | Leaf l ->
      stamps := l.stamps;
      items := l.items
    | Inner { kids; lo_stamps; _ } ->
      descend s kids.(max 0 (prefix (Array.length lo_stamps) (fun i -> lo_stamps.(i) <= s) - 1))
  in
  fun s ->
    let n = Array.length !stamps in
    let p =
      if !last + 1 < n && !stamps.(!last + 1) = s then !last + 1
      else begin
        if not (n > 0 && !stamps.(0) <= s && s <= !stamps.(n - 1)) then descend s root;
        let ss = !stamps in
        prefix (Array.length ss) (fun i -> ss.(i) < s)
      end
    in
    if p < Array.length !stamps && !stamps.(p) = s then begin
      last := p;
      !items.(p)
    end
    else invalid_arg "Store: no such stamp"

exception Stop

(* Fold [f] over the stamps of the entries from the first one whose item
   is not [before], in order, while [within] holds. *)
let fold_from node ~before ~within f init =
  let acc = ref init in
  let visit stamps items start =
    for i = start to Array.length stamps - 1 do
      if within items.(i) then acc := f !acc stamps.(i) else raise_notrace Stop
    done
  in
  let rec all = function
    | Leaf { stamps; items } -> visit stamps items 0
    | Inner { kids; _ } -> Array.iter all kids
  in
  let rec seek = function
    | Leaf { stamps; items } ->
      visit stamps items (prefix (Array.length stamps) (fun i -> before items.(i)))
    | Inner { kids; lo_items; _ } ->
      let m = Array.length kids in
      let i = max 0 (prefix m (fun i -> before lo_items.(i)) - 1) in
      seek kids.(i);
      for j = i + 1 to m - 1 do
        all kids.(j)
      done
  in
  (try seek node with Stop -> ());
  !acc

(* ---- Single insert ---- *)

(* Insert one entry; a full node splits in two.  An entry landing at the
   very end of a full node starts a fresh sibling instead of halving, so
   appends leave full chunks behind.  An inner node on the path copies
   its arrays and rewrites one slot: the other children are never read,
   so a path copy reads only the nodes on its path, which matters once
   the tree outgrows the cache. *)
let rec ins order node s x =
  match node with
  | Leaf { stamps; items } ->
    let n = Array.length stamps in
    let pos = prefix n (fun i -> order stamps.(i) items.(i) s x < 0) in
    let stamps = insert_at stamps pos s and items = insert_at items pos x in
    if n < chunk then (Leaf { stamps; items }, None)
    else
      let cut = if pos = n then n else (n + 1) / 2 in
      let part a len = Leaf { stamps = Array.sub stamps a len; items = Array.sub items a len } in
      (part 0 cut, Some (part cut (n + 1 - cut)))
  | Inner { kids; lo_stamps; lo_items; count } ->
    let i = child order lo_stamps lo_items s x in
    let kid, extra = ins order kids.(i) s x in
    let kids = Array.copy kids
    and lo_stamps = Array.copy lo_stamps
    and lo_items = Array.copy lo_items in
    kids.(i) <- kid;
    lo_stamps.(i) <- first_stamp kid;
    lo_items.(i) <- first_item kid;
    (match extra with
     | None -> (Inner { kids; lo_stamps; lo_items; count = count + 1 }, None)
     | Some e ->
       let kids = insert_at kids (i + 1) e
       and lo_stamps = insert_at lo_stamps (i + 1) (first_stamp e)
       and lo_items = insert_at lo_items (i + 1) (first_item e) in
       let m = Array.length kids in
       if m <= fanout then (Inner { kids; lo_stamps; lo_items; count = count + 1 }, None)
       else
         let cut = if i + 2 = m then m - 1 else m / 2 in
         (inner (Array.sub kids 0 cut), Some (inner (Array.sub kids cut (m - cut)))))

let insert order node s x =
  match ins order node s x with
  | node, None -> node
  | a, Some b -> inner [| a; b |]

(* ---- Batched edits: delete or replace existing entries ---- *)

type 'a edit = {
  e_stamp : int;
  e_item : 'a; (* the entry as stored: locates it *)
  e_to : 'a option; (* [None]: delete; [Some x]: replace the item *)
}

let merge a b =
  match a, b with
  | Leaf x, Leaf y ->
    Leaf { stamps = Array.append x.stamps y.stamps; items = Array.append x.items y.items }
  | Inner x, Inner y -> inner (Array.append x.kids y.kids)
  | _ -> invalid_arg "Store.merge: siblings of different height"

(* A child slot while an inner node is rebuilt: the child, its
   separator, and whether it changed and is now under half full. *)
type 'a slot = { node : 'a node; ls : int; li : 'a; small : bool }

let slot node =
  { node; ls = first_stamp node; li = first_item node; small = 2 * width node < capacity node }

(* Fold an underfull changed child into a neighbour where both fit in
   one node; untouched neighbours are read only beside a small one. *)
let rec settle acc = function
  | [] -> List.rev acc
  | k :: rest ->
    (match acc with
     | p :: acc'
       when (p.small || k.small) && width p.node + width k.node <= capacity k.node ->
       settle ({ (slot (merge p.node k.node)) with ls = p.ls; li = p.li } :: acc') rest
     | _ -> settle (k :: acc) rest)

(* Apply [edits.(lo) .. edits.(hi - 1)], sorted in [order], to [node];
   [None] when the node empties.  Only the children that hold an edit
   are visited and copied. *)
let rec edit_node order node edits lo hi =
  match node with
  | Leaf { stamps; items } ->
    let n = Array.length stamps in
    touch n;
    let deletes = ref 0 in
    for j = lo to hi - 1 do
      if Option.is_none edits.(j).e_to then incr deletes
    done;
    let n' = n - !deletes in
    if n' = 0 then None
    else begin
      let ss = Array.make n' 0 and xs = Array.make n' items.(0) in
      (* copy the runs between edited entries, finding each edit by
         binary search from where the last one left off *)
      let i = ref 0 and k = ref 0 in
      let copy upto =
        Array.blit stamps !i ss !k (upto - !i);
        Array.blit items !i xs !k (upto - !i);
        k := !k + (upto - !i)
      in
      for j = lo to hi - 1 do
        let { e_stamp; e_item; e_to } = edits.(j) in
        let from = !i in
        let p =
          from
          + prefix (n - from) (fun x -> order stamps.(from + x) items.(from + x) e_stamp e_item < 0)
        in
        if p = n || order stamps.(p) items.(p) e_stamp e_item <> 0 then
          invalid_arg "Store: an edited entry is not in the store";
        copy p;
        Option.iter
          (fun x ->
            ss.(!k) <- stamps.(p);
            xs.(!k) <- x;
            incr k)
          e_to;
        i := p + 1
      done;
      copy n;
      Some (Leaf { stamps = ss; items = xs })
    end
  | Inner { kids; lo_stamps; lo_items; count } ->
    let m = Array.length kids in
    let kids' = Array.copy kids
    and lo_stamps' = Array.copy lo_stamps
    and lo_items' = Array.copy lo_items in
    let reshape = ref false and total = ref count in
    let changed = Array.make m false and emptied = Array.make m false in
    let j = ref lo in
    while !j < hi do
      let from = !j in
      let i = child order lo_stamps lo_items edits.(from).e_stamp edits.(from).e_item in
      let stop =
        if i = m - 1 then hi
        else
          let ls = lo_stamps.(i + 1) and li = lo_items.(i + 1) in
          from
          + prefix (hi - from) (fun x ->
                order edits.(from + x).e_stamp edits.(from + x).e_item ls li < 0)
      in
      let old = kids.(i) in
      (match edit_node order old edits from stop with
       | Some k ->
         total := !total - count_of old + count_of k;
         kids'.(i) <- k;
         lo_stamps'.(i) <- first_stamp k;
         lo_items'.(i) <- first_item k;
         if 2 * width k < capacity k then reshape := true
       | None ->
         total := !total - count_of old;
         emptied.(i) <- true;
         reshape := true);
      changed.(i) <- true;
      j := stop
    done;
    if not !reshape then
      Some (Inner { kids = kids'; lo_stamps = lo_stamps'; lo_items = lo_items'; count = !total })
    else begin
      (* a child emptied or fell under half full: drop or merge it *)
      let slots = ref [] in
      for i = m - 1 downto 0 do
        if not emptied.(i) then
          slots :=
            (if changed.(i) then slot kids'.(i)
             else { node = kids.(i); ls = lo_stamps.(i); li = lo_items.(i); small = false })
            :: !slots
      done;
      match Array.of_list (settle [] !slots) with
      | [||] -> None
      | ks ->
        Some
          (Inner
             {
               kids = Array.map (fun k -> k.node) ks;
               lo_stamps = Array.map (fun k -> k.ls) ks;
               lo_items = Array.map (fun k -> k.li) ks;
               count = !total;
             })
    end

let rec collapse = function
  | Inner { kids = [| k |]; _ } -> collapse k
  | node -> node

let edit order node edits =
  if Array.length edits = 0 then node
  else
    match edit_node order node edits 0 (Array.length edits) with
    | None -> empty_node
    | Some node -> collapse node

(* ---- Stores ---- *)

type key_tree = {
  col : int;
  keys : Value.t node; (* (row.(col), stamp) for every non-NULL key *)
}

type t = {
  rows : Row.t node;
  next : int; (* the next stamp to hand out *)
  indexes : key_tree list;
}

let empty = { rows = empty_node; next = 0; indexes = [] }

let of_array rows =
  let n = Array.length rows in
  { rows = build n Fun.id (Array.get rows); next = n; indexes = [] }

let cardinality t = count_of t.rows
let to_array t = flatten_items t.rows

let iter f t =
  touch (cardinality t);
  iter_node f t.rows

let keyed col r = not (Value.is_null r.(col))

(* The key tree over [rows] (in table order, the [i]th stamped
   [stamp i]): sort the positions of the non-NULL keys, then build. *)
let build_keys col ~stamp rows =
  let m = Array.fold_left (fun m r -> if keyed col r then m + 1 else m) 0 rows in
  let ids = Array.make m 0 and k = ref 0 in
  Array.iteri
    (fun i r ->
      if keyed col r then begin
        ids.(!k) <- i;
        incr k
      end)
    rows;
  (* stamps ascend with position: a stable sort by key is (key, stamp);
     rows loaded in key order skip the sort *)
  let cmp i j = Value.compare rows.(i).(col) rows.(j).(col) in
  let sorted = ref true and j = ref 1 in
  while !sorted && !j < m do
    if cmp ids.(!j - 1) ids.(!j) > 0 then sorted := false;
    incr j
  done;
  if not !sorted then Array.stable_sort cmp ids;
  { col; keys = build m (fun j -> stamp ids.(j)) (fun j -> rows.(ids.(j)).(col)) }

let rebuild_indexes t rows =
  if t.indexes = [] then { t with rows }
  else
    let stamps = flatten_stamps rows and all = flatten_items rows in
    {
      t with
      rows;
      indexes = List.map (fun ix -> build_keys ix.col ~stamp:(Array.get stamps) all) t.indexes;
    }

(* A change of [k] rows rebuilds the indexes in bulk once it is wide
   enough that per-row path copies would cost more than a sort. *)
let wide t k = k * 8 > cardinality t

(* Remove then add key entries, each given as (stamp, key). *)
let rekey ix ~gone ~added =
  let edits = Array.of_list (List.map (fun (s, k) -> { e_stamp = s; e_item = k; e_to = None }) gone) in
  Array.sort (fun a b -> by_key a.e_stamp a.e_item b.e_stamp b.e_item) edits;
  let keys = edit by_key ix.keys edits in
  { ix with keys = List.fold_left (fun keys (s, k) -> insert by_key keys s k) keys added }

(* The (stamp, key) entries of [entries] whose row has a non-NULL key. *)
let keys_of col entries =
  List.filter_map (fun (s, r) -> if keyed col r then Some (s, r.(col)) else None) entries

let append t fresh =
  let k = Array.length fresh in
  if k = 0 then t
  else
    let stamps = Array.init k (fun i -> t.next + i) in
    let next = t.next + k in
    if wide t k then
      let stamps = Array.append (flatten_stamps t.rows) stamps
      and all = Array.append (to_array t) fresh in
      {
        rows = build (Array.length stamps) (Array.get stamps) (Array.get all);
        next;
        indexes = List.map (fun ix -> build_keys ix.col ~stamp:(Array.get stamps) all) t.indexes;
      }
    else
      let rows = ref t.rows in
      Array.iteri (fun i r -> rows := insert by_stamp !rows stamps.(i) r) fresh;
      let entries = List.init k (fun i -> (stamps.(i), fresh.(i))) in
      {
        rows = !rows;
        next;
        indexes = List.map (fun ix -> rekey ix ~gone:[] ~added:(keys_of ix.col entries)) t.indexes;
      }

let delete t victims =
  let k = Array.length victims in
  if k = 0 then t
  else
    let rows =
      edit by_stamp t.rows
        (Array.map (fun (s, r) -> { e_stamp = s; e_item = r; e_to = None }) victims)
    in
    if wide t k then rebuild_indexes t rows
    else
      let entries = Array.to_list victims in
      { t with rows; indexes = List.map (fun ix -> rekey ix ~gone:(keys_of ix.col entries) ~added:[]) t.indexes }

let replace t changes =
  let k = Array.length changes in
  if k = 0 then t
  else
    let rows =
      edit by_stamp t.rows
        (Array.map (fun (s, old, r) -> { e_stamp = s; e_item = old; e_to = Some r }) changes)
    in
    if wide t k then rebuild_indexes t rows
    else
      (* an entry moves only when its key changes *)
      let reindex ix =
        let col = ix.col in
        let moved =
          List.filter
            (fun (_, old, r) ->
              keyed col old <> keyed col r
              || (keyed col r && Value.compare old.(col) r.(col) <> 0))
            (Array.to_list changes)
        in
        if moved = [] then ix
        else
          rekey ix
            ~gone:(keys_of col (List.map (fun (s, old, _) -> (s, old)) moved))
            ~added:(keys_of col (List.map (fun (s, _, r) -> (s, r)) moved))
      in
      { t with rows; indexes = List.map reindex t.indexes }

(* ---- Indexes ---- *)

type index = {
  key_tree : key_tree;
  resolve : unit -> int -> Row.t; (* a fresh stamp resolver *)
}

let has_index t ~col = List.exists (fun ix -> ix.col = col) t.indexes

let index t ~col =
  Option.map
    (fun key_tree -> { key_tree; resolve = (fun () -> resolver t.rows) })
    (List.find_opt (fun ix -> ix.col = col) t.indexes)

let add_index t ~col =
  if has_index t ~col then t
  else
    let stamps = flatten_stamps t.rows in
    { t with indexes = build_keys col ~stamp:(Array.get stamps) (to_array t) :: t.indexes }

let index_of_array rows ~col =
  { key_tree = build_keys col ~stamp:Fun.id rows; resolve = (fun () -> Array.get rows) }

let fold_stamps_eq ix v f init =
  if Value.is_null v then init
  else
    fold_from ix.keys
      ~before:(fun k -> Value.compare k v < 0)
      ~within:(fun k -> Value.compare k v = 0)
      f init

(* A NULL bound never compares TRUE: such a range is empty. *)
let fold_stamps_range ix ~lo ~hi f init =
  match lo, hi with
  | Some Value.Null, _ | _, Some Value.Null -> init
  | _ ->
    let before = match lo with None -> fun _ -> false | Some v -> fun k -> Value.compare k v < 0 in
    let within = match hi with None -> fun _ -> true | Some v -> fun k -> Value.compare k v <= 0 in
    fold_from ix.keys ~before ~within f init

let fold_eq ix v f init =
  let row = ix.resolve () in
  fold_stamps_eq ix.key_tree v (fun acc s -> f acc (row s)) init

let fold_range ix ~lo ~hi f init =
  let row = ix.resolve () in
  fold_stamps_range ix.key_tree ~lo ~hi (fun acc s -> f acc (row s)) init

(* A seek's cost: per entry found, its key and its row; plus the entry
   that stopped the scan and a binary search's worth of separators. *)
let seek t ~col fold =
  match List.find_opt (fun ix -> ix.col = col) t.indexes with
  | None -> invalid_arg "Store: no index on that column"
  | Some ix ->
    let row = resolver t.rows in
    let found = fold ix (fun acc s -> (s, row s) :: acc) [] in
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    touch ((2 * List.length found) + 1 + log2 (count_of ix.keys));
    List.rev found

let seek_eq t ~col v = seek t ~col (fun ix -> fold_stamps_eq ix v)
let seek_range t ~col ~lo ~hi = seek t ~col (fun ix -> fold_stamps_range ix ~lo ~hi)

(* ---- Inspection ---- *)

let tree_ok order node =
  let ok = ref true in
  let check b = if not b then ok := false in
  let rec go ~root node =
    match node with
    | Leaf { stamps; items } ->
      check (Array.length stamps = Array.length items);
      check (Array.length stamps <= chunk);
      check (root || Array.length stamps > 0);
      1
    | Inner { kids; lo_stamps; lo_items; count } ->
      let m = Array.length kids in
      check (m >= if root then 2 else 1);
      check (m <= fanout);
      check (count = Array.fold_left (fun acc k -> acc + count_of k) 0 kids);
      let heights = Array.map (go ~root:false) kids in
      check (Array.for_all (fun h -> h = heights.(0)) heights);
      Array.iteri
        (fun i k ->
          check (lo_stamps.(i) = first_stamp k);
          check (lo_items.(i) == first_item k))
        kids;
      1 + heights.(0)
  in
  ignore (go ~root:true node);
  let prev = ref None in
  iter_node
    (fun s x ->
      (match !prev with Some (s', x') -> check (order s' x' s x < 0) | None -> ());
      prev := Some (s, x))
    node;
  !ok

let well_formed t =
  tree_ok by_stamp t.rows
  && Array.for_all (fun s -> s < t.next) (flatten_stamps t.rows)
  && List.for_all
       (fun ix ->
         tree_ok by_key ix.keys
         &&
         let stamps = flatten_stamps t.rows in
         let expect = build_keys ix.col ~stamp:(Array.get stamps) (to_array t) in
         flatten_stamps expect.keys = flatten_stamps ix.keys
         && Array.for_all2 Value.equal (flatten_items expect.keys) (flatten_items ix.keys))
       t.indexes
