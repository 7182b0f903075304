(* Secondary indexes over a row array.

   Two flavours, mirroring what the paper's evaluation needs (Table 1
   contrasts the self-join simulation with and without an index on the
   sequence position):

   - [Hash]: equality lookups, O(1) expected.
   - [Ordered]: the row ids sorted by key, answering point and range
     lookups by binary search through the indexed rows (which it shares,
     never copies), standing in for DB2's B-tree.  One machine word per
     row keeps it cheap to retain beside every version of an array. *)

type kind =
  | Hash
  | Ordered

type t =
  | Hash_index of (Value.t, int list) Hashtbl.t
  | Ordered_index of { rows : Row.t array; key_col : int; ids : int array }

let kind_of = function
  | Hash_index _ -> Hash
  | Ordered_index _ -> Ordered

let kind_name = function
  | Hash -> "HASH"
  | Ordered -> "ORDERED"

(* NULL keys are not indexed: SQL equality/range predicates never match
   NULL, so lookups could never return them anyway. *)
let build kind (rows : Row.t array) ~key_col : t =
  match kind with
  | Hash ->
    let tbl = Hashtbl.create (max 16 (Array.length rows)) in
    Array.iteri
      (fun i row ->
        let k = Row.get row key_col in
        if not (Value.is_null k) then
          Hashtbl.replace tbl k
            (i :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
      rows;
    Hash_index tbl
  | Ordered ->
    let key i = Row.get rows.(i) key_col in
    let ids =
      Array.of_seq
        (Seq.filter (fun i -> not (Value.is_null (key i))) (Seq.init (Array.length rows) Fun.id))
    in
    (* stable: equal keys keep row-id order *)
    Array.stable_sort (fun i j -> Value.compare (key i) (key j)) ids;
    Ordered_index { rows; key_col; ids }

(* First position in [ids] whose key is >= k ([strict]: > k). *)
let bound ~strict rows key_col ids k =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      let c = Value.compare (Row.get rows.(ids.(mid)) key_col) k in
      if c < 0 || (strict && c = 0) then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ids)

let collect_ids ids ~start ~stop =
  if start >= stop then [] else Array.to_list (Array.sub ids start (stop - start))

(* Row ids whose key equals [k]. *)
let lookup_eq t k =
  if Value.is_null k then []
  else
    match t with
    | Hash_index tbl -> Option.value ~default:[] (Hashtbl.find_opt tbl k)
    | Ordered_index { rows; key_col; ids } ->
      collect_ids ids
        ~start:(bound ~strict:false rows key_col ids k)
        ~stop:(bound ~strict:true rows key_col ids k)

(* Row ids whose key lies in [lo, hi] (inclusive; either bound optional). *)
let lookup_range t ?lo ?hi () =
  match t with
  | Hash_index _ -> invalid_arg "Index.lookup_range: hash indexes answer equality only"
  | Ordered_index { rows; key_col; ids } ->
    let start = match lo with None -> 0 | Some v -> bound ~strict:false rows key_col ids v in
    let stop =
      match hi with None -> Array.length ids | Some v -> bound ~strict:true rows key_col ids v
    in
    collect_ids ids ~start ~stop

let supports_range t =
  match t with Ordered_index _ -> true | Hash_index _ -> false
