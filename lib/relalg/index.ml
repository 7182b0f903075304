(* Secondary indexes: one maintained structure (a Store.index ordered by
   (key, stamp)) behind both flavours the paper's evaluation needs —
   Table 1 contrasts the self-join simulation with and without an index
   on the sequence position.

   - [Hash]: equality lookups.  Equal keys come back newest row first,
     the order a chained hash table returns them in.
   - [Ordered]: point and range lookups, equal keys in row order,
     standing in for DB2's B-tree. *)

type kind =
  | Hash
  | Ordered

type t = {
  kind : kind;
  index : Store.index;
}

let kind_of t = t.kind

let kind_name = function
  | Hash -> "HASH"
  | Ordered -> "ORDERED"

let build kind rows ~key_col = { kind; index = Store.index_of_array rows ~col:key_col }

let of_store kind store ~col = Option.map (fun index -> { kind; index }) (Store.index store ~col)

let lookup_eq t k =
  let newest_first = Store.fold_eq t.index k (fun acc r -> r :: acc) [] in
  match t.kind with Hash -> newest_first | Ordered -> List.rev newest_first

let lookup_range t ?lo ?hi () =
  match t.kind with
  | Hash -> invalid_arg "Index.lookup_range: hash indexes answer equality only"
  | Ordered -> List.rev (Store.fold_range t.index ~lo ~hi (fun acc r -> r :: acc) [])

let supports_range t = t.kind = Ordered
