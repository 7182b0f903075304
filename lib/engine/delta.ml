(* Accumulated base-table changes: one batch, or one statement outside
   a batch (a batch of one).

   A delta is a per-table multiset of inserted rows, deleted rows and
   (old, new) update pairs, consolidated as changes arrive so each base
   row appears at most once: inserting then deleting a row inside one
   batch cancels out, updating an inserted row folds into the insert,
   chained updates collapse to (original, final).  Propagation therefore
   sees the *net* change, which is exactly what the multi-row
   maintenance rules need.

   Pending inserts and updates are indexed by their current row, so
   consolidation finds a change's partner in O(log k) rather than by a
   list scan.  Inserts first go onto a plain list and are indexed only
   when a delete or update needs to search them, so an insert-only delta
   (a bulk load) costs no indexing.  Every recorded change carries an
   arrival stamp: among equal rows the newest arrival is the partner,
   and [find] reports each list in arrival order (insert ties are broken
   by arrival when the view merges them).

   The structure is persistent (maps of immutable accumulators), so the
   undo log can snapshot it by capturing the old pointer. *)

open Rfview_relalg

module M = Map.Make (String)
module R = Map.Make (Row)

(* Entries under one row key, newest stamp first. *)
type 'a entries = (int * 'a) list R.t

type acc = {
  next : int;                        (* the next arrival stamp *)
  fresh : (int * Row.t) list;        (* unindexed inserts, newest first,
                                        all newer than those in [ins] *)
  ins : Row.t entries;               (* current row -> the inserted row *)
  upd : (Row.t * Row.t) entries;     (* current row -> (original, current) *)
  del_rev : Row.t list;              (* newest first *)
}

let empty_acc = { next = 0; fresh = []; ins = R.empty; upd = R.empty; del_rev = [] }

type table_delta = {
  inserted : Row.t list;
  deleted : Row.t list;
  updated : (Row.t * Row.t) list;
}

type t = acc M.t

let empty : t = M.empty
let is_empty (d : t) = M.is_empty d

let key table = String.lowercase_ascii table

(* Remove the newest entry under [row]; None when there is none. *)
let take_newest (m : 'a entries) row =
  match R.find_opt row m with
  | Some (e :: rest) ->
    Some (e, if rest = [] then R.remove row m else R.add row rest m)
  | Some [] | None -> None

(* Add an entry under [row], keeping the newest stamp first. *)
let put (m : 'a entries) row ((s, _) as e) =
  let rec place = function
    | ((s', _) as x) :: rest when s' > s -> x :: place rest
    | l -> e :: l
  in
  R.update row (fun l -> Some (place (Option.value l ~default:[]))) m

let add_insert a row = { a with next = a.next + 1; fresh = (a.next, row) :: a.fresh }

(* Index the fresh inserts, oldest first, before a search. *)
let indexed a =
  if a.fresh = [] then a
  else
    let ins = List.fold_left (fun m ((_, row) as e) -> put m row e) a.ins in
    { a with fresh = []; ins = ins (List.rev a.fresh) }

let add_delete a row =
  let a = indexed a in
  (* a row inserted earlier simply vanishes *)
  match take_newest a.ins row with
  | Some (_, ins) -> { a with ins }
  | None ->
    (match take_newest a.upd row with
     | Some ((_, (original, _)), upd) ->
       (* a row updated earlier: the delete targets its current value;
          the net effect is deleting the original *)
       { a with upd; del_rev = original :: a.del_rev }
     | None -> { a with del_rev = row :: a.del_rev })

let add_update a (old_row, new_row) =
  let a = indexed a in
  match take_newest a.ins old_row with
  | Some ((s, _), ins) ->
    (* updating a row inserted earlier folds into the insert *)
    { a with ins = put ins new_row (s, new_row) }
  | None ->
    (match take_newest a.upd old_row with
     | Some ((s, (original, _)), upd) ->
       (* chained updates collapse to (original, final) *)
       { a with upd = put upd new_row (s, (original, new_row)) }
     | None ->
       {
         a with
         next = a.next + 1;
         upd = put a.upd new_row (a.next, (old_row, new_row));
       })

let record ~table add changes (d : t) =
  if changes = [] then d
  else
    let a = Option.value (M.find_opt (key table) d) ~default:empty_acc in
    M.add (key table) (List.fold_left add a changes) d

let insert ~table rows d = record ~table add_insert rows d
let delete ~table rows d = record ~table add_delete rows d
let update ~table pairs d = record ~table add_update pairs d

let tables (d : t) = List.map fst (M.bindings d)

(* The entries of a map, oldest arrival first. *)
let in_arrival (m : 'a entries) =
  R.fold (fun _ l acc -> List.rev_append l acc) m []
  |> List.sort (fun (s, _) (s', _) -> Int.compare s s')
  |> List.map snd

let find (d : t) table : table_delta option =
  match M.find_opt (key table) d with
  | None -> None
  | Some a ->
    let td =
      {
        inserted = in_arrival a.ins @ List.rev_map snd a.fresh;
        deleted = List.rev a.del_rev;
        updated = in_arrival a.upd;
      }
    in
    if td.inserted = [] && td.deleted = [] && td.updated = [] then None
    else Some td

let weight (td : table_delta) =
  List.length td.inserted + List.length td.deleted + List.length td.updated

let signed (td : table_delta) : (Row.t * int) list =
  List.map (fun r -> (r, 1)) td.inserted
  @ List.map (fun r -> (r, -1)) td.deleted
  @ List.concat_map (fun (o, n) -> [ (o, -1); (n, 1) ]) td.updated
