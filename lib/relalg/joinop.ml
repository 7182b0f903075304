(* Join algorithms.  All joins emit the concatenated schema (left columns
   first).  The join condition is an expression over the concatenated
   schema.

   Three physical strategies, chosen by the planner:
   - nested loop: any condition, O(|L|·|R|);
   - hash join: equi-conjuncts plus an optional residual;
   - index join: for each outer (left) row, look the matching inner rows up
     in an index on an inner column — either by equality or by a range
     whose bounds are computed from the outer row.  This is the plan the
     paper's Table 1 calls "self join method with index". *)

type kind =
  | Inner
  | Left_outer

let null_row n : Row.t = Array.make n Value.Null

let output_schema left right =
  Schema.append (Relation.schema left) (Relation.schema right)

let nested_loop kind (left : Relation.t) (right : Relation.t) cond : Relation.t =
  let out = ref [] in
  let rrows = Relation.rows right in
  let rnull = null_row (Schema.arity (Relation.schema right)) in
  Relation.iter
    (fun lrow ->
      let matched = ref false in
      Array.iter
        (fun rrow ->
          let combined = Row.append lrow rrow in
          if Expr.holds combined cond then begin
            matched := true;
            out := combined :: !out
          end)
        rrows;
      if (not !matched) && kind = Left_outer then
        out := Row.append lrow rnull :: !out)
    left;
  Relation.of_array (output_schema left right) (Array.of_list (List.rev !out))

(* Hash join on [left_keys(l) = right_keys(r)] pairwise, with an optional
   residual predicate over the combined row.  SQL equality: NULL keys
   never match. *)
let hash_join kind ~(left : Relation.t) ~(right : Relation.t) ~left_keys ~right_keys
    ?residual () : Relation.t =
  if List.length left_keys <> List.length right_keys || left_keys = [] then
    invalid_arg "Joinop.hash_join: key lists must be equal-length and non-empty";
  let key_of exprs row = List.map (fun e -> Expr.eval row e) exprs in
  let tbl = Hashtbl.create (max 16 (Relation.cardinality right)) in
  Relation.iter
    (fun rrow ->
      let k = key_of right_keys rrow in
      if not (List.exists Value.is_null k) then
        Hashtbl.replace tbl k (rrow :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    right;
  let rnull = null_row (Schema.arity (Relation.schema right)) in
  let out = ref [] in
  Relation.iter
    (fun lrow ->
      let k = key_of left_keys lrow in
      let candidates =
        if List.exists Value.is_null k then []
        else Option.value ~default:[] (Hashtbl.find_opt tbl k)
      in
      let matched = ref false in
      List.iter
        (fun rrow ->
          let combined = Row.append lrow rrow in
          let ok = match residual with None -> true | Some p -> Expr.holds combined p in
          if ok then begin
            matched := true;
            out := combined :: !out
          end)
        (List.rev candidates);
      if (not !matched) && kind = Left_outer then
        out := Row.append lrow rnull :: !out)
    left;
  Relation.of_array (output_schema left right) (Array.of_list (List.rev !out))

(* Probe specification for an index join: how to derive the inner key
   bounds from the outer row. *)
type probe =
  | Probe_eq of Expr.t                       (* inner.key = f(outer) *)
  | Probe_range of Expr.t option * Expr.t option  (* f(outer) <= inner.key <= g(outer) *)
  | Probe_in of Expr.t list                  (* inner.key IN (f(outer), g(outer), ...) *)

let index_join kind ~(left : Relation.t) ~(right : Relation.t) ~(index : Index.t)
    ~probe ?residual () : Relation.t =
  let rnull = null_row (Schema.arity (Relation.schema right)) in
  let out = ref [] in
  Relation.iter
    (fun lrow ->
      let matches =
        match probe with
        | Probe_eq e -> Index.lookup_eq index (Expr.eval lrow e)
        | Probe_range (lo, hi) ->
          let eval_bound = Option.map (fun e -> Expr.eval lrow e) in
          (match eval_bound lo, eval_bound hi with
           (* a NULL bound can never compare TRUE against anything *)
           | Some Value.Null, _ | _, Some Value.Null -> []
           | lo, hi -> Index.lookup_range index ?lo ?hi ())
        | Probe_in items ->
          (* deduplicate keys so colliding item values do not double-count *)
          let keys = List.map (fun e -> Expr.eval lrow e) items in
          let keys = List.sort_uniq Value.compare keys in
          List.concat_map (Index.lookup_eq index) keys
      in
      let matched = ref false in
      List.iter
        (fun rrow ->
          let combined = Row.append lrow rrow in
          let ok = match residual with None -> true | Some p -> Expr.holds combined p in
          if ok then begin
            matched := true;
            out := combined :: !out
          end)
        matches;
      if (not !matched) && kind = Left_outer then
        out := Row.append lrow rnull :: !out)
    left;
  Relation.of_array (output_schema left right) (Array.of_list (List.rev !out))
