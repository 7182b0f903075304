(* Materialized sequence views: recognition, state, incremental
   maintenance (paper §2.3) and rendering.

   A view qualifies as a *sequence view* when its definition has the shape

     SELECT col..., agg(value_col) OVER
            ([PARTITION BY pcols] ORDER BY order_col [ROWS frame]) [AS a]
     FROM base_table

   with simple column references, a single ordering column and a
   cumulative or sliding ROWS frame.  For such views the engine keeps a
   per-partition core representation (raw data + complete sequence) and
   maintains it incrementally from each consolidated base-table delta;
   other views are refreshed by full recomputation.

   The value column must be numeric and NULL-free for the incremental
   path — checked when the state is initialized; otherwise the engine
   falls back to full refresh. *)

open Rfview_relalg
module Ast = Rfview_sql.Ast
module Core = Rfview_core

type seq_spec = {
  source : string;                 (* base table name *)
  partition : string list;         (* partition column names *)
  order_col : string;
  value_col : string;
  agg : Aggregate.kind;
  frame : Core.Frame.t;
  (* output layout: base column name per item, None = the window column *)
  items : (string option * string) list; (* (source column, output name) *)
}

(* ---- Recognition ---- *)

let simple_col = function
  | Ast.Column (_, name) -> Some name
  | _ -> None

let core_frame (w : Ast.window_fn) : Core.Frame.t option =
  match w.Ast.w_frame with
  | None -> if w.Ast.w_order <> [] then Some Core.Frame.Cumulative else None
  | Some { Ast.frame_mode = Ast.Frame_range; _ } -> None
  | Some { Ast.frame_mode = Ast.Frame_rows; frame_lo; frame_hi } ->
    let lo_off = function
      | Ast.Unbounded_preceding -> Some None (* unbounded *)
      | Ast.Preceding n -> Some (Some n)
      | Ast.Current_row -> Some (Some 0)
      | Ast.Following _ | Ast.Unbounded_following -> None
    in
    let hi_off = function
      | Ast.Following n -> Some (Some n)
      | Ast.Current_row -> Some (Some 0)
      | Ast.Preceding _ | Ast.Unbounded_preceding | Ast.Unbounded_following -> None
    in
    (match lo_off frame_lo, hi_off frame_hi with
     | Some None, Some (Some 0) -> Some Core.Frame.Cumulative
     | Some (Some l), Some (Some h) -> Some (Core.Frame.sliding ~l ~h)
     | _ -> None)

let recognize (q : Ast.query) : seq_spec option =
  match q.Ast.body with
  | Ast.Select
      {
        distinct = false;
        items;
        from = [ Ast.Table { name = source; alias = _ } ];
        where = None;
        group_by = [];
        having = None;
      }
    when q.Ast.order_by = [] || true -> begin
      (* collect items: simple columns plus exactly one window function *)
      let win = ref None in
      let layout = ref [] in
      let ok =
        List.for_all
          (fun item ->
            match item with
            | Ast.Sel_expr (Ast.Column (_, c), alias) ->
              layout := (Some c, Option.value ~default:c alias) :: !layout;
              true
            | Ast.Sel_expr (Ast.Window w, alias) when !win = None ->
              win := Some (w, alias);
              layout := (None, Option.value ~default:"seq_val" alias) :: !layout;
              true
            | _ -> false)
          items
      in
      if not ok then None
      else
        match !win with
        | None -> None
        | Some (w, _) ->
          let open Ast in
          (match
             ( Aggregate.kind_of_name w.w_func,
               (match w.w_args with [ a ] -> simple_col a | _ -> None),
               w.w_order,
               core_frame w )
           with
           | Some agg, Some value_col, [ { o_expr; o_asc = true } ], Some frame ->
             (match simple_col o_expr with
              | Some order_col ->
                let partition =
                  List.map
                    (fun p -> simple_col p)
                    w.w_partition
                in
                if List.for_all Option.is_some partition then
                  Some
                    {
                      source;
                      partition = List.map Option.get partition;
                      order_col;
                      value_col;
                      agg;
                      frame;
                      items = List.rev !layout;
                    }
                else None
              | None -> None)
           | _ -> None)
    end
  | _ -> None

(* ---- Maintenance state ---- *)

type partition_state = {
  pkey : Value.t list;
  mutable base_rows : Row.t array; (* base rows of this partition, ordered *)
  mutable raw : Core.Seqdata.raw;
  mutable seq : Core.Seqdata.t;
}

type state = {
  spec : seq_spec;
  base_schema : Schema.t;
  out_schema : Schema.t;
  pcols : int list;   (* partition column indices in the base schema *)
  ocol : int;         (* order column index *)
  vcol : int;         (* value column index *)
  mutable parts : partition_state list; (* sorted by pkey *)
}

exception Not_maintainable of string

(* Fault-injection site (see Fault): state construction.  Maintenance
   defines its own below. *)
let site_init = Fault.define "matview.init_state"

let core_agg = function
  | Aggregate.Sum | Aggregate.Count | Aggregate.Avg -> Core.Agg.Sum
  | Aggregate.Min -> Core.Agg.Min
  | Aggregate.Max -> Core.Agg.Max

let compare_pkey a b =
  let rec go = function
    | [], [] -> 0
    | x :: xs, y :: ys ->
      let c = Value.compare x y in
      if c <> 0 then c else go (xs, ys)
    | _ -> assert false
  in
  go (a, b)

let value_of st row =
  match Row.get row st.vcol with
  | Value.Null -> raise (Not_maintainable "NULL in the value column")
  | v ->
    (try Value.to_float v
     with Value.Type_error _ -> raise (Not_maintainable "non-numeric value column"))

let pkey_of st row = List.map (fun i -> Row.get row i) st.pcols

let find_partition st pkey = List.find_opt (fun p -> compare_pkey p.pkey pkey = 0) st.parts

let add_partition st p =
  st.parts <- List.sort (fun a b -> compare_pkey a.pkey b.pkey) (p :: st.parts)

let drop_partition st p = st.parts <- List.filter (fun q -> q != p) st.parts

(* A fresh partition over rows already sorted by the order column. *)
let new_partition st pkey rows =
  let raw = Core.Seqdata.raw_of_array (Array.map (value_of st) rows) in
  let seq = Core.Compute.sequence ~agg:(core_agg st.spec.agg) st.spec.frame raw in
  { pkey; base_rows = rows; raw; seq }

(* Build the state from the current base-table contents.  Raises
   [Not_maintainable] when the value column contains NULLs or
   non-numerics. *)
let init_state (spec : seq_spec) ~(base : Relation.t) ~(out_schema : Schema.t) : state =
  Fault.hit site_init;
  let base_schema = Relation.schema base in
  let find c =
    match Schema.find_opt base_schema c with
    | Some i -> i
    | None -> raise (Not_maintainable (Printf.sprintf "base column %s missing" c))
  in
  let pcols = List.map find spec.partition in
  let ocol = find spec.order_col in
  let vcol = find spec.value_col in
  let st = { spec; base_schema; out_schema; pcols; ocol; vcol; parts = [] } in
  (* partition rows *)
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  Relation.iter
    (fun row ->
      let k = pkey_of st row in
      match Hashtbl.find_opt tbl k with
      | Some rows -> rows := row :: !rows
      | None ->
        Hashtbl.add tbl k (ref [ row ]);
        order := k :: !order)
    base;
  st.parts <-
    List.map
      (fun k ->
        let arr = Array.of_list (List.rev !(Hashtbl.find tbl k)) in
        (* stable sort by the order column *)
        let idx = Array.init (Array.length arr) Fun.id in
        Array.sort
          (fun i j ->
            let c = Value.compare (Row.get arr.(i) ocol) (Row.get arr.(j) ocol) in
            if c <> 0 then c else Int.compare i j)
          idx;
        new_partition st k (Array.map (fun i -> arr.(i)) idx))
      (List.rev !order)
    |> List.sort (fun a b -> compare_pkey a.pkey b.pkey);
  st

(* Copy of the mutable layers, for undo-log snapshots: the state and
   partition records.  Maintenance never writes into a row, raw-value or
   sequence array in place (it installs fresh ones), so those are
   shared. *)
let copy_state (st : state) : state =
  { st with parts = List.map (fun p -> { p with pkey = p.pkey }) st.parts }

(* ---- Rendering ----

   The engine renders on the read path: a commit installs a deferred
   rendering of a frozen copy of the state, and the first reader of that
   version runs [render].  So rendering has no fault site — a reader
   domain must not fire writer hooks — and counts its calls, which lets
   tests prove that an unread commit renders nothing. *)

let renders = Atomic.make 0
let render_count () = Atomic.get renders

let render (st : state) : Relation.t =
  Atomic.incr renders;
  (* per output item: the base column it copies, or -1 for the window
     column *)
  let src =
    Array.of_list
      (List.map
         (function Some c, _ -> Schema.find st.base_schema c | None, _ -> -1)
         st.spec.items)
  in
  let width = Array.length src in
  (* an INT window column takes integral aggregates as [Value.Int] *)
  let int_out =
    List.exists Fun.id
      (List.mapi
         (fun i (c, _) -> c = None && (Schema.col st.out_schema i).Schema.ty = Dtype.Int)
         st.spec.items)
  in
  let frame = st.spec.frame in
  let out =
    Array.make (List.fold_left (fun n p -> n + Array.length p.base_rows) 0 st.parts) [||]
  in
  let at = ref 0 in
  List.iter
    (fun p ->
      let n = Core.Seqdata.raw_length p.raw in
      let float_value v =
        if int_out && Float.is_integer v then Value.Int (int_of_float v)
        else Value.Float v
      in
      let window k =
        match st.spec.agg with
        | Aggregate.Sum | Aggregate.Min | Aggregate.Max ->
          let v = Core.Seqdata.get p.seq k in
          if Float.is_nan v then Value.Null else float_value v
        | Aggregate.Count -> Value.Int (Core.Agg.count_at frame ~n ~k)
        | Aggregate.Avg ->
          let c = Core.Agg.count_at frame ~n ~k in
          if c = 0 then Value.Null
          else float_value (Core.Seqdata.get p.seq k /. float_of_int c)
      in
      Array.iteri
        (fun i row ->
          let r = Array.make width Value.Null in
          for j = 0 to width - 1 do
            let c = src.(j) in
            r.(j) <- (if c >= 0 then Row.get row c else window (i + 1))
          done;
          out.(!at) <- r;
          incr at)
        p.base_rows)
    st.parts;
  Relation.of_array st.out_schema out

(* ---- Incremental maintenance (§2.3 over a consolidated delta) ----

   Every change reaches a view as one consolidated delta: a batch, or a
   single statement as a batch of one.  One partition's edits are merged
   into the ordered row array in a single pass that claims each deleted
   or updated row by binary search on the order column and places each
   insert after the rows whose order value is <= its own.  The merge is
   described as runs of kept old rows (an old rank range and its new
   offset) plus the new ranks of inserted/updated rows ("touches") and
   of deletion gaps, so the new row, raw-value and sequence arrays are
   built by one memory copy per run.

   Each event dirties the window span it touches — [k-h, k+l] for an
   insert/update landing at new rank k, [g-h, g+l-1] for a deletion gap
   at g — and each contiguous dirty run is recomputed with one pipelined
   span scan (Maintain.recompute_span).  Clean positions copy the old
   sequence value under their run's rank shift: a clean position's
   window contains no edit, so every raw value in it moved by the same
   offset.  When at least half the sequence is dirty the partition is
   recomputed outright.

   No array a state holds is ever written in place: a merge installs
   fresh arrays.  So undo snapshots copy only the partition records
   ([copy_state]) and the members of a scan-share class can share their
   merged row arrays. *)

let site_apply_batch = Fault.define "matview.apply_batch"

(* Stable by arrival on equal order values: a new row lands after the
   existing rows (and earlier arrivals) with an equal order value. *)
let sort_inserts ~ocol inserts =
  List.stable_sort
    (fun a b -> Value.compare (Row.get a ocol) (Row.get b ocol))
    inserts

(* Kept old ranks [old_lo, old_lo+len-1] land at new ranks
   [new_lo, new_lo+len-1]. *)
type run = { old_lo : int; new_lo : int; len : int }

type merge = {
  rows' : Row.t array;
  runs : run list;     (* ascending *)
  touches : int list;  (* new ranks of inserted and updated rows, ascending *)
  gaps : int list;     (* new rank following each deleted row, ascending *)
}

(* Number of rows (0-based index of the first row) whose order value is
   below [v], or with [~past_equal] at most [v]. *)
let order_bound ~ocol (rows : Row.t array) v ~past_equal =
  let lo = ref 0 and hi = ref (Array.length rows) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Value.compare (Row.get rows.(mid) ocol) v in
    if c < 0 || (past_equal && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Structural half of one partition's merge.  Depends only on the order
   column and the ordered base rows — not on the view's value column,
   aggregate or frame — which is what shared-scan maintenance exploits:
   every view of a scan-share class has the same [base_rows], so the
   merge is computed once and replayed per view. *)
let merge_structure ~ocol (base_rows : Row.t array) ~sorted_inserts ~deletes
    ~updates =
  let n = Array.length base_rows in
  (* claim one old rank per delete, then per update: the first unclaimed
     equal row among the ties of its order value *)
  let claimed = Hashtbl.create 8 in
  let claim row =
    let v = Row.get row ocol in
    let rec go k =
      if k >= n || Value.compare (Row.get base_rows.(k) ocol) v <> 0 then
        raise (Not_maintainable "edited row not found in view state")
      else if (not (Hashtbl.mem claimed k)) && Row.equal base_rows.(k) row then begin
        Hashtbl.add claimed k ();
        k + 1
      end
      else go (k + 1)
    in
    go (order_bound ~ocol base_rows v ~past_equal:false)
  in
  let dropped = List.map (fun r -> (claim r, None)) deletes in
  let set = List.map (fun (o, nw) -> (claim o, Some nw)) updates in
  let edits = Array.of_list (dropped @ set) in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) edits;
  let n' = n - List.length deletes + List.length sorted_inserts in
  if n' = 0 then `Drop
  else begin
    let rows' = Array.make n' [||] in
    let runs = ref [] and touches = ref [] and gaps = ref [] in
    let nk = ref 0 (* new ranks filled *) and ok = ref 1 (* next old rank *) in
    let keep_to hi =
      let len = hi - !ok + 1 in
      if len > 0 then begin
        Array.blit base_rows (!ok - 1) rows' !nk len;
        runs := { old_lo = !ok; new_lo = !nk + 1; len } :: !runs;
        nk := !nk + len;
        ok := hi + 1
      end
    in
    let emit row =
      rows'.(!nk) <- row;
      incr nk;
      touches := !nk :: !touches
    in
    (* an insert goes before the first old row with a greater order
       value; [p] counts the old rows it follows *)
    let rec go ins e =
      match ins with
      | (p, row) :: rest when e >= Array.length edits || p < fst edits.(e) ->
        keep_to p;
        emit row;
        go rest e
      | _ when e < Array.length edits ->
        let r, set = edits.(e) in
        keep_to (r - 1);
        (match set with
         | None -> gaps := (!nk + 1) :: !gaps
         | Some nw -> emit nw);
        ok := r + 1;
        go ins (e + 1)
      | _ -> keep_to n
    in
    go
      (List.map
         (fun r -> (order_bound ~ocol base_rows (Row.get r ocol) ~past_equal:true, r))
         sorted_inserts)
      0;
    `Edit
      {
        rows';
        runs = List.rev !runs;
        touches = List.rev !touches;
        gaps = List.rev !gaps;
      }
  end

(* Per-view half: build the raw values and the sequence from the merge
   runs, recompute the dirty spans, and install. *)
let apply_merge st (p : partition_state) (m : merge) =
  let agg = core_agg st.spec.agg in
  let frame = st.spec.frame in
  let n = Array.length p.base_rows in
  let n' = Array.length m.rows' in
  let data = Array.make n' 0. in
  List.iter
    (fun r ->
      Core.Seqdata.raw_blit p.raw ~pos:r.old_lo data ~dst_pos:(r.new_lo - 1) ~len:r.len)
    m.runs;
  List.iter (fun k -> data.(k - 1) <- value_of st m.rows'.(k - 1)) m.touches;
  let raw' = Core.Seqdata.raw_of_array data in
  let lo', hi' = Core.Seqdata.complete_range frame ~n:n' in
  let l, h =
    match frame with
    | Core.Frame.Sliding { l; h } -> (l, h)
    | Core.Frame.Cumulative -> (max n' n, 0)
  in
  (* the dirty positions as ascending, disjoint, non-adjacent spans *)
  let dirty =
    List.map (fun k -> (k - h, k + l)) m.touches
    @ List.map (fun g -> (g - h, g + l - 1)) m.gaps
    |> List.filter_map (fun (a, b) ->
           let a = max lo' a and b = min hi' b in
           if a <= b then Some (a, b) else None)
    |> List.sort compare
    |> List.fold_left
         (fun acc (a, b) ->
           match acc with
           | (a0, b0) :: rest when a <= b0 + 1 -> (a0, max b0 b) :: rest
           | _ -> (a, b) :: acc)
         []
    |> List.rev
  in
  let size = hi' - lo' + 1 in
  let dirty_count = List.fold_left (fun acc (a, b) -> acc + b - a + 1) 0 dirty in
  let seq' =
    if 2 * dirty_count >= size then
      (* the delta is wider than the view: recompute the partition *)
      Core.Compute.sequence ~agg frame raw'
    else begin
      let out = Array.make size 0. in
      (* every clean position lies in a run (the runs at the ends also
         cover the header and trailer) and keeps its old value under the
         run's shift; dirty positions are overwritten below *)
      List.iter
        (fun r ->
          let a = if r.new_lo = 1 then lo' else r.new_lo in
          let b = if r.new_lo + r.len - 1 = n' then hi' else r.new_lo + r.len - 1 in
          Core.Seqdata.blit p.seq ~pos:(a + r.old_lo - r.new_lo) out ~dst_pos:(a - lo')
            ~len:(b - a + 1))
        m.runs;
      List.iter
        (fun (rlo, rhi) ->
          let span =
            match frame with
            | Core.Frame.Sliding _ ->
              Core.Maintain.recompute_span ~agg ~l ~h raw' ~lo:rlo ~hi:rhi
            | Core.Frame.Cumulative ->
              let seed =
                if rlo = 1 then
                  match agg with
                  | Core.Agg.Sum -> 0.
                  | Core.Agg.Min | Core.Agg.Max -> Core.Agg.absent
                else out.(rlo - 1 - lo')
              in
              Core.Maintain.recompute_cumulative_span ~agg raw' ~seed ~lo:rlo ~hi:rhi
          in
          Array.blit span 0 out (rlo - lo') (Array.length span))
        dirty;
      Core.Seqdata.make frame agg ~n:n' ~lo:lo' out
    end
  in
  p.base_rows <- m.rows';
  p.raw <- raw';
  p.seq <- seq'

(* Group one consolidated delta by partition key (first-seen order),
   normalizing updates that move a row (order or partition changed) to
   delete + insert; their inserts sort after same-order arrivals. *)
let group_edits st ~inserts ~deletes ~updates =
  let in_place, moved =
    List.partition
      (fun (o, nw) ->
        compare_pkey (pkey_of st o) (pkey_of st nw) = 0
        && Value.equal (Row.get o st.ocol) (Row.get nw st.ocol))
      updates
  in
  let deletes = deletes @ List.map fst moved in
  let inserts = inserts @ List.map snd moved in
  let groups = ref [] in
  let group_of pkey =
    match List.find_opt (fun (k, _) -> compare_pkey k pkey = 0) !groups with
    | Some (_, g) -> g
    | None ->
      let g = (ref [], ref [], ref []) in
      groups := !groups @ [ (pkey, g) ];
      g
  in
  List.iter
    (fun r ->
      let ins, _, _ = group_of (pkey_of st r) in
      ins := r :: !ins)
    inserts;
  List.iter
    (fun r ->
      let _, del, _ = group_of (pkey_of st r) in
      del := r :: !del)
    deletes;
  List.iter
    (fun ((o, _) as pr) ->
      let _, _, upd = group_of (pkey_of st o) in
      upd := pr :: !upd)
    in_place;
  List.map
    (fun (pkey, (ins, del, upd)) ->
      (pkey, (List.rev !ins, List.rev !del, List.rev !upd)))
    !groups

(* What a delta does to one partition, computed against a state whose
   ordered rows are the class's shared structure. *)
type partition_plan =
  | P_new of Row.t array  (* no partition under this key: fresh sorted rows *)
  | P_drop                (* the partition empties *)
  | P_edit of { merge : merge; old_len : int }

let plan_partitions st ~inserts ~deletes ~updates =
  List.map
    (fun (pkey, (ins, del, upd)) ->
      let sorted_inserts = sort_inserts ~ocol:st.ocol ins in
      match find_partition st pkey with
      | None ->
        if del <> [] || upd <> [] then
          raise (Not_maintainable "edited row not found in view state");
        (pkey, P_new (Array.of_list sorted_inserts))
      | Some p ->
        (match
           merge_structure ~ocol:st.ocol p.base_rows ~sorted_inserts ~deletes:del
             ~updates:upd
         with
         | `Drop -> (pkey, P_drop)
         | `Edit merge -> (pkey, P_edit { merge; old_len = Array.length p.base_rows })))
    (group_edits st ~inserts ~deletes ~updates)

(* Replay one partition plan into [st]. *)
let install_partition st (pkey, pplan) =
  let diverged () =
    (* the state's partitions differ structurally from the ones the plan
       was made against: a broken scan-share class invariant *)
    raise (Not_maintainable "shared-scan state divergence")
  in
  match (pplan, find_partition st pkey) with
  | P_new rows, None -> add_partition st (new_partition st pkey rows)
  | P_drop, Some p -> drop_partition st p
  | P_edit { merge; old_len }, Some p ->
    if Array.length p.base_rows <> old_len then diverged ();
    apply_merge st p merge
  | P_new _, Some _ | P_drop, None | P_edit _, None -> diverged ()

let apply_batch st ~inserts ~deletes ~updates =
  Fault.hit site_apply_batch;
  List.iter (install_partition st) (plan_partitions st ~inserts ~deletes ~updates)

(* Kept for the benchmark's single-row probe only: each is one
   single-row {!apply_batch}. *)
let apply_insert st row = apply_batch st ~inserts:[ row ] ~deletes:[] ~updates:[]
let apply_delete st row = apply_batch st ~inserts:[] ~deletes:[ row ] ~updates:[]

let apply_update st ~old_row ~new_row =
  apply_batch st ~inserts:[] ~deletes:[] ~updates:[ (old_row, new_row) ]

(* ---- Shared-scan maintenance ----

   All sequence views of one scan-share class (same base table, same
   partition columns, same order column — certified by
   Rfview_analysis.Share and re-checked here) keep the same [base_rows]
   per partition: both initialization and every maintenance step are
   deterministic functions of the base contents and the shared
   (partition, order) key.  So the per-view work that depends only on
   that structure — delta grouping, claim matching, the merge runs and
   the merged row arrays — is computed ONCE against a representative
   state ([shared_plan]) and replayed into each view ([apply_shared]),
   leaving per view only the raw values and the dirty-span sequence
   recompute.  Members share the merged row arrays: no state writes into
   one in place. *)

type shared_plan = {
  shp_pcols : int list;
  shp_ocol : int;
  shp_parts : (Value.t list * partition_plan) list;
}

let site_apply_shared = Fault.define "matview.apply_shared"

let shared_plan states ~inserts ~deletes ~updates : shared_plan =
  match states with
  | [] -> invalid_arg "Matview.shared_plan: empty class"
  | rep :: rest ->
    List.iter
      (fun st ->
        if
          st.pcols <> rep.pcols || st.ocol <> rep.ocol
          || String.lowercase_ascii st.spec.source
             <> String.lowercase_ascii rep.spec.source
        then invalid_arg "Matview.shared_plan: states disagree on the scan key")
      rest;
    {
      shp_pcols = rep.pcols;
      shp_ocol = rep.ocol;
      shp_parts = plan_partitions rep ~inserts ~deletes ~updates;
    }

let apply_shared (plan : shared_plan) st =
  Fault.hit site_apply_shared;
  if st.pcols <> plan.shp_pcols || st.ocol <> plan.shp_ocol then
    invalid_arg "Matview.apply_shared: state disagrees with the plan's scan key";
  List.iter (install_partition st) plan.shp_parts

(* ---- Derived views (generalized IVM) ----

   Views beyond the sequence shape — joins, GROUP BY, partition-local
   window sets — maintain through the algebraic delta plans of
   Planner.Deriv.  The engine derives the rules once at refresh time
   (gated on a valid Ivmcert incrementality certificate) and replays
   them here for each maintained delta; the state is immutable (rules plus
   source tables), so undo snapshots are just the binding. *)

module Derived = struct
  module Deriv = Rfview_planner.Deriv

  type t = {
    rules : Deriv.t;
    sources : string list; (* lowercased base tables the rules read *)
  }

  let site_apply = Fault.define "matview.apply_derived"

  let make rules = { rules; sources = Deriv.sources rules }
  let sources t = t.sources
  let shape_name t = Deriv.shape_name t.rules
  let has_window t = Deriv.has_window t.rules

  (* Apply one consolidated delta to the view's contents.
     @raise Deriv.Divergence when an exact removal finds no row (the
     engine falls back to a full refresh). *)
  let apply_batch t ~(env : Deriv.env) ~(contents : Relation.t) : Relation.t =
    Fault.hit site_apply;
    Deriv.splice contents (Deriv.apply env t.rules)
end
