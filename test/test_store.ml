(* The row store: Store against a plain row array, the engine's DML
   against an array-model engine (contents and WAL records), the cost of
   replaying DELETE/UPDATE records, and plain EXPLAIN of statements that
   write. *)

open Rfview_relalg
module Db = Rfview_engine.Database
module Fault = Rfview_engine.Fault
module Wal = Rfview_engine.Wal
module Binder = Rfview_planner.Binder
module Parser = Rfview_sql.Parser
module Ast = Rfview_sql.Ast

let () = Rfview_analysis.Verify.enable ()

(* ---- Store against a plain array ---- *)

type op =
  | Append of (Value.t * int) list (* key, payload *)
  | Delete of int list (* positions, modulo the table size *)
  | Replace of (int * Value.t) list (* position, new key *)
  | Add_index
  | Seek_eq of Value.t
  | Seek_range of Value.t option * Value.t option

let gen_key = QCheck.Gen.(frequency [ (1, return Value.Null); (6, map (fun k -> Value.Int k) (int_range 0 15)) ])

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun rows -> Append rows) (list_size (int_range 0 6) (pair gen_key nat)));
        (2, map (fun rows -> Append rows) (list_size (int_range 50 400) (pair gen_key nat)));
        (1, map (fun rows -> Append rows) (list_size (int_range 2000 3000) (pair gen_key nat)));
        (4, map (fun ps -> Delete ps) (list_size (int_range 0 5) nat));
        (1, map (fun ps -> Delete ps) (list_size (int_range 50 500) nat));
        (4, map (fun ps -> Replace ps) (list_size (int_range 0 5) (pair nat gen_key)));
        (1, map (fun ps -> Replace ps) (list_size (int_range 50 500) (pair nat gen_key)));
        (1, return Add_index);
        (3, map (fun k -> Seek_eq k) gen_key);
        (3, map2 (fun lo hi -> Seek_range (lo, hi)) (opt gen_key) (opt gen_key));
      ])

let print_op = function
  | Append rows -> Printf.sprintf "append %d" (List.length rows)
  | Delete ps -> Printf.sprintf "delete %d" (List.length ps)
  | Replace ps -> Printf.sprintf "replace %d" (List.length ps)
  | Add_index -> "add index"
  | Seek_eq k -> "seek = " ^ Value.to_string k
  | Seek_range (lo, hi) ->
    let b = function None -> "_" | Some v -> Value.to_string v in
    Printf.sprintf "seek [%s, %s]" (b lo) (b hi)

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck.Gen.(list_size (int_range 1 25) gen_op)

(* The model: (stamp, row) in table order, the next stamp, and whether
   column 0 is indexed. *)
type model = { entries : (int * Row.t) array; next : int; indexed : bool }

let same_entries a b =
  List.length a = List.length b
  && List.for_all2 (fun (s, r) (s', r') -> s = s' && r == r') a b

let distinct_positions m ps =
  let n = Array.length m.entries in
  if n = 0 then [] else List.sort_uniq compare (List.map (fun p -> p mod n) ps)

let prop_store ops =
  let history = ref [] in
  let st = ref Store.empty and m = ref { entries = [||]; next = 0; indexed = false } in
  let check_now what =
    let rows = Array.map snd !m.entries in
    if not (Store.well_formed !st) then QCheck.Test.fail_reportf "%s: store not well formed" what;
    if Store.cardinality !st <> Array.length rows then
      QCheck.Test.fail_reportf "%s: cardinality %d, model %d" what (Store.cardinality !st)
        (Array.length rows);
    let flat = Store.to_array !st in
    if not (Array.length flat = Array.length rows && Array.for_all2 ( == ) flat rows) then
      QCheck.Test.fail_reportf "%s: flattened rows differ from the model" what
  in
  List.iter
    (fun op ->
      let cur = !m in
      (match op with
       | Append rows ->
         let fresh = Array.of_list (List.map (fun (k, p) -> [| k; Value.Int p |]) rows) in
         st := Store.append !st fresh;
         m :=
           {
             cur with
             entries =
               Array.append cur.entries (Array.mapi (fun i r -> (cur.next + i, r)) fresh);
             next = cur.next + Array.length fresh;
           }
       | Delete ps ->
         let victims = distinct_positions cur ps in
         st := Store.delete !st (Array.of_list (List.map (fun p -> cur.entries.(p)) victims));
         m :=
           {
             cur with
             entries =
               Array.of_list
                 (List.filteri (fun i _ -> not (List.mem i victims)) (Array.to_list cur.entries));
           }
       | Replace ps ->
         let n = Array.length cur.entries in
         if n > 0 then begin
           let changes =
             List.sort_uniq (fun (a, _) (b, _) -> compare a b)
               (List.map (fun (p, k) -> (p mod n, k)) ps)
           in
           let entries = Array.copy cur.entries in
           let edits =
             List.map
               (fun (p, k) ->
                 let s, old = entries.(p) in
                 let r = [| k; old.(1) |] in
                 entries.(p) <- (s, r);
                 (s, old, r))
               changes
           in
           st := Store.replace !st (Array.of_list edits);
           m := { cur with entries }
         end
       | Add_index ->
         st := Store.add_index !st ~col:0;
         m := { cur with indexed = true }
       | Seek_eq v ->
         if cur.indexed then begin
           let expect =
             List.filter
               (fun (_, r) -> (not (Value.is_null v)) && Value.compare r.(0) v = 0)
               (Array.to_list cur.entries)
           in
           if not (same_entries (Store.seek_eq !st ~col:0 v) expect) then
             QCheck.Test.fail_reportf "seek = %s differs from the model" (Value.to_string v);
           (* the index values the read path sees: row order for an
              ordered index, newest first for a hash index *)
           let rows = List.map snd expect in
           let ordered = Option.get (Index.of_store Index.Ordered !st ~col:0) in
           let hash = Option.get (Index.of_store Index.Hash !st ~col:0) in
           if not (List.equal ( == ) (Index.lookup_eq ordered v) rows) then
             QCheck.Test.fail_report "ordered lookup differs from the model";
           if not (List.equal ( == ) (Index.lookup_eq hash v) (List.rev rows)) then
             QCheck.Test.fail_report "hash lookup differs from the model"
         end
       | Seek_range (lo, hi) ->
         if cur.indexed then begin
           let null_bound = lo = Some Value.Null || hi = Some Value.Null in
           let inside (_, r) =
             (not null_bound)
             && (not (Value.is_null r.(0)))
             && (match lo with None -> true | Some v -> Value.compare r.(0) v >= 0)
             && match hi with None -> true | Some v -> Value.compare r.(0) v <= 0
           in
           let expect =
             List.filter inside (Array.to_list cur.entries)
             |> List.stable_sort (fun (_, a) (_, b) -> Value.compare a.(0) b.(0))
           in
           if not (same_entries (Store.seek_range !st ~col:0 ~lo ~hi) expect) then
             QCheck.Test.fail_report "range seek differs from the model";
           let ordered = Option.get (Index.of_store Index.Ordered !st ~col:0) in
           if
             not
               (List.equal ( == )
                  (Index.lookup_range ordered ?lo ?hi ())
                  (List.map snd expect))
           then QCheck.Test.fail_report "ordered range lookup differs from the model"
         end);
      check_now (print_op op);
      history := (!st, Array.map snd !m.entries) :: !history)
    ops;
  (* persistence: every old root still reads as the table it was *)
  List.for_all
    (fun (old, rows) ->
      let flat = Store.to_array old in
      Store.well_formed old
      && Array.length flat = Array.length rows
      && Array.for_all2 ( == ) flat rows)
    !history

(* ---- The engine against an array-model engine ----

   A random stream of INSERT and of sargable and non-sargable UPDATE and
   DELETE statements (updates of the indexed column included, some
   rolled back by an armed apply fault) runs on a durable database and
   on a model that keeps the table as a row array, filters it linearly
   and logs what the engine logged before the row store.  After every
   statement the table (in scan order) and the WAL records must agree;
   at the end the directory must recover the same table. *)

let stmt_schema =
  Schema.make [ Schema.column ~rel:"t" "k" Dtype.Int; Schema.column ~rel:"t" "v" Dtype.Int ]

type stmt = { sql : string; fault : string option }

let gen_stmt =
  let open QCheck.Gen in
  let lit = map string_of_int (int_range 0 9) in
  let key = frequency [ (1, return "NULL"); (5, lit) ] in
  let where =
    oneof
      [
        map (Printf.sprintf "k = %s") lit;
        map2 (Printf.sprintf "k BETWEEN %s AND %s") lit lit;
        map2 (Printf.sprintf "k IN (%s, %s)") lit lit;
        map (Printf.sprintf "k >= %s") lit;
        map2 (Printf.sprintf "k < %s AND v > %s") lit lit;
        map (Printf.sprintf "v = %s") lit;
        map2 (Printf.sprintf "k = %s OR v = %s") lit lit;
        map (Printf.sprintf "k IS NULL OR k = %s") lit;
      ]
  in
  let set =
    oneof
      [
        return "v = v + 1";
        map (Printf.sprintf "k = %s") key;
        return "k = k + 1";
        map (Printf.sprintf "v = %s, k = v") lit;
      ]
  in
  let body =
    frequency
      [
        ( 3,
          map
            (fun rows ->
              "INSERT INTO t VALUES "
              ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "(%s, %s)" k v) rows))
            (list_size (int_range 1 4) (pair key lit)) );
        (3, map2 (Printf.sprintf "UPDATE t SET %s WHERE %s") set where);
        (2, map (Printf.sprintf "DELETE FROM t WHERE %s") where);
      ]
  in
  let fault sql =
    let site =
      if String.starts_with ~prefix:"INSERT" sql then "database.apply_insert"
      else if String.starts_with ~prefix:"UPDATE" sql then "database.apply_update"
      else "database.apply_delete"
    in
    frequency [ (6, return None); (1, return (Some site)) ]
  in
  body >>= fun sql -> map (fun fault -> { sql; fault }) (fault sql)

let arb_stmts =
  QCheck.make
    ~print:(fun ss ->
      String.concat "\n"
        (List.map (fun s -> s.sql ^ match s.fault with Some f -> "  [fault " ^ f ^ "]" | None -> "") ss))
    QCheck.Gen.(list_size (int_range 1 40) gen_stmt)

(* The model engine: the table as an array, every predicate evaluated
   on every row. *)
let model_apply (rows : Row.t array) (stmt : Ast.statement) : Row.t array * Wal.record =
  let bind e = Binder.bind_scalar stmt_schema e in
  let pred = function None -> Expr.Const (Value.Bool true) | Some w -> bind w in
  match stmt with
  | Ast.St_insert { rows = values; _ } ->
    let fresh =
      Array.of_list
        (List.map (fun es -> Array.of_list (List.map (fun e -> Expr.eval [||] (bind e)) es)) values)
    in
    (Array.append rows fresh, Wal.Insert { table = "t"; rows = fresh })
  | Ast.St_update { assignments; where; _ } ->
    let p = pred where in
    let assigns = List.map (fun (c, e) -> (Schema.find stmt_schema c, bind e)) assignments in
    let pairs = ref [] in
    let rows =
      Array.map
        (fun row ->
          if Expr.holds row p then begin
            let fresh = Array.copy row in
            List.iter (fun (i, e) -> fresh.(i) <- Expr.eval row e) assigns;
            pairs := (row, fresh) :: !pairs;
            fresh
          end
          else row)
        rows
    in
    (rows, Wal.Update { table = "t"; pairs = Array.of_list (List.rev !pairs) })
  | Ast.St_delete { where; _ } ->
    let p = pred where in
    let gone, kept = List.partition (fun r -> Expr.holds r p) (Array.to_list rows) in
    (Array.of_list kept, Wal.Delete { table = "t"; rows = Array.of_list gone })
  | _ -> assert false

let fresh_dir name =
  let dir = "tsto_store_" ^ name in
  if Sys.file_exists dir then Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let table_rows db = Relation.rows (Db.query db "SELECT * FROM t")
let wal_records dir = (Wal.scan (Filename.concat dir "log.wal")).Wal.records

let same_rows a b = Array.length a = Array.length b && Array.for_all2 Row.equal a b

let prop_engine ~index stmts =
  Fault.reset ();
  let dir = fresh_dir (if index then "indexed" else "plain") in
  let db = Db.open_durable dir in
  ignore (Db.exec db "CREATE TABLE t (k INT, v INT)");
  if index then ignore (Db.exec db "CREATE INDEX t_k ON t (k)");
  (* a derived-IVM view: its maintenance consumes every delta, and
     Verify checks it against recomputation *)
  ignore (Db.exec db "CREATE MATERIALIZED VIEW tv AS SELECT k, v FROM t WHERE v >= 3");
  let base = List.length (wal_records dir) in
  let rows = ref [||] and log = ref [] in
  let ok =
    Fun.protect ~finally:Fault.reset (fun () ->
        List.for_all
          (fun { sql; fault } ->
            Option.iter (fun site -> Fault.arm site (Fault.Nth 1)) fault;
            let stmt = Parser.statement sql in
            (match Db.exec_statement db stmt with
             | _ ->
               if fault <> None then QCheck.Test.fail_reportf "%s: the armed fault did not fire" sql;
               let rows', record = model_apply !rows stmt in
               rows := rows';
               log := record :: !log
             | exception Fault.Injected _ when fault <> None -> ());
            Fault.disarm_all ();
            let got = table_rows db in
            if not (same_rows got !rows) then
              QCheck.Test.fail_reportf "%s: table differs from the model:@.%s@.model:@.%s" sql
                (Relation.render (Relation.of_array stmt_schema got))
                (Relation.render (Relation.of_array stmt_schema !rows));
            let records = List.filteri (fun i _ -> i >= base) (wal_records dir) in
            if records <> List.rev !log then
              QCheck.Test.fail_reportf "%s: WAL records differ from the model" sql;
            true)
          stmts)
  in
  Db.close db;
  (* replay: the log must rebuild the same table, in the same order *)
  let db' = Db.open_durable dir in
  let recovered = table_rows db' in
  Db.close db';
  ok && same_rows recovered !rows

(* ---- Replay cost ---- *)

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

(* Replay a k-row DELETE and a k-row UPDATE record onto an n-row table:
   with an index every pre-image seeks its key, O(k log n) rows touched;
   without one, a single pass against a hashed multiset, O(n + k). *)
let test_replay_cost () =
  let n = 20_000 and k = 16 in
  let run ~index =
    let db = Db.create () in
    ignore (Db.exec db "CREATE TABLE t (k INT, v INT)");
    if index then ignore (Db.exec db "CREATE INDEX t_k ON t (k)");
    Db.load_table db ~table:"t" (Array.init n (fun i -> [| Value.Int i; Value.Int (i mod 7) |]));
    let rows = table_rows db in
    let pick i = rows.((i * 1237) mod n) in
    let victims = Array.init k (fun i -> pick i) in
    let pairs = Array.init k (fun i -> let r = pick (i + k) in (r, [| r.(0); Value.Int (-1) |])) in
    let t0 = Store.touched () in
    Db.apply_record db (Wal.Delete { table = "t"; rows = victims });
    let t1 = Store.touched () in
    Db.apply_record db (Wal.Update { table = "t"; pairs });
    let t2 = Store.touched () in
    let after = table_rows db in
    Alcotest.(check int) "deleted" (n - k) (Array.length after);
    Alcotest.(check int) "updated" k
      (List.length (List.filter (fun r -> r.(1) = Value.Int (-1)) (Array.to_list after)));
    (t1 - t0, t2 - t1)
  in
  let seek_bound = k * ((4 * Store.chunk) + (4 * log2 n)) in
  let del, upd = run ~index:true in
  if del > seek_bound || upd > seek_bound then
    Alcotest.failf "indexed replay touched %d / %d rows, bound %d (n = %d, k = %d)" del upd
      seek_bound n k;
  let del, upd = run ~index:false in
  let scan_bound = n + (k * 4 * Store.chunk) in
  if del < n || upd < n || del > scan_bound || upd > scan_bound then
    Alcotest.failf "unindexed replay touched %d / %d rows, expected within [%d, %d]" del upd n
      scan_bound

(* ---- EXPLAIN of statements that write ---- *)

let file_size path = (Unix.stat path).Unix.st_size

let test_explain_changes_nothing () =
  let dir = fresh_dir "explain" in
  let db = Db.open_durable dir in
  List.iter
    (fun sql -> ignore (Db.exec db sql))
    [
      "CREATE TABLE t (a INT, b INT)";
      "CREATE INDEX t_a ON t (a)";
      "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)";
    ];
  let wal = Filename.concat dir "log.wal" in
  let unchanged what =
    let before = (table_rows db, Db.lsn db, file_size wal) in
    what ();
    let rows, lsn, size = before in
    Alcotest.(check bool) "rows unchanged" true (same_rows rows (table_rows db));
    Alcotest.(check int) "lsn unchanged" lsn (Db.lsn db);
    Alcotest.(check int) "wal size unchanged" size (file_size wal)
  in
  unchanged (fun () ->
      Alcotest.(check string) "delete seeks" "seek t.a eq" (Db.explain db "DELETE FROM t WHERE a = 2"));
  unchanged (fun () ->
      Alcotest.(check string) "range update seeks" "seek t.a range"
        (Db.explain db "UPDATE t SET b = 0 WHERE a BETWEEN 1 AND 2 AND b > 5"));
  unchanged (fun () ->
      Alcotest.(check string) "non-sargable update scans" "scan t"
        (Db.explain db "UPDATE t SET b = 0 WHERE b = 20"));
  List.iter
    (fun sql ->
      unchanged (fun () ->
          match Db.explain db sql with
          | s -> Alcotest.failf "EXPLAIN %s answered %S" sql s
          | exception Db.Engine_error _ -> ()))
    [ "DROP TABLE t"; "INSERT INTO t VALUES (4, 40)"; "CREATE TABLE u (x INT)" ];
  Alcotest.(check bool) "table still there" true
    (Rfview_engine.Catalog.find_table (Db.catalog db) "t" <> None);
  (* EXPLAIN ANALYZE still runs what it is given *)
  ignore (Db.exec db "EXPLAIN ANALYZE DELETE FROM t WHERE a = 2");
  Alcotest.(check int) "EXPLAIN ANALYZE executed" 2 (Array.length (table_rows db));
  Db.close db

(* A probe bound that fails to evaluate leaves the statement to the
   scan: on an empty table nothing is evaluated, on a full one the
   predicate fails on the first row, as before there was a seek. *)
let test_probe_error_scans () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT, b INT)");
  ignore (Db.exec db "CREATE INDEX t_a ON t (a)");
  let run sql = match Db.exec db sql with Db.Done s -> s | Db.Relation _ -> "rows" in
  Alcotest.(check string) "empty table" "DELETE 0" (run "DELETE FROM t WHERE a = 1 / 0");
  ignore (Db.exec db "INSERT INTO t VALUES (1, 10)");
  match run "UPDATE t SET b = 0 WHERE a = 1 / 0" with
  | s -> Alcotest.failf "UPDATE answered %S" s
  | exception Value.Type_error _ -> ()

let () =
  Alcotest.run "store"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:60 ~name:"store vs array" arb_ops prop_store);
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:60 ~name:"indexed DML vs array engine" arb_stmts
               (prop_engine ~index:true));
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:60 ~name:"unindexed DML vs array engine" arb_stmts
               (prop_engine ~index:false));
        ] );
      ("replay", [ Alcotest.test_case "touched rows" `Quick test_replay_cost ]);
      ( "seek",
        [
          Alcotest.test_case "explain changes nothing" `Quick test_explain_changes_nothing;
          Alcotest.test_case "probe errors scan" `Quick test_probe_error_scans;
        ] );
    ]
