(* MVCC snapshot tests: version publishing at commit points, snapshot
   isolation (a snapshot never observes later writes, open batches, or
   rolled-back statements), the bounded retained-version window with
   pin-survival, snapshot-local healing of quarantined views, the
   [Rfview.Snapshot] façade, and a concurrent chaos harness proving
   that every snapshot read from a reader domain is bit-identical to
   the true historical state at its reported LSN.

   Domain count for the concurrent suites comes from RFVIEW_TEST_DOMAINS
   (default 4) — CI runs the suite at 1 and at 4. *)

open Rfview_relalg
module Db = Rfview_engine.Database
module Fault = Rfview_engine.Fault
module Session = Rfview.Session
module Snapshot = Rfview.Snapshot

let test_domains =
  match Sys.getenv_opt "RFVIEW_TEST_DOMAINS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

let with_clean_faults f =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset f

let db_with_view data =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE seq (pos INT, val FLOAT)");
  if data <> [] then
    ignore
      (Db.exec db
         (Printf.sprintf "INSERT INTO seq VALUES %s"
            (String.concat ", "
               (List.mapi (fun i v -> Printf.sprintf "(%d, %g)" (i + 1) v) data))));
  ignore
    (Db.exec db
       "CREATE MATERIALIZED VIEW v AS SELECT pos, val, SUM(val) OVER (ORDER BY \
        pos ROWS UNBOUNDED PRECEDING) AS s FROM seq");
  db

let count db sql = Relation.cardinality (Db.query db sql)
let snap_count sn sql = Relation.cardinality (Db.Snapshot.query sn sql)

(* ---- Version publishing ---- *)

let test_publish_on_commit () =
  let db = Db.create () in
  Alcotest.(check (list int)) "fresh db has version 0" [ 0 ]
    (Db.retained_lsns db);
  ignore (Db.exec db "CREATE TABLE t (a INT)");
  ignore (Db.exec db "INSERT INTO t VALUES (1)");
  Alcotest.(check (list int)) "one version per commit, newest first"
    [ 2; 1; 0 ] (Db.retained_lsns db);
  (* a failed statement publishes nothing *)
  (try ignore (Db.exec db "INSERT INTO nope VALUES (1)") with _ -> ());
  Alcotest.(check (list int)) "rollback publishes nothing" [ 2; 1; 0 ]
    (Db.retained_lsns db)

let test_batch_is_one_version () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT)");
  Db.with_batch db (fun () ->
      ignore (Db.exec db "INSERT INTO t VALUES (1)");
      ignore (Db.exec db "INSERT INTO t VALUES (2)");
      ignore (Db.exec db "INSERT INTO t VALUES (3)"));
  Alcotest.(check (list int)) "whole batch is one commit point" [ 2; 1; 0 ]
    (Db.retained_lsns db)

(* ---- Snapshot isolation ---- *)

let test_snapshot_isolation () =
  let db = db_with_view [ 1.; 2.; 3. ] in
  let sn = Db.snapshot db in
  let fp_before = Db.fingerprint db in
  ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
  ignore (Db.exec db "DELETE FROM seq WHERE pos = 1");
  Alcotest.(check int) "snapshot sees the old base" 3
    (snap_count sn "SELECT * FROM seq");
  Alcotest.(check int) "snapshot sees the old view" 3
    (snap_count sn "SELECT * FROM v");
  Alcotest.(check string) "snapshot fingerprint is the historical state"
    fp_before (Db.Snapshot.fingerprint sn);
  Alcotest.(check int) "live database moved on" 3
    (count db "SELECT * FROM seq");
  Db.release db sn

let test_snapshot_at_and_stale () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT)");
  for i = 1 to 20 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  (* default window is 8: version 1 has been evicted *)
  (match Db.snapshot_at db ~lsn:1 with
   | Ok _ -> Alcotest.fail "evicted version must not be snapshottable"
   | Error v ->
     Alcotest.(check int) "violation reports the wanted lsn" 1 v.applied_lsn;
     Alcotest.(check int) "violation reports the tip" 21 v.tip_lsn;
     Alcotest.(check int) "lag in records" 20 v.lag.records);
  (* a retained lsn is exact *)
  let lsn = List.nth (Db.retained_lsns db) 2 in
  (match Db.snapshot_at db ~lsn with
   | Error _ -> Alcotest.fail "retained version must be snapshottable"
   | Ok sn ->
     Alcotest.(check int) "exact lsn" lsn (Db.Snapshot.lsn sn);
     Alcotest.(check int) "historical cardinality" (lsn - 1)
       (snap_count sn "SELECT * FROM t");
     Db.Snapshot.close sn)

let test_retain_window_and_pins () =
  let db = Db.create () in
  Db.set_retain db 2;
  ignore (Db.exec db "CREATE TABLE t (a INT)");
  let sn = Db.snapshot db in
  (* push the pinned version far past the window *)
  for i = 1 to 10 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  Alcotest.(check (list int)) "window keeps the newest two plus the pin"
    [ 11; 10; 1 ] (Db.retained_lsns db);
  Alcotest.(check int) "pinned snapshot still serves" 0
    (snap_count sn "SELECT * FROM t");
  Db.Snapshot.close sn;
  ignore (Db.exec db "INSERT INTO t VALUES (99)");
  Alcotest.(check (list int)) "unpinned version swept on the next commit"
    [ 12; 11 ] (Db.retained_lsns db);
  Alcotest.(check bool) "set_retain validates" true
    (match Db.set_retain db 0 with
     | () -> false
     | exception Invalid_argument _ -> true
     | exception Db.Engine_error _ -> true)

let test_close_under_active_snapshot () =
  (* regression: releasing resources under an open snapshot must not
     invalidate it *)
  let db = db_with_view [ 1.; 2. ] in
  let sn = Db.snapshot db in
  Db.close db;
  Alcotest.(check int) "snapshot survives Db.close" 2
    (snap_count sn "SELECT * FROM seq");
  (* double release is idempotent *)
  Db.release db sn;
  Db.release db sn;
  Alcotest.(check bool) "released" true (Db.Snapshot.released sn);
  (match snap_count sn "SELECT * FROM seq" with
   | _ -> Alcotest.fail "closed snapshot must refuse queries"
   | exception Db.Engine_error _ -> ())

let test_snapshot_read_only () =
  let db = db_with_view [ 1. ] in
  let sn = Db.snapshot db in
  (match Db.Snapshot.query sn "INSERT INTO seq VALUES (9, 9)" with
   | _ -> Alcotest.fail "snapshot must refuse writes"
   | exception Db.Engine_error _ -> ());
  Alcotest.(check int) "nothing was written" 1 (count db "SELECT * FROM seq");
  Db.release db sn

let test_snapshot_local_heal () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      Fault.arm "matview.apply_insert" Fault.Always;
      ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
      Fault.disarm "matview.apply_insert";
      Alcotest.(check (list string)) "view is quarantined" [ "v" ]
        (Db.stale_views db);
      let sn = Db.snapshot db in
      (* the snapshot heals its own frozen copy... *)
      Alcotest.(check int) "snapshot read heals locally" 4
        (snap_count sn "SELECT * FROM v");
      (* ...without touching the live database *)
      Alcotest.(check (list string)) "live view is still quarantined" [ "v" ]
        (Db.stale_views db);
      Db.release db sn)

(* ---- The façade: Session.query as snapshot-at-tip, Rfview.Snapshot ---- *)

let session_fixture () =
  let s = Session.open_in_memory () in
  (match
     Session.exec_script s
       "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); INSERT INTO t \
        VALUES (2)"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Session.describe_error e));
  s

let test_session_query_snapshot_sugar () =
  let s = session_fixture () in
  (match Session.query s "SELECT * FROM t" with
   | Ok rel -> Alcotest.(check int) "quiescent read" 2 (Relation.cardinality rel)
   | Error e -> Alcotest.fail (Session.describe_error e));
  (* read-your-writes inside a batch: the direct path, not a snapshot *)
  Session.with_batch s (fun () ->
      (match Session.exec s "INSERT INTO t VALUES (3)" with
       | Ok _ -> ()
       | Error e -> Alcotest.fail (Session.describe_error e));
      match Session.query s "SELECT * FROM t" with
      | Ok rel ->
        Alcotest.(check int) "batch read sees its own writes" 3
          (Relation.cardinality rel)
      | Error e -> Alcotest.fail (Session.describe_error e));
  (* but a snapshot taken mid-batch must not *)
  Session.with_batch s (fun () ->
      (match Session.exec s "INSERT INTO t VALUES (4)" with
       | Ok _ -> ()
       | Error e -> Alcotest.fail (Session.describe_error e));
      let sn = Snapshot.snapshot s in
      (match Snapshot.query sn "SELECT * FROM t" with
       | Ok rel ->
         Alcotest.(check int) "snapshot mid-batch sees the pre-batch state" 3
           (Relation.cardinality rel)
       | Error e -> Alcotest.fail (Session.describe_error e));
      Snapshot.close sn)

let test_facade_snapshot_at_stale_error () =
  let s = session_fixture () in
  for i = 10 to 30 do
    ignore (Session.exec s (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  match Snapshot.at s ~lsn:1 with
  | Ok _ -> Alcotest.fail "evicted lsn must be refused"
  | Error (Session.Stale v) ->
    Alcotest.(check bool) "describe mentions staleness" true
      (String.length (Rfview.Staleness.describe v) > 0);
    Alcotest.(check int) "violation lsn" 1 v.applied_lsn
  | Error e -> Alcotest.fail (Session.describe_error e)

(* ---- qcheck: a snapshot never observes an open batch ---- *)

let prop_snapshot_never_sees_open_batch (values : int list) =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT)");
  ignore (Db.exec db "INSERT INTO t VALUES (0)");
  let before_rows = count db "SELECT * FROM t" in
  let before_lsns = Db.retained_lsns db in
  let tip = List.hd before_lsns in
  Db.with_batch db (fun () ->
      List.iter
        (fun v ->
          ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" v));
          (* snapshot mid-batch: must be the pre-batch commit point *)
          let sn = Db.snapshot db in
          if Db.Snapshot.lsn sn <> tip then
            QCheck.Test.fail_reportf
              "mid-batch snapshot at lsn %d, expected pre-batch tip %d"
              (Db.Snapshot.lsn sn) tip;
          let seen = snap_count sn "SELECT * FROM t" in
          if seen <> before_rows then
            QCheck.Test.fail_reportf
              "mid-batch snapshot sees %d rows, pre-batch state had %d" seen
              before_rows;
          Db.release db sn)
        values);
  (* after commit, a fresh snapshot sees everything *)
  let sn = Db.snapshot db in
  let seen = snap_count sn "SELECT * FROM t" in
  Db.release db sn;
  seen = before_rows + List.length values

let arb_batch_values =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 8) (int_range 0 1000))
    ~print:(fun l -> String.concat "," (List.map string_of_int l))

let qtest ~count name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ---- The shared read path and its index cache ----

   The writer, every snapshot and every reader domain read through one
   implementation, and a built index is cached beside the array it
   indexes.  Index-join view slices (the paper's Fig. 2 access path)
   must therefore agree everywhere after every commit, and a snapshot
   pinned commits ago must keep its answers: a cached index never
   serves a newer array. *)

let slice_queries =
  [
    (* range probe into the view's ordered index *)
    "SELECT b.pos, v.pos, v.s FROM seq b JOIN v ON v.pos BETWEEN b.pos AND \
     b.pos + 2";
    (* equality probe into the table's hash index *)
    "SELECT b.pos, t.val FROM v b JOIN seq t ON t.pos = b.pos";
  ]

let indexed_fixture () =
  let db = db_with_view [ 1.; 2.; 3.; 4. ] in
  ignore (Db.exec db "CREATE INDEX seq_pos ON seq (pos) USING HASH");
  ignore (Db.exec db "CREATE INDEX v_pos ON v (pos) USING ORDERED");
  db

(* Answers through the writer, through a tip snapshot read from
   [test_domains] domains at once, and recomputed without index joins;
   fails unless all agree. *)
let check_slices db ~context =
  let sn = Db.snapshot db in
  let from_domains =
    List.init test_domains (fun _ ->
        Domain.spawn (fun () -> List.map (Db.Snapshot.query sn) slice_queries))
    |> List.map Domain.join
  in
  Db.Snapshot.close sn;
  let writer = List.map (Db.run_query db) (List.map Rfview_sql.Parser.query slice_queries) in
  let cfg = Db.config db in
  Db.reconfigure db { cfg with index_join = false };
  let recomputed = List.map (Db.query db) slice_queries in
  Db.reconfigure db cfg;
  List.iteri
    (fun i sql ->
      let w = List.nth writer i in
      if not (Relation.equal_bag w (List.nth recomputed i)) then
        QCheck.Test.fail_reportf "%s: writer disagrees with recomputation on %s"
          context sql;
      List.iter
        (fun answers ->
          if not (Relation.equal_ordered w (List.nth answers i)) then
            QCheck.Test.fail_reportf "%s: tip snapshot disagrees with the writer on %s"
              context sql)
        from_domains)
    slice_queries;
  writer

type step =
  | Insert of int * int
  | Delete of int
  | Set_val of int * int
  | Move of int * int (* rewrites the indexed key *)
  | Refresh
  | Batch of step list

let rec sql_of = function
  | Insert (p, x) -> [ Printf.sprintf "INSERT INTO seq VALUES (%d, %d)" p x ]
  | Delete p -> [ Printf.sprintf "DELETE FROM seq WHERE pos = %d" p ]
  | Set_val (p, x) -> [ Printf.sprintf "UPDATE seq SET val = %d WHERE pos = %d" x p ]
  | Move (p, q) -> [ Printf.sprintf "UPDATE seq SET pos = %d WHERE pos = %d" q p ]
  | Refresh -> [ "REFRESH MATERIALIZED VIEW v" ]
  | Batch steps -> List.concat_map sql_of steps

let gen_step =
  QCheck.Gen.(
    let pos = int_range 0 12 and x = int_range (-50) 50 in
    let single =
      frequency
        [
          (4, map2 (fun p x -> Insert (p, x)) pos x);
          (2, map (fun p -> Delete p) pos);
          (2, map2 (fun p x -> Set_val (p, x)) pos x);
          (2, map2 (fun p q -> Move (p, q)) pos pos);
          (1, return Refresh);
        ]
    in
    frequency [ (4, single); (1, map (fun l -> Batch l) (list_size (int_range 2 4) single)) ])

let arb_steps =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 10) gen_step)
    ~print:(fun steps -> String.concat "; " (List.concat_map sql_of steps))

let prop_shared_index_cache steps =
  let db = indexed_fixture () in
  (* pin the starting state, then one more snapshot every third commit *)
  let pinned = ref [] in
  let pin ~context =
    let answers = check_slices db ~context in
    pinned := (Db.snapshot db, answers) :: !pinned
  in
  pin ~context:"initial state";
  List.iteri
    (fun i step ->
      (match sql_of step with
       | [ sql ] -> ignore (Db.exec db sql)
       | stmts -> Db.with_batch db (fun () -> List.iter (fun s -> ignore (Db.exec db s)) stmts));
      let context = Printf.sprintf "after commit %d" (i + 1) in
      if (i + 1) mod 3 = 0 then pin ~context else ignore (check_slices db ~context);
      List.iter
        (fun (sn, answers) ->
          List.iter2
            (fun sql answer ->
              if not (Relation.equal_ordered answer (Db.Snapshot.query sn sql)) then
                QCheck.Test.fail_reportf
                  "%s: snapshot pinned at lsn %d changed its answer to %s" context
                  (Db.Snapshot.lsn sn) sql)
            slice_queries answers)
        !pinned)
    steps;
  List.iter (fun (sn, _) -> Db.Snapshot.close sn) !pinned;
  true

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* The slices must really take the index access paths under test. *)
let test_index_join_plans () =
  let db = indexed_fixture () in
  List.iter2
    (fun sql access ->
      Alcotest.(check bool) (access ^ " is an index join") true
        (contains (Db.explain db sql) access))
    slice_queries [ "index(v.pos range)"; "index(seq.pos eq)" ]

(* A statement rolled back after the indexes were built restores each
   array together with its cache. *)
let test_rollback_keeps_index_correct () =
  with_clean_faults (fun () ->
      let db = indexed_fixture () in
      let before = check_slices db ~context:"before the fault" in
      Fault.arm "database.apply_update" Fault.Always;
      (match Db.exec db "UPDATE seq SET pos = pos + 100 WHERE pos <= 2" with
       | _ -> Alcotest.fail "the armed update must roll back"
       | exception Fault.Injected _ -> ());
      Fault.disarm "database.apply_update";
      let after = check_slices db ~context:"after the rollback" in
      Alcotest.(check bool) "rolled-back update left every answer unchanged" true
        (List.for_all2 Relation.equal_ordered before after);
      ignore (Db.exec db "UPDATE seq SET pos = pos + 100 WHERE pos <= 2");
      ignore (check_slices db ~context:"after the retried update"))

(* ---- Concurrent chaos: every read is a true historical state ---- *)

(* One writer domain commits random mutations; [test_domains] reader
   domains concurrently snapshot and compare fingerprints against an
   oracle of true historical states.  The oracle is built from a shadow
   database executing the identical statement sequence one step AHEAD
   of the primary, so by the time a version is snapshottable its
   expected fingerprint is already recorded.  Shadow and primary run
   with [`Abort] degradation so both stay deterministic. *)
let test_concurrent_chaos () =
  let mk () =
    let db =
      Db.create ~config:{ Db.default_config with degradation = `Abort } ()
    in
    ignore (Db.exec db "CREATE TABLE seq (pos INT, val FLOAT)");
    ignore
      (Db.exec db
         "CREATE MATERIALIZED VIEW v AS SELECT pos, val, SUM(val) OVER (ORDER \
          BY pos ROWS UNBOUNDED PRECEDING) AS s FROM seq");
    db
  in
  let primary = mk () and shadow = mk () in
  let steps = 60 in
  let statement i =
    match i mod 5 with
    | 0 | 1 | 2 -> Printf.sprintf "INSERT INTO seq VALUES (%d, %d)" i (i * 10)
    | 3 -> Printf.sprintf "DELETE FROM seq WHERE pos = %d" (i - 3)
    | _ -> Printf.sprintf "UPDATE seq SET val = %d WHERE pos = %d" (i * 7) (i - 2)
  in
  let oracle : (int, string) Hashtbl.t = Hashtbl.create 128 in
  let omu = Mutex.create () in
  let record_shadow () =
    let sn = Db.snapshot shadow in
    let lsn = Db.Snapshot.lsn sn and fp = Db.Snapshot.fingerprint sn in
    Db.release shadow sn;
    Mutex.lock omu;
    Hashtbl.replace oracle lsn fp;
    Mutex.unlock omu
  in
  record_shadow ();
  let done_flag = Atomic.make false in
  let wrong = Atomic.make 0 and reads = Atomic.make 0 in
  let reader () =
    while not (Atomic.get done_flag) do
      let sn = Db.snapshot primary in
      let lsn = Db.Snapshot.lsn sn in
      let fp = Db.Snapshot.fingerprint sn in
      (* consistency of two reads of the same snapshot *)
      let n1 = snap_count sn "SELECT * FROM seq" in
      let n2 = snap_count sn "SELECT * FROM seq" in
      Db.release primary sn;
      let expected =
        Mutex.lock omu;
        let e = Hashtbl.find_opt oracle lsn in
        Mutex.unlock omu;
        e
      in
      (match expected with
       | Some efp when efp = fp && n1 = n2 -> ()
       | Some _ | None -> Atomic.incr wrong);
      Atomic.incr reads
    done
  in
  let readers = List.init test_domains (fun _ -> Domain.spawn reader) in
  for i = 1 to steps do
    let sql = statement i in
    ignore (Db.exec shadow sql);
    record_shadow ();
    ignore (Db.exec primary sql);
    if i mod 10 = 0 then
      (* batched mutations exercise the single-commit-point path *)
      let batch =
        [ Printf.sprintf "INSERT INTO seq VALUES (%d, 1)" (1000 + i);
          Printf.sprintf "INSERT INTO seq VALUES (%d, 2)" (2000 + i) ]
      in
      begin
        Db.with_batch shadow (fun () ->
            List.iter (fun s -> ignore (Db.exec shadow s)) batch);
        record_shadow ();
        Db.with_batch primary (fun () ->
            List.iter (fun s -> ignore (Db.exec primary s)) batch)
      end
  done;
  Atomic.set done_flag true;
  List.iter Domain.join readers;
  Alcotest.(check int) "zero wrong reads" 0 (Atomic.get wrong);
  Alcotest.(check bool)
    (Printf.sprintf "readers made progress (%d reads)" (Atomic.get reads))
    true
    (Atomic.get reads > 0);
  Alcotest.(check string) "primary ended at the shadow's final state"
    (Db.fingerprint shadow) (Db.fingerprint primary)

let () =
  Alcotest.run "mvcc"
    [
      ( "versions",
        [
          Alcotest.test_case "publish on commit" `Quick test_publish_on_commit;
          Alcotest.test_case "batch is one version" `Quick
            test_batch_is_one_version;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "isolation" `Quick test_snapshot_isolation;
          Alcotest.test_case "snapshot_at exact + stale" `Quick
            test_snapshot_at_and_stale;
          Alcotest.test_case "retain window + pins" `Quick
            test_retain_window_and_pins;
          Alcotest.test_case "close under active snapshot" `Quick
            test_close_under_active_snapshot;
          Alcotest.test_case "read-only" `Quick test_snapshot_read_only;
          Alcotest.test_case "snapshot-local heal" `Quick
            test_snapshot_local_heal;
        ] );
      ( "facade",
        [
          Alcotest.test_case "Session.query is snapshot-at-tip" `Quick
            test_session_query_snapshot_sugar;
          Alcotest.test_case "Snapshot.at stale error" `Quick
            test_facade_snapshot_at_stale_error;
          qtest ~count:100 "snapshot never sees an open batch"
            arb_batch_values prop_snapshot_never_sees_open_batch;
        ] );
      ( "index cache",
        [
          Alcotest.test_case "slices are index joins" `Quick test_index_join_plans;
          qtest ~count:40 "writer, tip and pinned snapshots agree" arb_steps
            prop_shared_index_cache;
          Alcotest.test_case "rollback keeps index lookups correct" `Quick
            test_rollback_keeps_index_correct;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case
            (Printf.sprintf "chaos: %d reader domain(s), zero wrong reads"
               test_domains)
            `Slow test_concurrent_chaos;
        ] );
    ]
