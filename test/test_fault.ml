(* Robustness tests: the fault-injection registry, statement-level
   atomicity (undo-logged rollback), view quarantine with lazy healing,
   cache degradation, script error reporting and the chaos harness.

   Alcotest runs suites sequentially, so the global fault registry is
   safe to share; every test resets it on entry and exit. *)

open Rfview_relalg
module Db = Rfview_engine.Database
module Catalog = Rfview_engine.Catalog
module Cache = Rfview_engine.Cache
module Csv = Rfview_engine.Csv
module Fault = Rfview_engine.Fault
module Chaos = Rfview_workload.Chaos

let with_clean_faults f =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset f

let check_same_bag what a b =
  if not (Relation.equal_bag a b) then
    Alcotest.failf "%s:@.left:@.%s@.right:@.%s" what
      (Relation.render (Relation.sorted_by_all a))
      (Relation.render (Relation.sorted_by_all b))

(* ---- Fixtures ---- *)

(* seq(pos, val) with unique positions, carrying one incrementally
   maintained cumulative-SUM view [v]. *)
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

let recompute db =
  Db.run_query db (Catalog.view (Db.catalog db) "v").Catalog.definition

(* ---- Registry and policies ---- *)

let test_site = Fault.define "test.site"

let fires f = match f () with _ -> false | exception Fault.Injected _ -> true

let test_policy_always () =
  with_clean_faults (fun () ->
      Fault.hit test_site;
      Alcotest.(check int) "unarmed hit counted" 1 (Fault.hits "test.site");
      Alcotest.(check int) "unarmed never fires" 0 (Fault.fired "test.site");
      Fault.arm "test.site" Fault.Always;
      Alcotest.(check bool) "armed" true (Fault.is_armed "test.site");
      Alcotest.(check bool) "fires" true (fires (fun () -> Fault.hit test_site));
      Alcotest.(check bool) "fires again" true (fires (fun () -> Fault.hit test_site));
      Alcotest.(check int) "fired counted" 2 (Fault.fired "test.site");
      Fault.disarm "test.site";
      Alcotest.(check bool) "quiet after disarm" false
        (fires (fun () -> Fault.hit test_site)))

let test_policy_nth () =
  with_clean_faults (fun () ->
      Fault.arm "test.site" (Fault.Nth 3);
      let pattern = List.init 5 (fun _ -> fires (fun () -> Fault.hit test_site)) in
      Alcotest.(check (list bool)) "fires exactly on the 3rd hit, once"
        [ false; false; true; false; false ] pattern;
      Alcotest.(check int) "fired once" 1 (Fault.fired "test.site"))

let test_policy_probability_deterministic () =
  with_clean_faults (fun () ->
      let sample () =
        Fault.arm "test.site" (Fault.Probability { p = 0.5; seed = 123 });
        List.init 50 (fun _ -> fires (fun () -> Fault.hit test_site))
      in
      let a = sample () and b = sample () in
      Alcotest.(check (list bool)) "same seed, same pattern" a b;
      Alcotest.(check bool) "p=0.5 fires sometimes" true (List.mem true a);
      Alcotest.(check bool) "p=0.5 passes sometimes" true (List.mem false a);
      Fault.arm "test.site" (Fault.Probability { p = 0.; seed = 123 });
      Alcotest.(check bool) "p=0 never fires" false
        (List.mem true (List.init 20 (fun _ -> fires (fun () -> Fault.hit test_site)))))

let test_with_suspended () =
  with_clean_faults (fun () ->
      Fault.arm "test.site" Fault.Always;
      let before = Fault.hits "test.site" in
      Fault.with_suspended (fun () -> Fault.hit test_site);
      Alcotest.(check int) "suspended hit still counted" (before + 1)
        (Fault.hits "test.site");
      Alcotest.(check int) "suspended hit never fires" 0 (Fault.fired "test.site");
      Alcotest.(check bool) "fires once resumed" true
        (fires (fun () -> Fault.hit test_site)))

let test_arm_validation () =
  with_clean_faults (fun () ->
      let invalid f = match f () with _ -> false | exception Invalid_argument _ -> true in
      Alcotest.(check bool) "unknown site" true
        (invalid (fun () -> Fault.arm "no.such.site" Fault.Always));
      Alcotest.(check bool) "nth < 1" true
        (invalid (fun () -> Fault.arm "test.site" (Fault.Nth 0)));
      Alcotest.(check bool) "p > 1" true
        (invalid (fun () -> Fault.arm "test.site" (Fault.Probability { p = 1.5; seed = 0 }))))

let test_parse_spec () =
  let ok spec expected =
    match Fault.parse_spec spec with
    | Ok got ->
      Alcotest.(check (pair string string))
        spec
        (fst expected, Fault.describe_policy (snd expected))
        (fst got, Fault.describe_policy (snd got))
    | Error e -> Alcotest.failf "%s: unexpected error %s" spec e
  in
  let err spec =
    match Fault.parse_spec spec with
    | Ok _ -> Alcotest.failf "%s: expected an error" spec
    | Error _ -> ()
  in
  ok "database.apply_insert:always" ("database.apply_insert", Fault.Always);
  ok "x.y:nth=7" ("x.y", Fault.Nth 7);
  ok "x.y:p=0.25@99" ("x.y", Fault.Probability { p = 0.25; seed = 99 });
  ok "x.y:p=0.25" ("x.y", Fault.Probability { p = 0.25; seed = 0 });
  err "no-colon";
  err ":always";
  err "x.y:sometimes";
  err "x.y:nth=0";
  err "x.y:nth=many";
  err "x.y:p=1.5";
  err "x.y:p=0.5@x"

(* ---- Statement atomicity: rollback at every site ---- *)

(* Every (site, statement) pair that can abort a statement: under
   [`Abort] degradation an injected fault must leave the database
   fingerprint-identical, and the same statement must succeed once the
   site is disarmed. *)
let rollback_cases =
  (* [mutates]: whether a successful run changes the fingerprint
     (REFRESH of a fresh view is an idempotent no-op) *)
  [
    ("database.apply_insert", "INSERT INTO seq VALUES (10, 99)", true);
    ("database.apply_delete", "DELETE FROM seq WHERE pos = 1", true);
    ("database.apply_update", "UPDATE seq SET val = 99 WHERE pos = 2", true);
    ("database.propagate_view", "INSERT INTO seq VALUES (10, 99)", true);
    ("database.refresh_view", "REFRESH MATERIALIZED VIEW v", false);
    ("matview.init_state",
     "CREATE MATERIALIZED VIEW v2 AS SELECT pos, val, MIN(val) OVER (ORDER BY \
      pos ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS m FROM seq", true);
    ("matview.apply_insert", "INSERT INTO seq VALUES (10, 99)", true);
    ("matview.apply_delete", "DELETE FROM seq WHERE pos = 1", true);
    ("matview.apply_update", "UPDATE seq SET val = 99 WHERE pos = 2", true);
  ]

let test_rollback_per_site () =
  with_clean_faults (fun () ->
      List.iter
        (fun (site, sql, mutates) ->
          let db = db_with_view [ 1.; 2.; 3.; 4. ] in
          Db.reconfigure db { (Db.config db) with Db.degradation = `Abort };
          let before = Chaos.fingerprint db in
          Fault.arm site Fault.Always;
          (match Db.exec db sql with
           | _ -> Alcotest.failf "%s: statement should have aborted" site
           | exception _ -> ());
          Alcotest.(check bool)
            (site ^ ": site actually fired") true
            (Fault.fired site > 0);
          Alcotest.(check string)
            (site ^ ": rollback left the db bit-identical") before
            (Chaos.fingerprint db);
          Fault.disarm site;
          ignore (Db.exec db sql);
          Alcotest.(check bool)
            (site ^ ": statement applies once disarmed") mutates
            (Chaos.fingerprint db <> before);
          (* the views must be consistent after the successful run *)
          check_same_bag (site ^ ": view consistent")
            (Db.query db "SELECT * FROM v") (recompute db))
        rollback_cases)

let test_csv_load_atomic () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2. ] in
      let before = Chaos.fingerprint db in
      Fault.arm "csv.load_row" (Fault.Nth 2);
      (match Csv.import_string db ~table:"seq" "pos,val\n5,50\n6,60\n" with
       | _ -> Alcotest.fail "import should have aborted"
       | exception Fault.Injected "csv.load_row" -> ());
      Alcotest.(check string) "no partial load" before (Chaos.fingerprint db);
      Fault.disarm "csv.load_row";
      Alcotest.(check int) "import succeeds once disarmed" 2
        (Csv.import_string db ~table:"seq" "pos,val\n5,50\n6,60\n");
      check_same_bag "view refreshed by the load"
        (Db.query db "SELECT * FROM v") (recompute db))

let test_ddl_rollback () =
  (* DDL joins the same undo scope: a CREATE whose initial view
     computation faults must not leave the name behind. *)
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2. ] in
      Db.reconfigure db { (Db.config db) with Db.degradation = `Abort };
      Fault.arm "matview.init_state" Fault.Always;
      (match
         Db.exec db "CREATE MATERIALIZED VIEW broken AS SELECT pos, val, SUM(val) \
                     OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s FROM seq"
       with
       | _ -> Alcotest.fail "create should have aborted"
       | exception _ -> ());
      Alcotest.(check bool) "name not taken" true
        (Catalog.find_view (Db.catalog db) "broken" = None);
      Fault.disarm "matview.init_state";
      ignore
        (Db.exec db "CREATE MATERIALIZED VIEW broken AS SELECT pos, val, SUM(val) \
                     OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s FROM seq");
      Alcotest.(check bool) "name reusable after rollback" true
        (Catalog.find_view (Db.catalog db) "broken" <> None))

(* ---- Quarantine and lazy healing ---- *)

let test_quarantine_and_heal () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      Fault.arm "matview.apply_insert" Fault.Always;
      (* default [`Quarantine]: the statement succeeds, the view goes stale *)
      ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
      Alcotest.(check int) "base row applied" 4
        (Relation.cardinality (Db.query db "SELECT * FROM seq"));
      Alcotest.(check bool) "view quarantined" true (Db.is_stale db "v");
      Alcotest.(check (list string)) "stale_views lists it" [ "v" ] (Db.stale_views db);
      Fault.disarm "matview.apply_insert";
      (* the next read heals by full refresh *)
      let r = Db.query db "SELECT * FROM v" in
      Alcotest.(check bool) "healed by the read" false (Db.is_stale db "v");
      check_same_bag "healed contents correct" r (recompute db);
      (* once healed, incremental maintenance works again *)
      ignore (Db.exec db "INSERT INTO seq VALUES (5, 50)");
      Alcotest.(check bool) "stays fresh" false (Db.is_stale db "v");
      check_same_bag "maintained after healing"
        (Db.query db "SELECT * FROM v") (recompute db))

let test_quarantine_isolates_views () =
  (* only the faulting view is quarantined; others stay fresh *)
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      ignore
        (Db.exec db
           "CREATE MATERIALIZED VIEW w AS SELECT pos, val, MIN(val) OVER (ORDER \
            BY pos ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS m FROM seq");
      (* fire only on the first propagation of the statement: one view
         quarantines, the other maintains normally *)
      Fault.arm "database.propagate_view" (Fault.Nth 1);
      ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
      Alcotest.(check int) "exactly one view stale" 1 (List.length (Db.stale_views db));
      List.iter
        (fun (view : Catalog.view) ->
          if not view.Catalog.stale then
            match view.Catalog.contents with
            | Some c ->
              check_same_bag (view.Catalog.view_name ^ " fresh and correct")
                (Catalog.relation c)
                (Db.run_query db view.Catalog.definition)
            | None -> Alcotest.fail "materialized view without contents")
        (Catalog.all_views (Db.catalog db)))

(* ---- Cache degradation ---- *)

let cache_q frame =
  Printf.sprintf
    "SELECT pos, val, SUM(val) OVER (ORDER BY pos ROWS BETWEEN %s) AS s FROM seq"
    frame

let test_cache_derive_fault_bypasses () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 3.; 1.; 4.; 1.; 5. ] in
      let cache = Cache.create db in
      let _, o1 = Cache.query cache (cache_q "3 PRECEDING AND 2 FOLLOWING") in
      (match o1 with
       | Cache.Miss_cached _ -> ()
       | o -> Alcotest.failf "expected a miss, got %s" (Cache.describe_outcome o));
      Alcotest.(check int) "one entry" 1 (List.length (Cache.entries cache));
      Fault.arm "cache.derive_answer" Fault.Always;
      let q = cache_q "2 PRECEDING AND 1 FOLLOWING" in
      let r, o = Cache.query cache q in
      Alcotest.(check bool) "degrades to a bypass" true (o = Cache.Bypass);
      Alcotest.(check bool) "site fired" true (Fault.fired "cache.derive_answer" > 0);
      check_same_bag "bypass answer still correct" r
        (Fault.with_suspended (fun () -> Db.query db q));
      Alcotest.(check (list string)) "faulting entry evicted" [] (Cache.entries cache);
      Alcotest.(check int) "counted as bypass" 1 (Cache.stats cache).Cache.bypasses)

let test_cache_admit_fault_bypasses () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      let cache = Cache.create db in
      Fault.arm "cache.admit" Fault.Always;
      let q = cache_q "1 PRECEDING AND 1 FOLLOWING" in
      let r, o = Cache.query cache q in
      Alcotest.(check bool) "degrades to a bypass" true (o = Cache.Bypass);
      check_same_bag "result still correct" r
        (Fault.with_suspended (fun () -> Db.query db q));
      Alcotest.(check (list string)) "nothing admitted" [] (Cache.entries cache);
      Fault.disarm "cache.admit";
      (* no residue: the same query now admits normally *)
      let _, o2 = Cache.query cache q in
      (match o2 with
       | Cache.Miss_cached _ -> ()
       | o -> Alcotest.failf "expected a miss, got %s" (Cache.describe_outcome o)))

let test_cache_fifo_eviction () =
  let db = db_with_view [ 1.; 2.; 3.; 4. ] in
  let cache = Cache.create ~capacity:2 db in
  let q l =
    Printf.sprintf
      "SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN %d PRECEDING AND \
       CURRENT ROW) AS m FROM seq" l
  in
  let admit l =
    match Cache.query cache (q l) with
    | _, Cache.Miss_cached name -> name
    | _, o -> Alcotest.failf "expected a miss, got %s" (Cache.describe_outcome o)
  in
  (* MIN views cannot serve shrinking frames, so each is a fresh miss *)
  let e1 = admit 3 and e2 = admit 2 and e3 = admit 1 in
  Alcotest.(check (list string)) "oldest evicted first, order kept" [ e2; e3 ]
    (Cache.entries cache);
  Alcotest.(check bool) "evicted entry's view dropped" true
    (Catalog.find_view (Db.catalog db) e1 = None)

(* ---- Script errors ---- *)

let test_script_error_context () =
  let db = Db.create () in
  (match
     Db.exec_script db
       "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); INSERT INTO missing \
        VALUES (2); INSERT INTO t VALUES (3)"
   with
   | _ -> Alcotest.fail "script should have failed"
   | exception Db.Script_error { index; sql; cause } ->
     Alcotest.(check int) "1-based statement index" 3 index;
     Alcotest.(check string) "failing SQL text" "INSERT INTO missing VALUES (2)" sql;
     (match cause with
      | Catalog.Catalog_error _ -> ()
      | e -> Alcotest.failf "unexpected cause %s" (Printexc.to_string e)));
  (* statements are atomic individually: everything before the failure
     persists, the failing statement left nothing behind *)
  Alcotest.(check int) "prior statements persisted" 1
    (Relation.cardinality (Db.query db "SELECT * FROM t"))

(* ---- Rollback idempotence (property) ---- *)

let prop_sites =
  [
    "database.apply_insert"; "database.apply_delete"; "database.apply_update";
    "database.propagate_view"; "database.refresh_view"; "matview.init_state";
    "matview.apply_insert"; "matview.apply_delete"; "matview.apply_update";
  ]

(* A short random DML stream; values are integers so SQL text round-trips
   exactly. *)
let gen_stream seed =
  let prng = Rfview_workload.Prng.create ~seed in
  List.init 12 (fun _ ->
      match Rfview_workload.Prng.int prng 8 with
      | 0 | 1 | 2 | 3 ->
        Printf.sprintf "INSERT INTO seq VALUES (%d, %d)"
          (Rfview_workload.Prng.int_range prng ~lo:1 ~hi:15)
          (Rfview_workload.Prng.int_range prng ~lo:(-9) ~hi:9)
      | 4 | 5 ->
        Printf.sprintf "UPDATE seq SET val = %d WHERE pos = %d"
          (Rfview_workload.Prng.int_range prng ~lo:(-9) ~hi:9)
          (Rfview_workload.Prng.int_range prng ~lo:1 ~hi:15)
      | 6 ->
        Printf.sprintf "DELETE FROM seq WHERE pos = %d"
          (Rfview_workload.Prng.int_range prng ~lo:1 ~hi:15)
      | _ -> "REFRESH MATERIALIZED VIEW v")

(* After any single injected fault, every statement either applied fully
   (db equals a fault-free twin) or not at all (db fingerprint
   unchanged). *)
let prop_rollback_idempotent (site_idx, nth, seed) =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      let twin = db_with_view [ 1.; 2.; 3. ] in
      Db.reconfigure db { (Db.config db) with Db.degradation = `Abort };
      Fault.arm (List.nth prop_sites site_idx) (Fault.Nth nth);
      List.for_all
        (fun sql ->
          let before = Chaos.fingerprint db in
          match Db.exec db sql with
          | _ ->
            Fault.with_suspended (fun () -> ignore (Db.exec twin sql));
            let ok = Chaos.fingerprint db = Chaos.fingerprint twin in
            if not ok then
              QCheck.Test.fail_reportf "partial application of %S" sql;
            ok
          | exception _ ->
            let ok = Chaos.fingerprint db = before in
            if not ok then QCheck.Test.fail_reportf "dirty rollback of %S" sql;
            ok)
        (gen_stream seed))

let arb_fault_case =
  QCheck.make
    QCheck.Gen.(
      let* site_idx = int_range 0 (List.length prop_sites - 1) in
      let* nth = int_range 1 8 in
      let* seed = int_range 0 10_000 in
      return (site_idx, nth, seed))
    ~print:(fun (site_idx, nth, seed) ->
      Printf.sprintf "site=%s nth=%d seed=%d" (List.nth prop_sites site_idx) nth seed)

let qtest ?(count = 150) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ---- Chaos harness ---- *)

let test_chaos_clean () =
  with_clean_faults (fun () ->
      let r = Chaos.run () in
      Alcotest.(check int) "all statements attempted" r.Chaos.statements
        Chaos.default_config.Chaos.ops;
      Alcotest.(check int) "nothing failed without injection" 0 r.Chaos.failed;
      Alcotest.(check int) "nothing quarantined without injection" 0 r.Chaos.quarantines;
      Alcotest.(check bool) "cache exercised" true (r.Chaos.cache_probes > 0);
      Alcotest.(check bool) "cache hits observed" true (r.Chaos.cache_hits > 0);
      (* the no-injection run must not fire a single site *)
      List.iter
        (fun site -> Alcotest.(check int) (site ^ " quiet") 0 (Fault.fired site))
        (Fault.sites ()))

(* Sweep every registered site across policies and stream seeds until
   each has fired at least once inside a consistent run — the tentpole
   acceptance bar: every site fired, every invariant held. *)
let test_chaos_sweep_all_sites () =
  with_clean_faults (fun () ->
      let policies =
        [ Fault.Nth 1; Fault.Nth 3; Fault.Probability { p = 0.4; seed = 7 } ]
      in
      let seeds = [ 11; 23; 47; 91 ] in
      (* durability sites (wal, checkpoint, recover, io prefixes) are
         only reachable through a durable database directory, and
         replication sites (ship, replica prefixes) only through a feed
         pipeline; test_crash.ml's crash matrix, test_replica.ml and
         test_storage.ml apply the same fired-at-least-once bar to
         them *)
      let durability_site site =
        List.exists
          (fun p -> String.length site > String.length p && String.sub site 0 (String.length p) = p)
          [ "wal."; "checkpoint."; "recover."; "ship."; "replica."; "io." ]
      in
      List.iter
        (fun site ->
          if site <> "test.site" && not (durability_site site) then begin
            List.iter
              (fun policy ->
                List.iter
                  (fun seed ->
                    if Fault.fired site = 0 then
                      ignore
                        (Chaos.run
                           ~config:{ Chaos.default_config with Chaos.seed }
                           ~inject:(site, policy) ()))
                  seeds)
              policies;
            Alcotest.(check bool) (site ^ " fired during the sweep") true
              (Fault.fired site > 0)
          end)
        (Fault.sites ()))

(* ---- Undo with nested/overlapping snapshots ----

   Restore actions are absolute snapshots, so logging the same table
   twice in one statement (e.g. a DML apply followed by a full-refresh
   fallback) must still roll back to the oldest snapshot — and a replay
   interrupted partway (a double fault during rollback) must be safely
   restartable without re-corrupting already-restored rows. *)

module Undo = Rfview_engine.Undo

let test_undo_overlapping_snapshots () =
  let state = ref [| 1; 2; 3 |] in
  let u = Undo.create () in
  let snap1 = !state in
  Undo.log u (fun () -> state := snap1);
  state := Array.append !state [| 4 |];
  let snap2 = !state in
  Undo.log u (fun () -> state := snap2) (* second snapshot, same object *);
  state := [| 0 |];
  Undo.rollback u;
  Alcotest.(check (array int)) "oldest snapshot wins" [| 1; 2; 3 |] !state;
  Alcotest.(check int) "log cleared" 0 (Undo.depth u)

let test_undo_double_fault_rollback () =
  let state = ref [| 1; 2; 3 |] in
  let u = Undo.create () in
  let snap1 = !state in
  Undo.log u (fun () -> state := snap1);
  state := [| 1; 2; 3; 4 |];
  let snap2 = !state in
  let fault = ref true in
  Undo.log u (fun () ->
      state := snap2;
      if !fault then begin
        fault := false;
        failwith "transient restore fault"
      end);
  state := [| 99 |];
  (match Undo.rollback u with
   | () -> Alcotest.fail "first rollback should have faulted"
   | exception Failure _ -> ());
  (* the interrupted log is still intact: the retry replays the absolute
     snapshots from the newest again and lands on the oldest state *)
  Undo.rollback u;
  Alcotest.(check (array int)) "retry restores the pre-statement rows"
    [| 1; 2; 3 |] !state;
  Alcotest.(check int) "log cleared after the retry" 0 (Undo.depth u)

(* Engine-level overlap: INSERT NULL makes incremental maintenance fall
   back to a full refresh inside the same statement, so the view is
   snapshotted twice (once by the maintain path, once by the refresh);
   faulting after both with [`Abort] must roll back through both
   restores to the exact pre-statement state. *)
let test_undo_overlapping_view_snapshots () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      Db.reconfigure db { (Db.config db) with Db.degradation = `Abort };
      let before = Chaos.fingerprint db in
      Fault.arm "matview.init_state" Fault.Always;
      (match Db.exec db "INSERT INTO seq VALUES (10, NULL)" with
       | _ -> Alcotest.fail "statement should have aborted"
       | exception Fault.Injected "matview.init_state" -> ());
      Fault.disarm "matview.init_state";
      Alcotest.(check string) "identical after overlapped rollback" before
        (Chaos.fingerprint db))

(* Quarantine every view at once: [stale_views] must list them in
   deterministic case-insensitive name order regardless of hashtable
   iteration order. *)
let test_stale_views_sorted () =
  with_clean_faults (fun () ->
      let db = Db.create () in
      ignore (Db.exec db "CREATE TABLE seq (pos INT, val FLOAT)");
      List.iter
        (fun name ->
          ignore
            (Db.exec db
               (Printf.sprintf
                  "CREATE MATERIALIZED VIEW %s AS SELECT pos, val, SUM(val) \
                   OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s FROM seq"
                  name)))
        [ "Beta"; "alpha"; "GAMMA"; "delta" ];
      Fault.arm "database.propagate_view" Fault.Always;
      ignore (Db.exec db "INSERT INTO seq VALUES (1, 10)");
      Fault.disarm "database.propagate_view";
      Alcotest.(check (list string)) "case-insensitive name order"
        [ "alpha"; "Beta"; "delta"; "GAMMA" ] (Db.stale_views db))

(* ---- Batched delta maintenance ----

   The group-commit path must be observationally identical to per-row
   maintenance: same final state (bit-identical fingerprint), one
   propagation per dependent view per batch instead of per statement,
   and cache entries that never serve a pre-batch answer after commit. *)

let test_batch_vs_per_row () =
  with_clean_faults (fun () ->
      let stream = gen_stream 42 in
      let per_row = db_with_view [ 1.; 2.; 3. ] in
      List.iter (fun sql -> ignore (Db.exec per_row sql)) stream;
      let batched = db_with_view [ 1.; 2.; 3. ] in
      Db.with_batch batched (fun () ->
          List.iter (fun sql -> ignore (Db.exec batched sql)) stream);
      Alcotest.(check string) "batched state bit-identical to per-row"
        (Chaos.fingerprint per_row) (Chaos.fingerprint batched))

(* Random streams, random chunking: running the stream in [with_batch]
   chunks of any size must land on exactly the per-row state. *)
let prop_batch_equivalence (seed, chunk) =
  with_clean_faults (fun () ->
      let stream = Array.of_list (gen_stream seed) in
      let n = Array.length stream in
      let per_row = db_with_view [ 1.; 2.; 3. ] in
      Array.iter (fun sql -> ignore (Db.exec per_row sql)) stream;
      let batched = db_with_view [ 1.; 2.; 3. ] in
      let i = ref 0 in
      while !i < n do
        let last = min n (!i + chunk) in
        Db.with_batch batched (fun () ->
            for j = !i to last - 1 do
              ignore (Db.exec batched stream.(j))
            done);
        i := last
      done;
      let ok = Chaos.fingerprint per_row = Chaos.fingerprint batched in
      if not ok then
        QCheck.Test.fail_reportf "batched (chunk=%d) diverged from per-row" chunk;
      ok)

let arb_batch_case =
  QCheck.make
    QCheck.Gen.(
      let* seed = int_range 0 10_000 in
      let* chunk = int_range 1 12 in
      return (seed, chunk))
    ~print:(fun (seed, chunk) -> Printf.sprintf "seed=%d chunk=%d" seed chunk)

let test_batch_propagates_once_per_view () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      ignore
        (Db.exec db
           "CREATE MATERIALIZED VIEW v2 AS SELECT pos, val, MIN(val) OVER \
            (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS m FROM seq");
      let inserts lo =
        List.iter
          (fun i ->
            ignore (Db.exec db (Printf.sprintf "INSERT INTO seq VALUES (%d, 1)" (lo + i))))
          [ 0; 1; 2; 3 ]
      in
      let base = Fault.hits "database.propagate_view" in
      inserts 10;
      Alcotest.(check int) "per-row: one propagation per view per statement"
        (base + 8) (Fault.hits "database.propagate_view");
      let base = Fault.hits "database.propagate_view" in
      Db.with_batch db (fun () -> inserts 20);
      Alcotest.(check int) "batched: one propagation per view per batch"
        (base + 2) (Fault.hits "database.propagate_view");
      check_same_bag "view fresh after the batch" (recompute db)
        (Db.query db "SELECT * FROM v"))

(* Cache entries are materialized views maintained by the same
   propagation, so a batch commit refreshes them exactly once — and a
   post-commit hit must equal uncached execution, never the pre-batch
   answer.  A mid-batch probe must already see the buffered rows (reads
   force an early flush). *)
let test_batch_cache_freshness () =
  with_clean_faults (fun () ->
      let db = db_with_view [ 1.; 2.; 3. ] in
      let cache = Cache.create ~capacity:4 db in
      let seed_sql =
        "SELECT pos, val, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING \
         AND 2 FOLLOWING) AS s FROM seq"
      in
      (match Cache.query cache seed_sql with
       | _, Cache.Miss_cached _ -> ()
       | _, o -> Alcotest.failf "seed not admitted: %s" (Cache.describe_outcome o));
      let pre_batch, _ = Cache.query cache seed_sql in
      Db.with_batch db (fun () ->
          ignore (Db.exec db "INSERT INTO seq VALUES (4, 10), (5, 20)");
          (* mid-batch: the probe must see the buffered rows *)
          let mid, _ = Cache.query cache seed_sql in
          check_same_bag "mid-batch cache answer is fresh" mid
            (Db.run_query db (Rfview_sql.Parser.query seed_sql)));
      let post, outcome = Cache.query cache seed_sql in
      (match outcome with
       | Cache.Hit _ -> ()
       | o -> Alcotest.failf "post-commit probe missed: %s" (Cache.describe_outcome o));
      check_same_bag "post-commit hit equals uncached execution" post
        (Db.run_query db (Rfview_sql.Parser.query seed_sql));
      if Relation.equal_bag post pre_batch then
        Alcotest.fail "post-commit hit served the pre-batch answer")

let test_chaos_batched_clean () =
  with_clean_faults (fun () ->
      let r = Chaos.run ~config:{ Chaos.default_config with Chaos.batch = 4 } () in
      Alcotest.(check int) "all statements attempted" r.Chaos.statements
        Chaos.default_config.Chaos.ops;
      Alcotest.(check int) "nothing failed without injection" 0 r.Chaos.failed;
      Alcotest.(check int) "nothing quarantined without injection" 0
        r.Chaos.quarantines;
      Alcotest.(check bool) "cache exercised" true (r.Chaos.cache_probes > 0))

let () =
  Alcotest.run "fault"
    [
      ( "registry",
        [
          Alcotest.test_case "always" `Quick test_policy_always;
          Alcotest.test_case "nth" `Quick test_policy_nth;
          Alcotest.test_case "probability deterministic" `Quick
            test_policy_probability_deterministic;
          Alcotest.test_case "with_suspended" `Quick test_with_suspended;
          Alcotest.test_case "arm validation" `Quick test_arm_validation;
          Alcotest.test_case "parse_spec" `Quick test_parse_spec;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "rollback at every site" `Quick test_rollback_per_site;
          Alcotest.test_case "csv load atomic" `Quick test_csv_load_atomic;
          Alcotest.test_case "ddl rollback" `Quick test_ddl_rollback;
          Alcotest.test_case "script error context" `Quick test_script_error_context;
          qtest "rollback idempotence" arb_fault_case prop_rollback_idempotent;
        ] );
      ( "undo",
        [
          Alcotest.test_case "overlapping snapshots" `Quick
            test_undo_overlapping_snapshots;
          Alcotest.test_case "double fault during rollback" `Quick
            test_undo_double_fault_rollback;
          Alcotest.test_case "overlapping view snapshots" `Quick
            test_undo_overlapping_view_snapshots;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "quarantine and lazy heal" `Quick test_quarantine_and_heal;
          Alcotest.test_case "quarantine isolates views" `Quick
            test_quarantine_isolates_views;
          Alcotest.test_case "stale_views deterministic order" `Quick
            test_stale_views_sorted;
        ] );
      ( "cache degradation",
        [
          Alcotest.test_case "derivation fault bypasses" `Quick
            test_cache_derive_fault_bypasses;
          Alcotest.test_case "admission fault bypasses" `Quick
            test_cache_admit_fault_bypasses;
          Alcotest.test_case "fifo eviction" `Quick test_cache_fifo_eviction;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "clean run, no site fires" `Quick test_chaos_clean;
          Alcotest.test_case "sweep fires every site" `Slow test_chaos_sweep_all_sites;
          Alcotest.test_case "batched clean run" `Quick test_chaos_batched_clean;
        ] );
      ( "batched maintenance",
        [
          Alcotest.test_case "batch equals per-row" `Quick test_batch_vs_per_row;
          Alcotest.test_case "one propagation per view per batch" `Quick
            test_batch_propagates_once_per_view;
          Alcotest.test_case "cache fresh across a batch commit" `Quick
            test_batch_cache_freshness;
          qtest ~count:100 "batch/per-row equivalence" arb_batch_case
            prop_batch_equivalence;
        ] );
    ]
