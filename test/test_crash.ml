(* Durability tests: the checksummed WAL, checkpoints, crash recovery
   and the crash-recovery chaos harness.

   Every test works in its own directory under the build sandbox; the
   crash model is abandoning the in-memory handle (the engine fsyncs per
   statement) plus direct file surgery for torn writes and corruption. *)

open Rfview_relalg
module Db = Rfview_engine.Database
module Catalog = Rfview_engine.Catalog
module Checkpoint = Rfview_engine.Checkpoint
module Fault = Rfview_engine.Fault
module Wal = Rfview_engine.Wal
module Chaos = Rfview_workload.Chaos

let with_clean_faults f =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset f

(* A fresh (emptied) database directory per test. *)
let fresh_dir name =
  let dir = "tdb_" ^ name in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  dir

let wal_path dir = Filename.concat dir "log.wal"

let check_same_bag what a b =
  if not (Relation.equal_bag a b) then
    Alcotest.failf "%s:@.left:@.%s@.right:@.%s" what
      (Relation.render (Relation.sorted_by_all a))
      (Relation.render (Relation.sorted_by_all b))

let setup_sql =
  [
    "CREATE TABLE seq (pos INT, val FLOAT)";
    "INSERT INTO seq VALUES (1, 10), (2, 20), (3, 30)";
    "CREATE MATERIALIZED VIEW v AS SELECT pos, val, SUM(val) OVER (ORDER BY \
     pos ROWS UNBOUNDED PRECEDING) AS s FROM seq";
    "CREATE INDEX seq_pos ON seq (pos)";
  ]

let build dir =
  let db = Db.open_durable dir in
  List.iter (fun sql -> ignore (Db.exec db sql)) setup_sql;
  db

let dump db = Db.query db "SELECT pos, val FROM seq"
let dump_view db = Db.query db "SELECT * FROM v"

(* ---- Round trips ---- *)

let test_roundtrip_wal_only () =
  let dir = fresh_dir "roundtrip" in
  let db = build dir in
  ignore (Db.exec db "UPDATE seq SET val = 21 WHERE pos = 2");
  ignore (Db.exec db "DELETE FROM seq WHERE pos = 1");
  let base = dump db and view = dump_view db in
  Db.close db;
  let db', r = Db.recover dir in
  Alcotest.(check bool) "no checkpoint yet" true (r.Db.checkpoint_epoch = None);
  Alcotest.(check bool) "records replayed" true (r.Db.replayed > 0);
  Alcotest.(check bool) "no torn tail" false r.Db.torn;
  Alcotest.(check (list string)) "nothing quarantined" [] r.Db.quarantined;
  check_same_bag "base table" base (dump db');
  check_same_bag "view contents" view (dump_view db');
  Alcotest.(check bool) "incremental state rebuilt" true
    (Db.is_incrementally_maintained db' "v");
  (* the restored index DDL must be live again *)
  Alcotest.(check bool) "index restored" true
    ((Db.catalog_view db').table_index ~table:"seq" ~column:"pos" <> None);
  Db.close db'

(* DML deltas are logged as binary rows, not SQL text: values whose
   decimal rendering is lossy must still round-trip bit-exactly. *)
let test_roundtrip_float_precision () =
  let dir = fresh_dir "floats" in
  let db = build dir in
  ignore (Db.exec db "UPDATE seq SET val = val / 3");
  ignore (Db.exec db "INSERT INTO seq VALUES (7, 0.1)");
  let base = dump db and view = dump_view db in
  Db.close db;
  let db' = Db.open_durable dir in
  check_same_bag "base table (exact floats)" base (dump db');
  check_same_bag "view contents (exact floats)" view (dump_view db');
  Db.close db'

let test_checkpoint_and_suffix () =
  let dir = fresh_dir "ckpt" in
  let db = build dir in
  Db.checkpoint db;
  (* the checkpoint starts a fresh log: the old records are gone *)
  let scan = Wal.scan (wal_path dir) in
  Alcotest.(check int) "fresh epoch" 1 scan.Wal.epoch;
  Alcotest.(check int) "empty log after checkpoint" 0
    (List.length scan.Wal.records);
  ignore (Db.exec db "INSERT INTO seq VALUES (4, 40)");
  ignore (Db.exec db "DELETE FROM seq WHERE pos = 2");
  let base = dump db and view = dump_view db in
  Db.close db;
  let db', r = Db.recover dir in
  Alcotest.(check (option int)) "checkpoint epoch" (Some 1) r.Db.checkpoint_epoch;
  Alcotest.(check int) "only the suffix replays" 2 r.Db.replayed;
  check_same_bag "base table" base (dump db');
  check_same_bag "view contents" view (dump_view db');
  Db.close db'

let test_auto_checkpoint () =
  let dir = fresh_dir "autockpt" in
  let db = build dir in
  Db.set_checkpoint_every db (Some 3);
  for i = 10 to 20 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO seq VALUES (%d, %d)" i i))
  done;
  let base = dump db in
  Db.close db;
  let db', r = Db.recover dir in
  (match r.Db.checkpoint_epoch with
   | Some e when e >= 1 -> ()
   | other ->
     Alcotest.failf "expected an automatic checkpoint, got epoch %s"
       (match other with None -> "none" | Some e -> string_of_int e));
  check_same_bag "base table" base (dump db');
  Db.close db'

(* Regression: DROP VIEW used to leave its view indexes registered, so
   the next checkpoint wrote index DDL on a missing view and the
   directory no longer recovered. *)
let test_drop_view_drops_its_indexes () =
  let dir = fresh_dir "dropview" in
  let db = Db.open_durable dir in
  ignore
    (Db.exec_script db
       "CREATE TABLE t (pos INT, val FLOAT); INSERT INTO t VALUES (1, 1.0), \
        (2, 2.0), (3, 3.0); CREATE MATERIALIZED VIEW v AS SELECT pos, \
        SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s FROM t; \
        CREATE INDEX vi ON v (pos)");
  (* a rolled-back DROP VIEW keeps the view and its index *)
  (try
     Db.with_batch db (fun () ->
         ignore (Db.exec db "DROP VIEW v");
         failwith "abort the batch")
   with Failure _ -> ());
  Alcotest.(check bool) "index survives a rolled-back drop" true
    ((Db.catalog_view db).table_index ~table:"v" ~column:"pos" <> None);
  ignore (Db.exec db "DROP VIEW v");
  Db.checkpoint db;
  Db.close db;
  let db', r = Db.recover dir in
  Alcotest.(check (option int)) "checkpoint recovered" (Some 1) r.Db.checkpoint_epoch;
  ignore
    (Db.exec db'
       "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER (ORDER BY pos \
        ROWS UNBOUNDED PRECEDING) AS s FROM t");
  ignore (Db.exec db' "CREATE INDEX vi ON v (pos)");
  Alcotest.(check bool) "re-created index is live" true
    ((Db.catalog_view db').table_index ~table:"v" ~column:"pos" <> None);
  Db.close db'

(* ---- Damage ---- *)

let test_torn_tail_truncated () =
  let dir = fresh_dir "torn" in
  let db = build dir in
  let base = dump db in
  Db.close db;
  let frame = Wal.frame (Wal.Statement "CREATE TABLE torn_marker (x INT)") in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 (wal_path dir) in
  output_string oc (String.sub frame 0 (String.length frame - 3));
  close_out oc;
  let db', r = Db.recover dir in
  Alcotest.(check bool) "torn tail detected" true r.Db.torn;
  Alcotest.(check bool) "torn record not replayed" true
    (Catalog.find_table (Db.catalog db') "torn_marker" = None);
  check_same_bag "base table" base (dump db');
  Db.close db';
  (* the tail was truncated off the file: a second recovery is clean *)
  let db'', r' = Db.recover dir in
  Alcotest.(check bool) "tail gone after truncation" false r'.Db.torn;
  check_same_bag "base table again" base (dump db'');
  Db.close db''

(* A crash between the checkpoint rename and the log reset leaves a
   stale WAL (older epoch) next to the new checkpoint; its records are
   already inside the snapshot and must not be replayed again. *)
let test_stale_wal_ignored () =
  let dir = fresh_dir "stale" in
  let db = build dir in
  Db.checkpoint db;
  let base = dump db in
  Db.close db;
  (* forge the pre-checkpoint log: epoch 0 with a poison record *)
  let w = Wal.create (wal_path dir) ~epoch:0 in
  Wal.append w (Wal.Statement "DELETE FROM seq");
  Wal.sync w;
  Wal.close w;
  let db', r = Db.recover dir in
  Alcotest.(check int) "stale log not replayed" 0 r.Db.replayed;
  check_same_bag "base table" base (dump db');
  (* recovery installed a fresh log at the checkpoint's epoch *)
  Alcotest.(check int) "log epoch realigned" 1 (Wal.scan (wal_path dir)).Wal.epoch;
  Db.close db'

let test_wal_ahead_of_checkpoint_fails () =
  let dir = fresh_dir "ahead" in
  let db = build dir in
  Db.checkpoint db;
  Db.close db;
  let w = Wal.create (wal_path dir) ~epoch:9 in
  Wal.close w;
  (match Db.recover dir with
   | _ -> Alcotest.fail "a WAL ahead of the checkpoint must not recover"
   | exception Db.Recovery_error _ -> ())

let test_corrupt_view_state_quarantines () =
  let dir = fresh_dir "corrupt" in
  let db = build dir in
  Db.checkpoint db;
  let base = dump db and view = dump_view db in
  Db.close db;
  Alcotest.(check bool) "state record damaged" true
    (Checkpoint.corrupt_state ~dir ~view:"v");
  let db', r = Db.recover dir in
  Alcotest.(check (list string)) "view quarantined, recovery succeeded" [ "v" ]
    r.Db.quarantined;
  Alcotest.(check bool) "restored stale" true (Db.is_stale db' "v");
  check_same_bag "base table undamaged" base (dump db');
  (* the first read heals the quarantined view by full refresh *)
  check_same_bag "healed contents" view (dump_view db');
  Alcotest.(check bool) "healed" false (Db.is_stale db' "v");
  Db.close db'

let test_corrupt_checkpoint_structure_fails () =
  let dir = fresh_dir "structural" in
  let db = build dir in
  Db.checkpoint db;
  Db.close db;
  (* flip a byte in the first record (the header): structural damage *)
  let path = Checkpoint.file ~dir in
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string data in
  Bytes.set b 9 (Char.chr (Char.code (Bytes.get b 9) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  (match Db.recover dir with
   | _ -> Alcotest.fail "structural checkpoint damage must not recover"
   | exception Db.Recovery_error _ -> ())

(* ---- Fault sites ---- *)

let test_wal_fsync_fault_rolls_back () =
  with_clean_faults (fun () ->
      let dir = fresh_dir "fsync" in
      let db = build dir in
      let base = dump db in
      Fault.arm "wal.fsync" Fault.Always;
      (match Db.exec db "INSERT INTO seq VALUES (9, 90)" with
       | _ -> Alcotest.fail "statement must not commit when fsync fails"
       | exception Fault.Injected "wal.fsync" -> ());
      Fault.disarm "wal.fsync";
      check_same_bag "rolled back in memory" base (dump db);
      Db.close db;
      (* ... and the record is off the disk too *)
      let db' = Db.open_durable dir in
      check_same_bag "not on disk either" base (dump db');
      Db.close db')

let test_checkpoint_fault_keeps_previous () =
  with_clean_faults (fun () ->
      let dir = fresh_dir "ckptfault" in
      let db = build dir in
      Db.checkpoint db;
      ignore (Db.exec db "INSERT INTO seq VALUES (5, 50)");
      let base = dump db in
      Fault.arm "checkpoint.write" (Fault.Nth 3);
      (match Db.checkpoint db with
       | _ -> Alcotest.fail "checkpoint must fail at the armed site"
       | exception Fault.Injected "checkpoint.write" -> ());
      Fault.disarm "checkpoint.write";
      Db.close db;
      (* previous checkpoint + longer WAL still recover everything *)
      let db', r = Db.recover dir in
      Alcotest.(check (option int)) "previous checkpoint intact" (Some 1)
        r.Db.checkpoint_epoch;
      check_same_bag "base table" base (dump db');
      Db.close db')

let test_replay_fault_then_retry () =
  with_clean_faults (fun () ->
      let dir = fresh_dir "replayfault" in
      let db = build dir in
      let base = dump db in
      Db.close db;
      Fault.arm "recover.replay" (Fault.Nth 1);
      (match Db.recover dir with
       | _ -> Alcotest.fail "recovery must fail at the armed replay site"
       | exception Db.Recovery_error _ -> ());
      Fault.disarm "recover.replay";
      (* a failed recovery leaves no writer behind: retry cleanly *)
      let db', r = Db.recover dir in
      Alcotest.(check bool) "retry replays everything" true (r.Db.replayed > 0);
      check_same_bag "base table" base (dump db');
      Db.close db')

(* ---- Batched durability ----

   A batch is atomic on disk: one framed [Wal.Batch] record, one fsync.
   A crash therefore recovers either the pre-batch state (open batch
   abandoned, or the group commit itself faulted) or the post-batch
   state (record on disk) — never a prefix of the batch. *)

let test_crash_mid_batch_rolls_back () =
  with_clean_faults (fun () ->
      let dir = fresh_dir "midbatch" in
      let db = build dir in
      let pre = Chaos.fingerprint db in
      (* the process dies mid-batch: nothing of the batch may survive *)
      (match
         Db.with_batch db (fun () ->
             ignore (Db.exec db "INSERT INTO seq VALUES (8, 80)");
             ignore (Db.exec db "DELETE FROM seq WHERE pos = 1");
             raise Exit)
       with
       | () -> Alcotest.fail "the batch must not complete"
       | exception Exit -> ());
      Alcotest.(check string) "in memory: exactly the pre-batch state" pre
        (Chaos.fingerprint db);
      Db.close db;
      let db', _ = Db.recover dir in
      Alcotest.(check string) "recovered: exactly the pre-batch state" pre
        (Chaos.fingerprint db');
      Db.close db')

let test_batch_group_commit_replay () =
  with_clean_faults (fun () ->
      let dir = fresh_dir "groupcommit" in
      let db = build dir in
      Db.checkpoint db (* fresh log: [replayed] counts only the batch *);
      Db.with_batch db (fun () ->
          ignore (Db.exec db "INSERT INTO seq VALUES (8, 80)");
          ignore (Db.exec db "INSERT INTO seq VALUES (9, 90)");
          ignore (Db.exec db "DELETE FROM seq WHERE pos = 1");
          (* a checkpoint would truncate the log under the open batch *)
          match Db.checkpoint db with
          | () -> Alcotest.fail "checkpoint inside a batch must be rejected"
          | exception Db.Engine_error _ -> ());
      let post = Chaos.fingerprint db in
      Db.close db;
      let db', r = Db.recover dir in
      Alcotest.(check int) "three statements replay as one batch record" 1
        r.Db.replayed;
      Alcotest.(check string) "recovered: exactly the post-batch state" post
        (Chaos.fingerprint db');
      Db.close db')

let test_batch_commit_fault_no_prefix () =
  with_clean_faults (fun () ->
      let dir = fresh_dir "batchwal" in
      let db = build dir in
      let pre = Chaos.fingerprint db in
      (* statements inside the batch only buffer their WAL records, so an
         armed WAL site fires at the group commit — and must take the
         whole batch down with it *)
      List.iter
        (fun site ->
          Fault.arm site Fault.Always;
          (match
             Db.with_batch db (fun () ->
                 ignore (Db.exec db "INSERT INTO seq VALUES (8, 80)");
                 ignore (Db.exec db "UPDATE seq SET val = 11 WHERE pos = 1"))
           with
           | () -> Alcotest.failf "the batch must not commit with %s armed" site
           | exception Fault.Injected _ -> ());
          Fault.disarm site;
          Alcotest.(check string) (site ^ ": whole batch rolled back") pre
            (Chaos.fingerprint db))
        [ "wal.append"; "wal.fsync" ];
      Db.close db;
      let db' = Db.open_durable dir in
      Alcotest.(check string) "no batch left anything on disk" pre
        (Chaos.fingerprint db');
      Db.close db')

let test_crash_chaos_batched () =
  with_clean_faults (fun () ->
      let r =
        Chaos.run_crash
          ~config:
            { Chaos.default_crash_config with Chaos.cc_seed = 13; Chaos.cc_batch = 5 }
          ~dir:(fresh_dir "chaosbatched") ()
      in
      Alcotest.(check bool) "statements exercised" true (r.Chaos.cr_statements > 0);
      Alcotest.(check bool) "crash/recovery cycles" true (r.Chaos.cr_crashes > 0);
      Alcotest.(check bool) "records replayed" true (r.Chaos.cr_replayed > 0))

(* ---- The crash-recovery chaos matrix ----

   A few seeds of the randomized crash stream; aggregated across the
   matrix, every crash variant and every durability fault site must have
   been exercised inside consistent runs.  This is also where the four
   durability sites earn the "fired at least once" bar that
   test_fault.ml's sweep applies to the engine sites. *)

let test_crash_chaos_matrix () =
  with_clean_faults (fun () ->
      let seeds = [ 7; 21; 42 ] in
      let total =
        List.fold_left
          (fun acc seed ->
            let r =
              Chaos.run_crash
                ~config:{ Chaos.default_crash_config with Chaos.cc_seed = seed }
                ~dir:(fresh_dir (Printf.sprintf "chaos%d" seed))
                ()
            in
            {
              Chaos.cr_statements = acc.Chaos.cr_statements + r.Chaos.cr_statements;
              cr_crashes = acc.Chaos.cr_crashes + r.Chaos.cr_crashes;
              cr_torn = acc.Chaos.cr_torn + r.Chaos.cr_torn;
              cr_wal_faults = acc.Chaos.cr_wal_faults + r.Chaos.cr_wal_faults;
              cr_checkpoints = acc.Chaos.cr_checkpoints + r.Chaos.cr_checkpoints;
              cr_checkpoint_faults =
                acc.Chaos.cr_checkpoint_faults + r.Chaos.cr_checkpoint_faults;
              cr_recover_faults =
                acc.Chaos.cr_recover_faults + r.Chaos.cr_recover_faults;
              cr_replayed = acc.Chaos.cr_replayed + r.Chaos.cr_replayed;
              cr_quarantined = acc.Chaos.cr_quarantined + r.Chaos.cr_quarantined;
              cr_heals = acc.Chaos.cr_heals + r.Chaos.cr_heals;
            })
          {
            Chaos.cr_statements = 0;
            cr_crashes = 0;
            cr_torn = 0;
            cr_wal_faults = 0;
            cr_checkpoints = 0;
            cr_checkpoint_faults = 0;
            cr_recover_faults = 0;
            cr_replayed = 0;
            cr_quarantined = 0;
            cr_heals = 0;
          }
          seeds
      in
      let positive what n = Alcotest.(check bool) (what ^ " exercised") true (n > 0) in
      positive "statements" total.Chaos.cr_statements;
      positive "crash/recovery cycles" total.Chaos.cr_crashes;
      positive "torn tails" total.Chaos.cr_torn;
      positive "WAL-site rejections" total.Chaos.cr_wal_faults;
      positive "checkpoints" total.Chaos.cr_checkpoints;
      positive "checkpoint faults" total.Chaos.cr_checkpoint_faults;
      positive "replayed records" total.Chaos.cr_replayed;
      List.iter
        (fun site -> positive ("site " ^ site) (Fault.fired site))
        [ "wal.append"; "wal.fsync"; "checkpoint.write"; "recover.replay" ])

let () =
  Alcotest.run "crash"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "WAL-only recovery" `Quick test_roundtrip_wal_only;
          Alcotest.test_case "float precision" `Quick test_roundtrip_float_precision;
          Alcotest.test_case "checkpoint + suffix" `Quick test_checkpoint_and_suffix;
          Alcotest.test_case "auto checkpoint" `Quick test_auto_checkpoint;
          Alcotest.test_case "DROP VIEW drops its indexes" `Quick
            test_drop_view_drops_its_indexes;
        ] );
      ( "damage",
        [
          Alcotest.test_case "torn tail truncated" `Quick test_torn_tail_truncated;
          Alcotest.test_case "stale WAL ignored" `Quick test_stale_wal_ignored;
          Alcotest.test_case "WAL ahead fails" `Quick test_wal_ahead_of_checkpoint_fails;
          Alcotest.test_case "corrupt view state quarantines" `Quick
            test_corrupt_view_state_quarantines;
          Alcotest.test_case "structural corruption fails" `Quick
            test_corrupt_checkpoint_structure_fails;
        ] );
      ( "fault sites",
        [
          Alcotest.test_case "wal.fsync rolls back" `Quick
            test_wal_fsync_fault_rolls_back;
          Alcotest.test_case "checkpoint.write keeps previous" `Quick
            test_checkpoint_fault_keeps_previous;
          Alcotest.test_case "recover.replay then retry" `Quick
            test_replay_fault_then_retry;
        ] );
      ( "batched durability",
        [
          Alcotest.test_case "crash mid-batch rolls back" `Quick
            test_crash_mid_batch_rolls_back;
          Alcotest.test_case "group commit replays as one record" `Quick
            test_batch_group_commit_replay;
          Alcotest.test_case "commit fault leaves no prefix" `Quick
            test_batch_commit_fault_no_prefix;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "crash matrix" `Slow test_crash_chaos_matrix;
          Alcotest.test_case "batched crash stream" `Slow test_crash_chaos_batched;
        ] );
    ]
