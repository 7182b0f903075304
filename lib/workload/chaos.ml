(* The chaos harness: randomized DML streams against a shadow oracle,
   with faults injected at the engine's registered sites.

   The stream runs INSERT/UPDATE/DELETE/CSV-load/REFRESH statements over
   a (grp, pos, val) sequence table carrying three materialized sequence
   views (cumulative SUM per group, sliding AVG, sliding MIN) and a
   derivation cache.  A *shadow oracle* — a plain row list to which each
   statement's effect is applied only when the engine reports success —
   tracks what the base table must contain.

   After every statement the harness checks, with injection suspended:
   1. the base table equals the oracle (a failed statement must have
      rolled back completely, a successful one applied completely);
   2. every non-stale materialized view equals full recomputation of its
      definition;
   3. reading a stale (quarantined) view heals it: the lazy refresh
      yields exactly the recomputed contents;
   4. periodically, a cache answer equals uncached execution.

   Any violation raises [Divergence].  Nothing here depends on the test
   framework, so the harness also serves examples and the CLI. *)

open Rfview_relalg
module Db = Rfview_engine.Database
module Catalog = Rfview_engine.Catalog
module Cache = Rfview_engine.Cache
module Csv = Rfview_engine.Csv
module Fault = Rfview_engine.Fault
module Parser = Rfview_sql.Parser

exception Divergence of string

let divergence fmt = Format.kasprintf (fun s -> raise (Divergence s)) fmt

type config = {
  seed : int;
  ops : int;               (* length of the DML stream *)
  cache_every : int;       (* probe the cache every Nth statement *)
  batch : int;             (* > 1: group-commit chunks of this many
                              statements; checks at chunk boundaries *)
}

let default_config = { seed = 11; ops = 60; cache_every = 5; batch = 0 }

type report = {
  statements : int;        (* statements attempted *)
  failed : int;            (* statements that raised (and rolled back) *)
  quarantines : int;       (* views observed stale after a statement *)
  heals : int;             (* stale views healed by a read *)
  cache_probes : int;
  cache_hits : int;
  checks : int;            (* invariant checkpoints passed *)
}

(* ---- Schema and views ---- *)

let setup_sql =
  [
    "CREATE TABLE seq (grp INT, pos INT, val FLOAT)";
    "CREATE MATERIALIZED VIEW v_cum AS SELECT grp, pos, val, SUM(val) OVER \
     (PARTITION BY grp ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s FROM seq";
    "CREATE MATERIALIZED VIEW v_avg AS SELECT pos, val, AVG(val) OVER \
     (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS a FROM seq";
    "CREATE MATERIALIZED VIEW v_min AS SELECT pos, val, MIN(val) OVER \
     (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS m FROM seq";
    (* derived-delta views (DESIGN.md §14): a static dimension table, a
       join view and a GROUP BY view, so generalized IVM runs under the
       same fault sites, sanitizer checks and crash harness as the
       sequence machinery *)
    "CREATE TABLE dim (grp INT, tag VARCHAR)";
    "INSERT INTO dim VALUES (1, 'low'), (2, 'mid'), (3, 'high')";
    "CREATE MATERIALIZED VIEW v_tag AS SELECT s.grp AS grp, s.pos AS pos, \
     s.val AS val, d.tag AS tag FROM seq s JOIN dim d ON s.grp = d.grp";
    "CREATE MATERIALIZED VIEW v_tot AS SELECT grp, SUM(val) AS total, \
     COUNT(*) AS n FROM seq GROUP BY grp";
  ]

(* the query whose cache entry the probes derive from, and two probes
   derivable from it (same frame; contained frame) *)
let cache_seed_query =
  "SELECT pos, val, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 \
   FOLLOWING) AS s FROM seq"

let cache_probe_queries =
  [
    cache_seed_query;
    "SELECT pos, val, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 \
     FOLLOWING) AS s FROM seq";
  ]

(* ---- The DML stream ---- *)

type op =
  | Insert of { grp : int; pos : int; value : float }
  | Insert_null of { grp : int; pos : int }  (* exercises the full-refresh fallback *)
  | Update of { pos : int; value : float }
  | Delete of { pos : int }
  | Load_csv of (int * int * float) list
  | Refresh of string

(* Integer-valued floats only: their SQL and CSV text round-trips
   exactly, keeping oracle and engine bit-identical. *)
let gen_value prng = float_of_int (Prng.int_range prng ~lo:(-50) ~hi:50)
let gen_pos prng = Prng.int_range prng ~lo:1 ~hi:20
let gen_grp prng = Prng.int_range prng ~lo:1 ~hi:3

let gen_op prng : op =
  match Prng.int prng 20 with
  | 0 | 1 | 2 | 3 | 4 | 5 | 6 ->
    Insert { grp = gen_grp prng; pos = gen_pos prng; value = gen_value prng }
  | 7 | 8 | 9 | 10 -> Update { pos = gen_pos prng; value = gen_value prng }
  | 11 | 12 | 13 -> Delete { pos = gen_pos prng }
  | 14 | 15 ->
    let n = Prng.int_range prng ~lo:1 ~hi:4 in
    Load_csv
      (List.init n (fun _ -> (gen_grp prng, gen_pos prng, gen_value prng)))
  | 16 -> Insert_null { grp = gen_grp prng; pos = gen_pos prng }
  | _ -> Refresh (Prng.choose prng [ "v_cum"; "v_avg"; "v_min"; "v_tag"; "v_tot" ])

let sql_of_op = function
  | Insert { grp; pos; value } ->
    Printf.sprintf "INSERT INTO seq VALUES (%d, %d, %g)" grp pos value
  | Insert_null { grp; pos } ->
    Printf.sprintf "INSERT INTO seq VALUES (%d, %d, NULL)" grp pos
  | Update { pos; value } ->
    Printf.sprintf "UPDATE seq SET val = %g WHERE pos = %d" value pos
  | Delete { pos } -> Printf.sprintf "DELETE FROM seq WHERE pos = %d" pos
  | Load_csv _ -> "(csv load)"
  | Refresh name -> Printf.sprintf "REFRESH MATERIALIZED VIEW %s" name

(* ---- The shadow oracle ----

   Plain rows in engine insertion order; every constructor mirrors the
   engine's statement semantics exactly. *)

let row grp pos value : Row.t = [| Value.Int grp; Value.Int pos; value |]

let apply_oracle (rows : Row.t list) (op : op) : Row.t list =
  match op with
  | Insert { grp; pos; value } -> rows @ [ row grp pos (Value.Float value) ]
  | Insert_null { grp; pos } -> rows @ [ row grp pos Value.Null ]
  | Update { pos; value } ->
    List.map
      (fun r ->
        if Value.equal (Row.get r 1) (Value.Int pos) then
          [| Row.get r 0; Row.get r 1; Value.Float value |]
        else r)
      rows
  | Delete { pos } ->
    List.filter (fun r -> not (Value.equal (Row.get r 1) (Value.Int pos))) rows
  | Load_csv batch ->
    rows @ List.map (fun (g, p, v) -> row g p (Value.Float v)) batch
  | Refresh _ -> rows

let csv_of_batch batch =
  "grp,pos,val\n"
  ^ String.concat ""
      (List.map (fun (g, p, v) -> Printf.sprintf "%d,%d,%g\n" g p v) batch)

(* ---- Invariant checks ---- *)

let schema_seq =
  Schema.make
    [
      Schema.column "grp" Dtype.Int;
      Schema.column "pos" Dtype.Int;
      Schema.column "val" Dtype.Float;
    ]

let check_base db (oracle : Row.t list) ~context =
  let actual = Db.query db "SELECT grp, pos, val FROM seq" in
  let expected = Relation.of_array schema_seq (Array.of_list oracle) in
  if not (Relation.equal_bag actual expected) then
    divergence "%s: base table diverged from the shadow oracle\nengine:\n%s\noracle:\n%s"
      context
      (Relation.render (Relation.sorted_by_all actual))
      (Relation.render (Relation.sorted_by_all expected))

let check_views db ~context =
  List.iter
    (fun (v : Catalog.view) ->
      if v.Catalog.materialized && not v.Catalog.stale then
        match Option.map Catalog.relation v.Catalog.contents with
        | None -> divergence "%s: view %s has no contents" context v.Catalog.view_name
        | Some contents ->
          let recomputed = Db.run_query db v.Catalog.definition in
          if not (Relation.equal_bag contents recomputed) then
            divergence
              "%s: non-stale view %s diverged from full recomputation\nstored:\n%s\nrecomputed:\n%s"
              context v.Catalog.view_name
              (Relation.render (Relation.sorted_by_all contents))
              (Relation.render (Relation.sorted_by_all recomputed)))
    (Catalog.all_views (Db.catalog db))

(* Read every stale view, which must heal it (lazy full refresh), and
   compare the healed contents with recomputation.  Returns the number
   of views healed. *)
let heal_stale db ~context =
  let stale = Db.stale_views db in
  List.iter
    (fun name ->
      let read = Db.query db (Printf.sprintf "SELECT * FROM %s" name) in
      if Db.is_stale db name then
        divergence "%s: reading stale view %s did not heal it" context name;
      let v = Catalog.view (Db.catalog db) name in
      let recomputed = Db.run_query db v.Catalog.definition in
      if not (Relation.equal_bag read recomputed) then
        divergence "%s: healed view %s diverged from full recomputation" context name)
    stale;
  List.length stale

(* ---- The harness ---- *)

let run ?(config = default_config) ?inject ?(sanitize = false) () : report =
  (* the differential sanitizer hooks into the writer's read path, so enabling it
     here covers every query the harness runs: cache probes, view
     recomputation checks and heal reads *)
  let sanitize_was = Rfview_analysis.Sanitize.enabled () in
  if sanitize then Rfview_analysis.Sanitize.enable ();
  Fun.protect
    ~finally:(fun () ->
      if sanitize && not sanitize_was then Rfview_analysis.Sanitize.disable ())
  @@ fun () ->
  let db = Db.create () in
  let cache = Cache.create ~capacity:4 db in
  List.iter (fun sql -> ignore (Db.exec db sql)) setup_sql;
  (* seed the cache so probes can hit by derivation *)
  ignore (Cache.query cache cache_seed_query);
  let prng = Prng.create ~seed:config.seed in
  let oracle = ref [] in
  let report =
    ref
      {
        statements = 0;
        failed = 0;
        quarantines = 0;
        heals = 0;
        cache_probes = 0;
        cache_hits = 0;
        checks = 0;
      }
  in
  (match inject with
   | Some (site, policy) -> Fault.arm site policy
   | None -> ());
  Fun.protect
    ~finally:(fun () -> Fault.disarm_all ())
    (fun () ->
      let last_sql = ref "(none)" in
      let exec_op () =
        let op = gen_op prng in
        last_sql := sql_of_op op;
        let applied =
          match op with
          | Load_csv batch ->
            (match Csv.import_string db ~table:"seq" (csv_of_batch batch) with
             | _ -> true
             | exception _ -> false)
          | op ->
            (match Db.exec db (sql_of_op op) with
             | _ -> true
             | exception _ -> false)
        in
        if applied then oracle := apply_oracle !oracle op
        else report := { !report with failed = !report.failed + 1 };
        report := { !report with statements = !report.statements + 1 }
      in
      (* [batch <= 1]: one statement per chunk, checks after each —
         the original per-statement stream.  [batch > 1]: chunks run
         inside [with_batch] (group commit, one propagation per view)
         and the invariants are only checkable at commit boundaries. *)
      let i = ref 1 in
      while !i <= config.ops do
        let chunk =
          if config.batch <= 1 then 1
          else min config.batch (config.ops - !i + 1)
        in
        let first = !i and last = !i + chunk - 1 in
        let oracle0 = !oracle in
        (match
           if chunk = 1 then exec_op ()
           else Db.with_batch db (fun () -> for _ = first to last do exec_op () done)
         with
         | () -> ()
         | exception _ ->
           (* a commit-time failure rolls the whole batch back; the
              oracle must forget the chunk with it *)
           oracle := oracle0;
           report := { !report with failed = !report.failed + 1 });
        let context =
          if chunk = 1 then Printf.sprintf "op %d (%s)" first !last_sql
          else Printf.sprintf "ops %d-%d (batch; last: %s)" first last !last_sql
        in
        (* all consistency checks run with injection suspended: they must
           observe the state the fault left behind, not re-trigger it *)
        Fault.with_suspended (fun () ->
            let stale_now = List.length (Db.stale_views db) in
            report := { !report with quarantines = !report.quarantines + stale_now };
            check_base db !oracle ~context;
            check_views db ~context;
            let healed = heal_stale db ~context in
            report := { !report with heals = !report.heals + healed; checks = !report.checks + 1 });
        (* cache probe: runs with faults live (the cache must degrade,
           never corrupt); the reference runs suspended.  A batched chunk
           probes when it crossed a probe point — after its commit, so a
           hit must never serve a pre-batch answer. *)
        if last / config.cache_every > (first - 1) / config.cache_every then begin
          List.iter
            (fun sql ->
              let result, outcome = Cache.query cache sql in
              let reference =
                Fault.with_suspended (fun () -> Db.run_query db (Parser.query sql))
              in
              if not (Relation.equal_bag result reference) then
                divergence "op %d: cache answer diverged from uncached execution (%s)"
                  last
                  (Cache.describe_outcome outcome);
              report :=
                {
                  !report with
                  cache_probes = !report.cache_probes + 1;
                  cache_hits =
                    (!report.cache_hits
                    + match outcome with Cache.Hit _ -> 1 | _ -> 0);
                })
            cache_probe_queries
        end;
        i := last + 1
      done;
      !report)

(* ---- Crash-recovery chaos ----

   The same randomized stream and shadow oracle, but over a *durable*
   database directory, with simulated crashes: the process never dies,
   the in-memory database object is simply abandoned (per-statement
   fsync makes that an accurate kill model) and the directory reopened
   through recovery.  Crash variants also tear the WAL tail mid-record,
   arm the wal/checkpoint/recovery fault sites, and crash between
   checkpoints — after every recovery the database must equal the oracle
   at the last committed statement. *)

type crash_config = {
  cc_seed : int;
  cc_ops : int;              (* statements across the whole run *)
  cc_crash_every : int;      (* crash once per this many statements *)
  cc_checkpoint_every : int; (* checkpoint period in statements; 0 = never *)
  cc_batch : int;            (* > 1: group-commit chunks of this size *)
}

let default_crash_config =
  { cc_seed = 7; cc_ops = 80; cc_crash_every = 7; cc_checkpoint_every = 11;
    cc_batch = 0 }

type crash_report = {
  cr_statements : int;
  cr_crashes : int;           (* crash + recovery cycles *)
  cr_torn : int;              (* recoveries that truncated a torn tail *)
  cr_wal_faults : int;        (* statements rejected by armed wal sites *)
  cr_checkpoints : int;       (* successful checkpoints *)
  cr_checkpoint_faults : int; (* checkpoint attempts killed by the site *)
  cr_recover_faults : int;    (* first recovery attempts killed mid-replay *)
  cr_replayed : int;          (* WAL records replayed across recoveries *)
  cr_quarantined : int;       (* views restored in quarantine *)
  cr_heals : int;
}

(* Remove a previous run's files so the directory starts empty (the
   engine creates the directory itself if missing). *)
let fresh_dir dir =
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if not (Sys.is_directory p) then Sys.remove p)
      (Sys.readdir dir)

let run_crash ?(config = default_crash_config) ~dir () : crash_report =
  let module Wal = Rfview_engine.Wal in
  fresh_dir dir;
  let db = ref (Db.open_durable dir) in
  List.iter (fun sql -> ignore (Db.exec !db sql)) setup_sql;
  let prng = Prng.create ~seed:config.cc_seed in
  let oracle = ref [] in
  let report =
    ref
      {
        cr_statements = 0;
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
  in
  let check ~context =
    Fault.with_suspended (fun () ->
        check_base !db !oracle ~context;
        check_views !db ~context;
        let healed = heal_stale !db ~context in
        report := { !report with cr_heals = !report.cr_heals + healed })
  in
  (* Reopen [dir] and fold the recovery report into the counters; the
     recovered database must match the oracle at the last commit. *)
  let recover ~context =
    let db', (r : Db.recovery_report) = Db.recover dir in
    db := db';
    report :=
      {
        !report with
        cr_crashes = !report.cr_crashes + 1;
        cr_torn = (!report.cr_torn + if r.Db.torn then 1 else 0);
        cr_replayed = !report.cr_replayed + r.Db.replayed;
        cr_quarantined = !report.cr_quarantined + List.length r.Db.quarantined;
      };
    check ~context;
    r
  in
  let crash variant i =
    let context = Printf.sprintf "crash after op %d (variant %d)" i variant in
    match variant with
    | 0 ->
      (* clean kill: abandon the handle, recover from disk *)
      Db.close !db;
      ignore (recover ~context)
    | 1 ->
      (* torn write: a strict prefix of a valid frame lands on the log
         tail — recovery must truncate it, not replay it *)
      Db.close !db;
      let frame = Wal.frame (Wal.Statement "CREATE TABLE torn_marker (x INT)") in
      let cut = 1 + Prng.int prng (String.length frame - 1) in
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644 (Filename.concat dir "log.wal")
      in
      output_string oc (String.sub frame 0 cut);
      close_out oc;
      let r = recover ~context in
      if not r.Db.torn then
        divergence "%s: recovery did not report the torn tail" context;
      if Catalog.find_table (Db.catalog !db) "torn_marker" <> None then
        divergence "%s: recovery replayed a torn record" context
    | 2 ->
      (* durability failure: an armed WAL site must reject the statement
         (rolled back, not on disk) — the oracle is not updated *)
      let site = Prng.choose prng [ "wal.append"; "wal.fsync" ] in
      Fault.arm site Fault.Always;
      (match Db.exec !db "INSERT INTO seq VALUES (1, 99, 5)" with
       | _ -> divergence "%s: statement committed with %s armed" context site
       | exception _ ->
         report := { !report with cr_wal_faults = !report.cr_wal_faults + 1 });
      Fault.disarm site;
      check ~context;
      Db.close !db;
      ignore (recover ~context)
    | 3 ->
      (* checkpoint crash: the write faults partway, the temp file is
         discarded — the previous checkpoint plus the longer WAL must
         still recover the oracle state *)
      let nth = 1 + Prng.int prng 6 in
      Fault.arm "checkpoint.write" (Fault.Nth nth);
      (match Db.checkpoint !db with
       | () -> report := { !report with cr_checkpoints = !report.cr_checkpoints + 1 }
       | exception _ ->
         report :=
           { !report with cr_checkpoint_faults = !report.cr_checkpoint_faults + 1 });
      Fault.disarm "checkpoint.write";
      Db.close !db;
      ignore (recover ~context)
    | _ ->
      (* recovery-time fault: replay dies mid-WAL on the first attempt;
         a retry with the site disarmed must succeed cleanly *)
      Db.close !db;
      Fault.arm "recover.replay" (Fault.Nth 1);
      (match Db.recover dir with
       | db', _ ->
         (* an empty WAL suffix replays nothing, so the site never fires *)
         Fault.disarm "recover.replay";
         db := db';
         report := { !report with cr_crashes = !report.cr_crashes + 1 };
         check ~context
       | exception Db.Recovery_error _ ->
         Fault.disarm "recover.replay";
         report := { !report with cr_recover_faults = !report.cr_recover_faults + 1 };
         ignore (recover ~context))
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm_all ();
      Db.close !db)
    (fun () ->
      let last_sql = ref "(none)" in
      let exec_op () =
        let op = gen_op prng in
        last_sql := sql_of_op op;
        let applied =
          match op with
          | Load_csv batch ->
            (match Csv.import_string !db ~table:"seq" (csv_of_batch batch) with
             | _ -> true
             | exception _ -> false)
          | op ->
            (match Db.exec !db (sql_of_op op) with
             | _ -> true
             | exception _ -> false)
        in
        if applied then oracle := apply_oracle !oracle op;
        report := { !report with cr_statements = !report.cr_statements + 1 }
      in
      (* crossed p = "a period-[p] boundary lies inside this chunk";
         at chunk size 1 this is exactly [i mod p = 0].  Checkpoints and
         crashes only happen at chunk boundaries, so a crash never finds
         an open batch: the directory holds either the whole chunk (one
         WAL batch record) or none of it. *)
      let i = ref 1 in
      while !i <= config.cc_ops do
        let chunk =
          if config.cc_batch <= 1 then 1
          else min config.cc_batch (config.cc_ops - !i + 1)
        in
        let first = !i and last = !i + chunk - 1 in
        let crossed p = p > 0 && last / p > (first - 1) / p in
        let oracle0 = !oracle in
        (match
           if chunk = 1 then exec_op ()
           else Db.with_batch !db (fun () -> for _ = first to last do exec_op () done)
         with
         | () -> ()
         | exception _ -> oracle := oracle0);
        let context =
          if chunk = 1 then Printf.sprintf "op %d (%s)" first !last_sql
          else Printf.sprintf "ops %d-%d (batch; last: %s)" first last !last_sql
        in
        check ~context;
        if crossed config.cc_checkpoint_every then begin
          Db.checkpoint !db;
          report := { !report with cr_checkpoints = !report.cr_checkpoints + 1 }
        end;
        if crossed config.cc_crash_every then crash (Prng.int prng 5) last;
        i := last + 1
      done;
      (* final kill + recovery: the directory alone must reproduce the
         oracle *)
      Db.close !db;
      ignore (recover ~context:"final recovery");
      !report)

(* ---- Replication chaos ----

   The same randomized stream over a durable primary, shipped through
   per-replica feeds (Rfview_replica) while the harness records the
   oracle's row list *at every commit boundary*, keyed by the primary's
   LSN.  Every read served by any replica is tagged with an LSN; the
   harness asserts it equals the oracle's state at exactly that LSN — a
   replica may be stale, it may never be wrong.

   Chaos events between statements: kill a replica (rebuilt from the
   feed alone: checkpoint artifact + record suffix), corrupt an
   unconsumed feed entry (the replica must quarantine, then heal via
   [Ship.resync]), lag a replica (its bounded reads must refuse with
   [Stale]), arm [replica.apply] (the interrupted poll must resume
   exactly), arm [ship.append] (the half-shipped entry must come back
   off the feed), and crash + recover the primary (LSNs must carry
   across recovery, the shipper reattaching every feed).

   The run ends with failover: the primary dies with an unshipped tail,
   the freshest replica is promoted, and the promoted directory must
   hold the oracle state at the promoted LSN — losing at most the tail
   that was never pumped. *)

module Replica = Rfview_replica.Replica
module Ship = Rfview_replica.Ship
module Feed = Rfview_replica.Feed

type replica_config = {
  rp_seed : int;
  rp_ops : int;               (* statements across the whole run *)
  rp_replicas : int;          (* feeds fanned out *)
  rp_pump_every : int;        (* ship once per this many statements *)
  rp_read_every : int;        (* replica read once per this many *)
  rp_event_every : int;       (* chaos event once per this many *)
  rp_checkpoint_bytes : int;  (* primary log-compaction threshold; 0 = off *)
  rp_batch : int;             (* > 1: group-commit chunks of this size *)
  rp_max_lag : int;           (* staleness bound for bounded reads *)
}

let default_replica_config =
  {
    rp_seed = 23;
    rp_ops = 60;
    rp_replicas = 3;
    rp_pump_every = 2;
    rp_read_every = 3;
    rp_event_every = 9;
    rp_checkpoint_bytes = 16 * 1024;
    rp_batch = 0;
    rp_max_lag = 4;
  }

type replica_report = {
  rp_statements : int;
  rp_pumps : int;
  rp_deliveries : int;        (* (record, feed) deliveries shipped *)
  rp_reads : int;             (* replica reads served and verified *)
  rp_stale_reads : int;       (* reads refused by the staleness bound *)
  rp_kills : int;             (* replica kill + feed-rebootstrap cycles *)
  rp_corruptions : int;       (* feed entries corrupted *)
  rp_quarantines : int;       (* replica quarantines observed *)
  rp_resyncs : int;           (* resync artifacts shipped *)
  rp_ship_faults : int;       (* pumps interrupted by ship.* sites *)
  rp_apply_faults : int;      (* polls interrupted by replica.apply *)
  rp_primary_crashes : int;   (* mid-run primary crash + reattach cycles *)
  rp_compactions : int;       (* byte-triggered checkpoints observed *)
  rp_promoted_lsn : int;      (* failover: LSN the promoted replica held *)
  rp_lost_tail : int;         (* failover: records lost with the primary *)
}

(* One replica plus its harness bookkeeping. *)
type rep_slot = {
  rs_name : string;
  rs_path : string;
  mutable rs_rep : Replica.t;
  mutable rs_lag_until : int; (* skip polls until this op index *)
  mutable rs_corrupted : bool; (* this feed was damaged at some point *)
}

let run_replica ?(config = default_replica_config) ~dir () : replica_report =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let pdir = Filename.concat dir "primary" in
  let promoted_dir = Filename.concat dir "promoted" in
  fresh_dir pdir;
  fresh_dir promoted_dir;
  let prng = Prng.create ~seed:config.rp_seed in
  let report =
    ref
      {
        rp_statements = 0;
        rp_pumps = 0;
        rp_deliveries = 0;
        rp_reads = 0;
        rp_stale_reads = 0;
        rp_kills = 0;
        rp_corruptions = 0;
        rp_quarantines = 0;
        rp_resyncs = 0;
        rp_ship_faults = 0;
        rp_apply_faults = 0;
        rp_primary_crashes = 0;
        rp_compactions = 0;
        rp_promoted_lsn = 0;
        rp_lost_tail = 0;
      }
  in
  let bump f = report := f !report in
  (* primary + shipper *)
  let pdb = ref (Db.open_durable pdir) in
  List.iter (fun sql -> ignore (Db.exec !pdb sql)) setup_sql;
  if config.rp_checkpoint_bytes > 0 then
    Db.set_checkpoint_bytes !pdb (Some config.rp_checkpoint_bytes);
  let ship = ref (Ship.create !pdb) in
  let slots =
    List.init config.rp_replicas (fun i ->
        let rs_name = Printf.sprintf "r%d" i in
        let rs_path = Filename.concat dir ("feed_" ^ rs_name) in
        Ship.attach !ship ~name:rs_name ~path:rs_path;
        {
          rs_name;
          rs_path;
          rs_rep = Replica.attach ~name:rs_name ~feed:rs_path ();
          rs_lag_until = 0;
          rs_corrupted = false;
        })
  in
  (* the oracle's row list at every commit boundary, keyed by LSN *)
  let history : (int, Row.t list) Hashtbl.t = Hashtbl.create 64 in
  let oracle = ref [] in
  let remember () = Hashtbl.replace history (Db.lsn !pdb) !oracle in
  remember ();
  let last_pump_tip = ref 0 in
  let pump ~context =
    match Ship.pump !ship with
    | n ->
      last_pump_tip := Db.lsn !pdb;
      bump (fun r -> { r with rp_pumps = r.rp_pumps + 1; rp_deliveries = r.rp_deliveries + n })
    | exception e -> divergence "%s: pump failed: %s" context (Printexc.to_string e)
  in
  let poll slot ~context =
    match Replica.poll slot.rs_rep with
    | _ -> ()
    | exception Fault.Injected _ ->
      divergence "%s: unexpected injected fault in poll of %s" context slot.rs_name
    | exception e ->
      divergence "%s: poll of %s failed: %s" context slot.rs_name
        (Printexc.to_string e)
  in
  (* a quarantine is legitimate iff this feed really was damaged *)
  let note_quarantine slot ~context reason =
    if not slot.rs_corrupted then
      divergence "%s: replica %s quarantined without feed damage (%s)" context
        slot.rs_name reason;
    bump (fun r -> { r with rp_quarantines = r.rp_quarantines + 1 })
  in
  (* heal a quarantined replica: ship a fresh tip artifact, re-poll, and
     demand it comes back Ready (the artifact carries a fingerprint, so
     a wrong rebuild would re-quarantine) *)
  let repair slot ~context =
    Ship.resync !ship ~name:slot.rs_name;
    bump (fun r -> { r with rp_resyncs = r.rp_resyncs + 1 });
    last_pump_tip := Db.lsn !pdb;
    poll slot ~context;
    match Replica.status slot.rs_rep with
    | Replica.Ready -> ()
    | Replica.Syncing -> divergence "%s: %s still syncing after resync" context slot.rs_name
    | Replica.Quarantined { reason; _ } ->
      divergence "%s: %s still quarantined after resync: %s" context slot.rs_name reason
  in
  let check_replica_read slot ~context ~tip =
    match Replica.status slot.rs_rep with
    | Replica.Quarantined { reason; _ } ->
      note_quarantine slot ~context reason;
      repair slot ~context
    | Replica.Syncing -> ()
    | Replica.Ready ->
      let bound = Prng.int prng (config.rp_max_lag + 1) in
      let kind = if Prng.int prng 3 = 0 then `Tot else `Base in
      let sql =
        match kind with
        | `Base -> "SELECT grp, pos, val FROM seq"
        | `Tot -> "SELECT * FROM v_tot"
      in
      (match Replica.read slot.rs_rep ~tip ~max_records:bound sql with
       | Ok (rel, at) ->
         (match Hashtbl.find_opt history at with
          | None ->
            divergence "%s: %s served a read at lsn %d, not a committed state"
              context slot.rs_name at
          | Some rows ->
            let expected =
              match kind with
              | `Base -> Relation.of_array schema_seq (Array.of_list rows)
              | `Tot ->
                (* evaluate the view's definition over the historical rows *)
                let scratch = Db.create () in
                ignore (Db.exec scratch "CREATE TABLE seq (grp INT, pos INT, val FLOAT)");
                Db.load_table scratch ~table:"seq" (Array.of_list rows);
                Db.query scratch
                  "SELECT grp, SUM(val) AS total, COUNT(*) AS n FROM seq GROUP BY grp"
            in
            if not (Relation.equal_bag rel expected) then
              divergence
                "%s: %s read at lsn %d is not the historical state\nserved:\n%s\nexpected:\n%s"
                context slot.rs_name at
                (Relation.render (Relation.sorted_by_all rel))
                (Relation.render (Relation.sorted_by_all expected));
            if tip - at > bound then
              divergence "%s: %s served lag %d past the bound %d" context
                slot.rs_name (tip - at) bound;
            bump (fun r -> { r with rp_reads = r.rp_reads + 1 }))
       | Error (Replica.Stale { applied_lsn; tip_lsn; _ }) ->
         if tip_lsn - applied_lsn <= bound then
           divergence "%s: %s refused a read within the bound (lag %d <= %d)"
             context slot.rs_name (tip_lsn - applied_lsn) bound;
         bump (fun r -> { r with rp_stale_reads = r.rp_stale_reads + 1 })
       | Error (Replica.Unavailable reason) ->
         divergence "%s: ready replica %s refused a read: %s" context slot.rs_name
           reason)
  in
  let chaos_event ~context i =
    let slot = List.nth slots (Prng.int prng (List.length slots)) in
    match Prng.int prng 6 with
    | 0 ->
      (* kill: the replica object is abandoned; the rebuilt one must
         bootstrap from the feed alone *)
      slot.rs_rep <- Replica.attach ~name:slot.rs_name ~feed:slot.rs_path ();
      slot.rs_lag_until <- 0;
      poll slot ~context;
      (match Replica.status slot.rs_rep with
       | Replica.Quarantined { reason; _ } ->
         note_quarantine slot ~context reason;
         repair slot ~context
       | _ -> ());
      bump (fun r -> { r with rp_kills = r.rp_kills + 1 })
    | 1 ->
      (* corrupt a payload byte of the feed's LAST entry (its CRC then
         mismatches), abandon the replica and rebootstrap it from the
         damaged feed: the walk must end on the damage and quarantine,
         never serve state derived from it; resync must heal *)
      let items, _ = Feed.read_from slot.rs_path ~offset:0 in
      (match List.rev items with
       | [] -> () (* empty feed: nothing to damage *)
       | (_, finish) :: earlier ->
         let start = match earlier with [] -> 0 | (_, f) :: _ -> f in
         let at = start + 8 + Prng.int prng (max 1 (finish - start - 8)) in
         let fd = Unix.openfile slot.rs_path [ Unix.O_RDWR ] 0o644 in
         Fun.protect
           ~finally:(fun () -> try Unix.close fd with _ -> ())
           (fun () ->
             ignore (Unix.lseek fd at Unix.SEEK_SET);
             let b = Bytes.create 1 in
             ignore (Unix.read fd b 0 1);
             Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
             ignore (Unix.lseek fd at Unix.SEEK_SET);
             ignore (Unix.write fd b 0 1));
         slot.rs_corrupted <- true;
         slot.rs_rep <- Replica.attach ~name:slot.rs_name ~feed:slot.rs_path ();
         slot.rs_lag_until <- 0;
         bump (fun r -> { r with rp_corruptions = r.rp_corruptions + 1 });
         poll slot ~context;
         (match Replica.status slot.rs_rep with
          | Replica.Quarantined { reason; _ } ->
            note_quarantine slot ~context reason;
            repair slot ~context
          | _ ->
            divergence "%s: %s consumed a corrupt feed entry without quarantining"
              context slot.rs_name))
    | 2 ->
      (* lag: stop polling this replica for a stretch — its bounded
         reads must refuse once the primary moves past the bound *)
      slot.rs_lag_until <- i + config.rp_event_every
    | 3 ->
      (* the poll is interrupted before a record applies; the next poll
         must resume exactly where it stopped.  Pump first so the feed
         actually has unconsumed entries to trip over. *)
      pump ~context;
      Fault.arm "replica.apply" (Fault.Nth 1);
      (match Replica.poll slot.rs_rep with
       | _ -> ()
       | exception Fault.Injected _ ->
         bump (fun r -> { r with rp_apply_faults = r.rp_apply_faults + 1 }));
      Fault.disarm "replica.apply";
      poll slot ~context
    | 4 ->
      (* the pump is interrupted mid-entry; the partial entry must be
         truncated back off and the retry must ship cleanly *)
      Fault.arm "ship.append" (Fault.Nth 1);
      (match Ship.pump !ship with
       | _ -> last_pump_tip := Db.lsn !pdb
       | exception Fault.Injected _ ->
         bump (fun r -> { r with rp_ship_faults = r.rp_ship_faults + 1 }));
      Fault.disarm "ship.append";
      pump ~context
    | _ ->
      (* primary crash: recover the directory (LSNs must carry across)
         and reattach every feed where it stopped *)
      Db.close !pdb;
      Ship.close !ship;
      let db', _ = Db.recover pdir in
      pdb := db';
      if config.rp_checkpoint_bytes > 0 then
        Db.set_checkpoint_bytes !pdb (Some config.rp_checkpoint_bytes);
      ship := Ship.create !pdb;
      List.iter
        (fun s -> Ship.reattach !ship ~name:s.rs_name ~path:s.rs_path)
        slots;
      bump (fun r -> { r with rp_primary_crashes = r.rp_primary_crashes + 1 })
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm_all ();
      Ship.close !ship;
      (try Db.close !pdb with _ -> ()))
    (fun () ->
      (* first sync: every replica bootstraps to the setup state *)
      pump ~context:"initial sync";
      List.iter (fun s -> poll s ~context:"initial sync") slots;
      let last_epoch = ref (Db.epoch !pdb) in
      let note_compactions () =
        let e = Db.epoch !pdb in
        if e > !last_epoch then begin
          bump (fun r ->
              { r with rp_compactions = r.rp_compactions + (e - !last_epoch) });
          last_epoch := e
        end
        else if e < !last_epoch then last_epoch := e
      in
      let last_sql = ref "(none)" in
      let exec_op () =
        let op = gen_op prng in
        last_sql := sql_of_op op;
        let applied =
          match op with
          | Load_csv batch ->
            (match Csv.import_string !pdb ~table:"seq" (csv_of_batch batch) with
             | _ -> true
             | exception _ -> false)
          | op ->
            (match Db.exec !pdb (sql_of_op op) with
             | _ -> true
             | exception _ -> false)
        in
        if applied then oracle := apply_oracle !oracle op;
        (* history is recorded at chunk boundaries only: inside a batch
           the LSN has not advanced yet, so a per-statement record here
           would overwrite the boundary state with mid-batch ones *)
        bump (fun r -> { r with rp_statements = r.rp_statements + 1 })
      in
      let i = ref 1 in
      while !i <= config.rp_ops do
        let chunk =
          if config.rp_batch <= 1 then 1
          else min config.rp_batch (config.rp_ops - !i + 1)
        in
        let first = !i and last = !i + chunk - 1 in
        let crossed p = p > 0 && last / p > (first - 1) / p in
        let oracle0 = !oracle in
        (match
           if chunk = 1 then exec_op ()
           else Db.with_batch !pdb (fun () -> for _ = first to last do exec_op () done)
         with
         | () -> ()
         | exception _ -> oracle := oracle0);
        remember ();
        note_compactions ();
        let context =
          if chunk = 1 then Printf.sprintf "op %d (%s)" first !last_sql
          else Printf.sprintf "ops %d-%d (batch; last: %s)" first last !last_sql
        in
        if crossed config.rp_pump_every then begin
          pump ~context;
          List.iter
            (fun s -> if s.rs_lag_until <= last then poll s ~context)
            slots
        end;
        if crossed config.rp_read_every then
          List.iter
            (fun s -> check_replica_read s ~context ~tip:(Db.lsn !pdb))
            slots;
        if crossed config.rp_event_every then chaos_event ~context last;
        i := last + 1
      done;
      (* ---- failover ----
         Heal every quarantined replica while the primary still lives,
         then kill the primary with its unshipped tail and promote the
         freshest replica.  The promoted directory must reproduce the
         oracle at the promoted LSN — at most the unpumped tail is
         lost. *)
      let context = "failover" in
      List.iter
        (fun s ->
          if s.rs_lag_until > 0 then s.rs_lag_until <- 0;
          poll s ~context;
          match Replica.status s.rs_rep with
          | Replica.Quarantined { reason; _ } ->
            note_quarantine s ~context reason;
            repair s ~context
          | _ -> ())
        slots;
      let tip = Db.lsn !pdb in
      Db.close !pdb;
      Ship.close !ship;
      let winner =
        List.fold_left
          (fun best s ->
            match Replica.status s.rs_rep with
            | Replica.Ready | Replica.Syncing ->
              (match best with
               | Some b
                 when Replica.applied_lsn b.rs_rep >= Replica.applied_lsn s.rs_rep
                 -> best
               | _ -> Some s)
            | Replica.Quarantined _ -> best)
          None slots
      in
      let winner =
        match winner with
        | Some s -> s
        | None -> divergence "failover: no promotable replica"
      in
      let promoted_lsn = Replica.applied_lsn winner.rs_rep in
      if promoted_lsn < !last_pump_tip then
        divergence "failover: promoted lsn %d lost shipped history (pumped to %d)"
          promoted_lsn !last_pump_tip;
      let promoted = Replica.promote winner.rs_rep ~dir:promoted_dir in
      let check_promoted db ~context =
        match Hashtbl.find_opt history promoted_lsn with
        | None -> divergence "%s: promoted lsn %d has no oracle state" context promoted_lsn
        | Some rows -> check_base db rows ~context
      in
      check_promoted promoted ~context:"promoted state";
      (* the promoted primary must accept writes and recover on its own *)
      ignore (Db.exec promoted "INSERT INTO seq VALUES (1, 98, 4)");
      let after =
        (Hashtbl.find history promoted_lsn) @ [ row 1 98 (Value.Float 4.) ]
      in
      check_base promoted after ~context:"promoted write";
      Db.close promoted;
      let reopened, _ = Db.recover promoted_dir in
      check_base reopened after ~context:"promoted recovery";
      check_views reopened ~context:"promoted recovery";
      Db.close reopened;
      bump (fun r ->
          {
            r with
            rp_promoted_lsn = promoted_lsn;
            rp_lost_tail = tip - promoted_lsn;
          });
      !report)

(* ---- State fingerprint (rollback-idempotence checks) ----

   A textual dump of everything a statement may mutate: table rows in
   physical order, view contents, quarantine flags and the rendered
   incremental states.  Two fingerprints are equal iff the logical
   database states are bit-identical. *)

let fingerprint (db : Db.t) : string =
  let buf = Buffer.create 1024 in
  let cat = Db.catalog db in
  Catalog.all_tables cat
  |> List.sort (fun (a : Catalog.table) b -> compare a.Catalog.table_name b.Catalog.table_name)
  |> List.iter (fun (tbl : Catalog.table) ->
         Buffer.add_string buf (Printf.sprintf "table %s\n" tbl.Catalog.table_name);
         Buffer.add_string buf (Relation.render (Catalog.table_relation tbl)));
  Catalog.all_views cat
  |> List.sort (fun (a : Catalog.view) b -> compare a.Catalog.view_name b.Catalog.view_name)
  |> List.iter (fun (v : Catalog.view) ->
         Buffer.add_string buf
           (Printf.sprintf "view %s stale=%b incremental=%b\n" v.Catalog.view_name
              v.Catalog.stale
              (Db.is_incrementally_maintained db v.Catalog.view_name));
         match v.Catalog.contents with
         | Some c -> Buffer.add_string buf (Relation.render (Catalog.relation c))
         | None -> ());
  Buffer.contents buf

(* The same dump for a façade session (the engine handle stays inside
   this library). *)
let fingerprint_session s =
  fingerprint ((Rfview.Session.Unsafe.database [@alert "-unsafe"]) s)

(* ---- Storage-fault chaos ----

   The same stream and oracle over a durable primary whose every disk
   byte moves through the Io seam, with the simulated-disk backend
   driving the faults the other harnesses cannot express: disk-full
   episodes (a byte budget that tears writes), power cuts that lose
   every unsynced byte, and silent media corruption that only the
   scrubber can see.  One feed is kept pumped to the primary's tip so
   the cross-source repair path has a peer to rebuild from; every WAL
   rebuild is checked for *bit*-identity against a copy taken before
   the damage (the codec is canonical, so anything less is a wrong
   rebuild).  The central assertion is the usual one: the database is
   never silently wrong — committed statements survive every event,
   failed ones roll back completely, and damage is always *reported*
   before it is repaired. *)

module Io = Rfview_engine.Io
module Scrub = Rfview_engine.Scrub
module Repair = Rfview_replica.Repair

type storage_config = {
  st_seed : int;
  st_ops : int;               (* statements across the whole run *)
  st_event_every : int;       (* storage event once per this many *)
  st_checkpoint_every : int;  (* checkpoint period in statements; 0 = never *)
  st_batch : int;             (* > 1: group-commit chunks of this size *)
}

let default_storage_config =
  { st_seed = 31; st_ops = 60; st_event_every = 8; st_checkpoint_every = 13;
    st_batch = 0 }

type storage_report = {
  st_statements : int;
  st_io_faults : int;         (* armed io.* faults: statement rolled back *)
  st_enospc : int;            (* disk-full episodes entered *)
  st_degraded_writes : int;   (* writes rejected while degraded *)
  st_resumes : int;           (* degraded -> healthy via the space probe *)
  st_crashes : int;           (* power cuts (lost unsynced bytes) survived *)
  st_corruptions : int;       (* artifact bytes the harness damaged *)
  st_scrub_findings : int;    (* damage items the scrubber reported *)
  st_repairs : int;           (* WAL rebuilds / truncations performed *)
  st_reseeds : int;           (* feeds re-seeded from the primary *)
  st_checks : int;            (* invariant checkpoints passed *)
}

let run_storage ?(config = default_storage_config) ~dir () : storage_report =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let pdir = Filename.concat dir "primary" in
  fresh_dir pdir;
  let feed_path = Filename.concat dir "storage.feed" in
  if Sys.file_exists feed_path then Sys.remove feed_path;
  let wal = Filename.concat pdir "log.wal" in
  Fault.disarm_all ();
  Io.Sim.reset ();
  let prng = Prng.create ~seed:config.st_seed in
  let report =
    ref
      {
        st_statements = 0;
        st_io_faults = 0;
        st_enospc = 0;
        st_degraded_writes = 0;
        st_resumes = 0;
        st_crashes = 0;
        st_corruptions = 0;
        st_scrub_findings = 0;
        st_repairs = 0;
        st_reseeds = 0;
        st_checks = 0;
      }
  in
  let bump f = report := f !report in
  let db = ref (Db.open_durable pdir) in
  List.iter (fun sql -> ignore (Db.exec !db sql)) setup_sql;
  let ship = ref (Ship.create !db) in
  Ship.attach !ship ~name:"storage" ~path:feed_path;
  let oracle = ref [] in
  let check ~context =
    Fault.with_suspended (fun () ->
        check_base !db !oracle ~context;
        check_views !db ~context;
        ignore (heal_stale !db ~context);
        bump (fun r -> { r with st_checks = r.st_checks + 1 }))
  in
  (* keep the feed at the tip: it is the repair peer, so it must carry
     every record (and a fingerprint there) before damage strikes *)
  let pump ~context =
    match Ship.pump !ship with
    | _ -> ()
    | exception e ->
      divergence "%s: pump failed: %s" context (Printexc.to_string e)
  in
  (* close everything so the offline tools (scrub, repair, Sim.crash)
     own the directory *)
  let shutdown () =
    Ship.close !ship;
    Db.close !db
  in
  let reopen ~context =
    let db', _ = Db.recover pdir in
    db := db';
    ship := Ship.create !db;
    Ship.reattach !ship ~name:"storage" ~path:feed_path;
    check ~context
  in
  let scrub_counting () =
    let r = Repair.scrub ~feeds:[ feed_path ] pdir in
    bump (fun rep ->
        {
          rep with
          st_scrub_findings =
            rep.st_scrub_findings + List.length r.Scrub.damage;
        });
    r
  in
  (* silent media corruption: XOR one byte in place, through the
     positioned-write primitive that bypasses the simulation *)
  let flip_byte path ~at =
    let bytes = Io.read_file path in
    let c = Char.chr (Char.code bytes.[at] lxor 0xff) in
    let f = Io.openf path ~mode:Io.Write in
    Fun.protect
      ~finally:(fun () -> Io.close f)
      (fun () -> Io.pwrite f ~at (String.make 1 c));
    bump (fun r -> { r with st_corruptions = r.st_corruptions + 1 })
  in
  (* the damaged directory must (1) scrub dirty, (2) repair to a clean
     scrub, and (3) — when the WAL was the victim — end up bit-identical
     to the bytes it held before the damage *)
  let repair_and_verify ~context ~pristine_wal =
    let before = scrub_counting () in
    if Scrub.clean before then
      divergence "%s: scrub missed the damage" context;
    let outcome = Repair.repair ~feeds:[ feed_path ] pdir in
    if not (Scrub.clean outcome.Repair.o_after) then
      divergence "%s: damage survived repair: %s" context
        (Scrub.describe outcome.Repair.o_after);
    (match pristine_wal with
     | Some bytes ->
       if Io.read_file wal <> bytes then
         divergence "%s: repaired WAL is not bit-identical to the pre-damage log"
           context
     | None -> ());
    List.iter
      (function
        | Repair.Rebuilt_wal _ | Repair.Truncated_wal _ ->
          bump (fun r -> { r with st_repairs = r.st_repairs + 1 })
        | Repair.Reseeded_feed _ ->
          bump (fun r -> { r with st_reseeds = r.st_reseeds + 1 })
        | Repair.Swept_tmp _ -> ())
      outcome.Repair.o_actions
  in
  let storage_event ~context =
    match Prng.int prng 6 with
    | 0 ->
      (* a one-shot EIO at a seam site: the statement must fail, roll
         back completely, and NOT drop the session to degraded mode
         (only ENOSPC is a disk-state condition worth waiting out) *)
      let site = Prng.choose prng [ "io.write"; "io.fsync" ] in
      Io.Sim.set_error_kind Io.Eio;
      Fault.arm site (Fault.Nth 1);
      (match Db.exec !db "INSERT INTO seq VALUES (2, 99, 6)" with
       | _ -> divergence "%s: statement committed with %s armed" context site
       | exception Db.Degraded_error _ ->
         divergence "%s: an EIO fault must not enter degraded mode" context
       | exception _ ->
         bump (fun r -> { r with st_io_faults = r.st_io_faults + 1 }));
      Fault.disarm site;
      check ~context
    | 1 ->
      (* disk full: the commit tears, rolls back, and the session drops
         to read-only degraded mode; once space frees, the backoff
         probe must lift it and the retried statement must commit *)
      Io.Sim.set_budget (Some (Prng.int prng 16));
      (match Db.exec !db "INSERT INTO seq VALUES (3, 99, 7)" with
       | _ -> divergence "%s: statement committed on a full disk" context
       | exception Db.Degraded_error _ ->
         bump (fun r -> { r with st_enospc = r.st_enospc + 1 })
       | exception e ->
         divergence "%s: expected Degraded_error on ENOSPC, got %s" context
           (Printexc.to_string e));
      (match Db.health !db with
       | Db.Degraded _ -> ()
       | Db.Healthy ->
         divergence "%s: ENOSPC did not enter degraded mode" context);
      (* reads keep serving the pre-failure state while degraded *)
      Fault.with_suspended (fun () -> check_base !db !oracle ~context);
      (* further writes are rejected while the probe keeps failing *)
      for _ = 1 to 2 do
        match Db.exec !db "INSERT INTO seq VALUES (3, 99, 7)" with
        | _ -> divergence "%s: degraded session accepted a write" context
        | exception Db.Degraded_error _ ->
          bump (fun r -> { r with st_degraded_writes = r.st_degraded_writes + 1 })
      done;
      (* free the disk: within the probe backoff bound (capped at 64
         rejections between probes) a retried write must go through *)
      Io.Sim.set_budget None;
      let lifted = ref false in
      let attempts = ref 0 in
      while (not !lifted) && !attempts < 200 do
        incr attempts;
        match Db.exec !db "INSERT INTO seq VALUES (1, 7, 3)" with
        | _ ->
          oracle := apply_oracle !oracle (Insert { grp = 1; pos = 7; value = 3. });
          lifted := true
        | exception Db.Degraded_error _ -> ()
      done;
      if not !lifted then
        divergence "%s: degraded mode never lifted after space freed" context;
      (match Db.health !db with
       | Db.Healthy -> bump (fun r -> { r with st_resumes = r.st_resumes + 1 })
       | Db.Degraded { reason; _ } ->
         divergence "%s: still degraded after a committed write: %s" context
           reason);
      check ~context
    | 2 ->
      (* power cut: abandon everything, lose every unsynced byte.  The
         engine fsyncs per commit, so recovery reproduces the oracle
         and the scrubber finds only frame-aligned artifacts. *)
      shutdown ();
      Io.Sim.crash ();
      let r = scrub_counting () in
      if not (Scrub.clean r) then
        divergence "%s: artifacts damaged after a power cut: %s" context
          (Scrub.describe r);
      bump (fun rep -> { rep with st_crashes = rep.st_crashes + 1 });
      reopen ~context
    | 3 ->
      (* bit rot in the log: only the scrubber sees it, and the feed
         carries the affected records — the rebuilt log must be
         bit-identical to the pre-damage bytes *)
      pump ~context;
      shutdown ();
      let pristine = Io.read_file wal in
      if String.length pristine > 0 then begin
        flip_byte wal ~at:(Prng.int prng (String.length pristine));
        repair_and_verify ~context ~pristine_wal:(Some pristine)
      end;
      reopen ~context
    | 4 ->
      (* the WAL deleted outright: with a checkpoint on disk the
         scrubber reports the hole and repair rebuilds the whole
         suffix from the feed, bit-identical *)
      if Db.epoch !db = 0 then Db.checkpoint !db;
      pump ~context;
      shutdown ();
      let pristine = Io.read_file wal in
      Io.remove wal;
      bump (fun r -> { r with st_corruptions = r.st_corruptions + 1 });
      repair_and_verify ~context ~pristine_wal:(Some pristine);
      reopen ~context
    | _ ->
      (* feed corruption: scrub sees it, repair re-seeds the feed from
         the (healthy) primary, and the shipper resumes on the fresh
         artifact *)
      pump ~context;
      shutdown ();
      let bytes = Io.read_file feed_path in
      if String.length bytes > 0 then begin
        flip_byte feed_path ~at:(Prng.int prng (String.length bytes));
        repair_and_verify ~context ~pristine_wal:None
      end;
      reopen ~context
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm_all ();
      Io.Sim.reset ();
      (try Ship.close !ship with _ -> ());
      (try Db.close !db with _ -> ()))
    (fun () ->
      let last_sql = ref "(none)" in
      let exec_op () =
        let op = gen_op prng in
        last_sql := sql_of_op op;
        let applied =
          match op with
          | Load_csv batch ->
            (match Csv.import_string !db ~table:"seq" (csv_of_batch batch) with
             | _ -> true
             | exception _ -> false)
          | op ->
            (match Db.exec !db (sql_of_op op) with
             | _ -> true
             | exception _ -> false)
        in
        if applied then oracle := apply_oracle !oracle op;
        bump (fun r -> { r with st_statements = r.st_statements + 1 })
      in
      let i = ref 1 in
      while !i <= config.st_ops do
        let chunk =
          if config.st_batch <= 1 then 1
          else min config.st_batch (config.st_ops - !i + 1)
        in
        let first = !i and last = !i + chunk - 1 in
        let crossed p = p > 0 && last / p > (first - 1) / p in
        let oracle0 = !oracle in
        (match
           if chunk = 1 then exec_op ()
           else Db.with_batch !db (fun () -> for _ = first to last do exec_op () done)
         with
         | () -> ()
         | exception _ -> oracle := oracle0);
        let context =
          if chunk = 1 then Printf.sprintf "op %d (%s)" first !last_sql
          else Printf.sprintf "ops %d-%d (batch; last: %s)" first last !last_sql
        in
        check ~context;
        if crossed config.st_checkpoint_every then Db.checkpoint !db;
        pump ~context;
        if crossed config.st_event_every then storage_event ~context;
        i := last + 1
      done;
      (* final: the directory must scrub clean and, alone, reproduce
         the oracle *)
      pump ~context:"final pump";
      shutdown ();
      let r = scrub_counting () in
      if not (Scrub.clean r) then
        divergence "final scrub: %s" (Scrub.describe r);
      let db', _ = Db.recover pdir in
      db := db';
      check_base !db !oracle ~context:"final recovery";
      check_views !db ~context:"final recovery";
      !report)
