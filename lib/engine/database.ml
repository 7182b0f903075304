(* The database facade: parse → bind → (rewrite) → plan → execute, plus
   DDL/DML with materialized-view maintenance.

   [window_mode] selects how reporting functions execute — the contrast of
   the paper's Table 1:
   - [`Native]: the built-in window operator ("existing reporting
     functionality inside the database engine");
   - [`Self_join]: rewrite every window function into the relational
     self-join simulation of Fig. 2 before planning. *)

open Rfview_relalg
module Ast = Rfview_sql.Ast
module Parser = Rfview_sql.Parser
module Pretty = Rfview_sql.Pretty
module P = Rfview_planner
module Verify = Rfview_analysis.Verify

exception Engine_error of string

let engine_error fmt = Format.kasprintf (fun s -> raise (Engine_error s)) fmt

(* A script statement failed: 1-based index and SQL text of the culprit,
   so multi-statement failures are locatable. *)
exception Script_error of { index : int; sql : string; cause : exn }

let () =
  Printexc.register_printer (function
    | Script_error { index; sql; cause } ->
      Some
        (Printf.sprintf "statement %d (%s): %s" index sql
           (Printexc.to_string cause))
    | _ -> None)

(* A durable database directory could not be brought back to a usable
   state (structural checkpoint corruption, a failing WAL replay). *)
exception Recovery_error of string

let recovery_error fmt = Format.kasprintf (fun s -> raise (Recovery_error s)) fmt

let () =
  Printexc.register_printer (function
    | Recovery_error m -> Some (Printf.sprintf "recovery error: %s" m)
    | _ -> None)

(* ---- Fault-injection sites (see Fault) ---- *)

let site_apply_insert = Fault.define "database.apply_insert"
let site_apply_delete = Fault.define "database.apply_delete"
let site_apply_update = Fault.define "database.apply_update"
let site_propagate = Fault.define "database.propagate_view"
let site_refresh = Fault.define "database.refresh_view"
let site_replay = Fault.define "recover.replay"

(* Between the checkpoint rename and the WAL reset: a crash here leaves
   a new checkpoint beside a stale log, which recovery must discard. *)
let site_install = Fault.define "checkpoint.install"

type window_mode =
  [ `Native
  | `Self_join
  ]

(* What happens when maintaining one materialized view fails mid
   statement:
   - [`Quarantine] (default): the view is marked stale and dropped from
     incremental maintenance; the statement succeeds; the next read of
     the view triggers a full refresh.
   - [`Abort]: the exception propagates and the whole statement rolls
     back. *)
type degradation =
  [ `Quarantine
  | `Abort
  ]

(* Exceptions the degradation policies may absorb.  Verification
   failures are bugs, not environmental faults — never absorb them. *)
let recoverable_exn = function
  | Verify.Not_preserved _ | Out_of_memory | Stack_overflow -> false
  | _ -> true

(* All tuning knobs in one record, taken at open time; [reconfigure]
   swaps the whole record. *)
type config = {
  window_mode : window_mode;
  window_strategy : Window.strategy;
  hash_join : bool;
  index_join : bool;
  degradation : degradation;
  share_scans : bool;
      (* drive all sequence views of a certified scan-share class from
         one shared partition iterator during batch maintenance *)
}

let default_config =
  {
    window_mode = `Native;
    window_strategy = Window.Incremental;
    hash_join = true;
    index_join = true;
    degradation = `Quarantine;
    share_scans = true;
  }

type view_index = {
  vi_view : string;
  vi_column : string;
  vi_kind : Index.kind;
}

(* Attached by [open_durable]/[recover]: the WAL writer for the database
   directory.  [epoch] matches the current checkpoint generation (0
   before the first checkpoint); [appended] counts records in the
   current log and drives [checkpoint_every]; [base_lsn] is the global
   record count the current log starts at (the checkpoint's lsn), so
   [base_lsn + appended] is the database's log sequence number. *)
type durability = {
  dir : string;
  mutable wal : Wal.writer;
  mutable epoch : int;
  mutable base_lsn : int;
  mutable appended : int;
  mutable checkpoint_every : int option;
  mutable checkpoint_bytes : int option;
  (* Disk-full degraded mode (see [check_degraded] below): while
     [degraded] is [Some reason] every write is rejected with
     [Degraded_error] and reads keep serving; a space probe runs every
     [probe_backoff]-th rejection and lifts the mode once it succeeds. *)
  mutable degraded : string option;
  mutable rejected : int;
  mutable probe_backoff : int;
  mutable probe_countdown : int;
  mutable pending_fresh : (int * int) option;
      (* (epoch, lsn) of a checkpoint that became durable but whose
         fresh WAL could not be installed: appending to the old-epoch
         log would silently lose those records at recovery (stale-epoch
         logs are discarded), so the probe must finish the install
         before the session leaves degraded mode *)
  mutable pending_truncate : int option;
      (* byte offset a failed commit could not be truncated back to: the
         rolled-back record is still on the log, and a later synced
         commit would make it durable — recovery would then replay a
         statement the session rejected.  The probe must chop it off
         before the session leaves degraded mode. *)
}

(* An open batch scope: the accumulated delta plus the undo log that
   spans the whole batch (each statement's scope is absorbed into it on
   success, so an aborted batch rolls everything back together). *)
type batch = {
  mutable b_delta : Delta.t;
  b_undo : Undo.t;
}

type result =
  | Relation of Relation.t
  | Done of string

(* ---- MVCC version store ----

   Every commit point (top-level statement success, batch commit,
   recovery) publishes an immutable, LSN-stamped version of the logical
   state.  Publication is pointer capture, never a deep copy: table row
   arrays are replaced wholesale by every mutation path
   ([Catalog.set_rows], fresh [Array.map]/[Array.append] results) and
   materialized-view contents are replaced by fresh [Catalog.indexed]
   values ([Matview.render], [recompute]), so a captured pointer can
   never observe a later write — and the indexes cached beside a
   captured array are shared by every reader of it.  Readers acquire
   versions under [mv_mu] from any domain; the single writer publishes
   under the same mutex.  The retained window keeps the last
   [mv_retain] versions acquirable; older versions survive exactly as
   long as an active snapshot pins them ([v_refs]). *)

type vtable = {
  vt_name : string;
  vt_data : Catalog.indexed; (* frozen: the rows pointer at capture *)
  vt_indexes : (string * Index.kind) list; (* column, kind *)
}

type vview = {
  vv_name : string;
  vv_materialized : bool;
  vv_definition : Ast.query;
  vv_contents : Catalog.indexed option; (* frozen rendering at capture *)
  vv_stale : bool;
}

type version = {
  v_lsn : int;
  v_tables : vtable list;
  v_views : vview list;
  v_view_indexes : (string * string * Index.kind) list; (* view, column, kind *)
  v_cfg : config;
  mutable v_refs : int; (* active snapshots; guarded by [mv_mu] *)
}

type mvcc = {
  mv_mu : Mutex.t;
  mutable mv_versions : version list; (* newest first *)
  mutable mv_retain : int; (* acquirable window size *)
  mutable mv_seq : int; (* commit counter: the LSN surrogate in memory *)
  mutable mv_dirty : bool; (* a mutation happened since the last publish *)
}

type t = {
  catalog : Catalog.t;
  view_states : (string, Matview.state) Hashtbl.t; (* incremental seq views *)
  derived_views : (string, Matview.Derived.t) Hashtbl.t;
      (* views maintained by derived delta plans (generalized IVM) *)
  view_indexes : (string, view_index) Hashtbl.t;    (* keyed by index name *)
  mutable cfg : config;
  mutable undo : Undo.t option; (* Some while a statement is executing *)
  mutable batch : batch option; (* Some while a batch scope is open *)
  mutable durable : durability option;
  mutable wal_pending : Wal.record list; (* this scope's records, reversed *)
  mvcc : mvcc;
}

let default_retain = 8

let mark_dirty db = db.mvcc.mv_dirty <- true

let capture_version db ~lsn : version =
  {
    v_lsn = lsn;
    v_tables =
      Catalog.all_tables db.catalog
      |> List.map (fun (tbl : Catalog.table) ->
             {
               vt_name = tbl.Catalog.table_name;
               vt_data = tbl.Catalog.data;
               vt_indexes =
                 List.map
                   (fun (i : Catalog.index_def) -> (i.Catalog.column, i.Catalog.kind))
                   tbl.Catalog.indexes;
             });
    v_views =
      Catalog.all_views db.catalog
      |> List.map (fun (v : Catalog.view) ->
             {
               vv_name = v.Catalog.view_name;
               vv_materialized = v.Catalog.materialized;
               vv_definition = v.Catalog.definition;
               vv_contents = v.Catalog.contents;
               vv_stale = v.Catalog.stale;
             });
    v_view_indexes =
      Hashtbl.fold
        (fun _ vi acc -> (vi.vi_view, vi.vi_column, vi.vi_kind) :: acc)
        db.view_indexes [];
    v_cfg = db.cfg;
    v_refs = 0;
  }

(* Drop versions past the acquirable window, except those an active
   snapshot still pins.  Caller holds [mv_mu]. *)
let sweep_versions mv =
  let rec keep i = function
    | [] -> []
    | v :: rest ->
      if i < mv.mv_retain || v.v_refs > 0 then v :: keep (i + 1) rest
      else keep (i + 1) rest
  in
  mv.mv_versions <- keep 0 mv.mv_versions

let tip_lsn db =
  match db.durable with
  | Some d -> d.base_lsn + d.appended
  | None -> db.mvcc.mv_seq

(* Publish the current state as a fresh version if anything changed
   since the last publish.  Called by the single writer at commit
   points only (never mid-scope).  A commit that appended no WAL
   record — a heal-on-read refresh — replaces the head version in
   place: same LSN, newer (logically equal) state. *)
let publish_version db =
  let mv = db.mvcc in
  if mv.mv_dirty && db.batch = None && db.undo = None then begin
    let tip = tip_lsn db in
    let v = capture_version db ~lsn:tip in
    Mutex.lock mv.mv_mu;
    mv.mv_seq <- mv.mv_seq + 1;
    (match mv.mv_versions with
     | head :: rest when head.v_lsn = tip -> mv.mv_versions <- v :: rest
     | vs -> mv.mv_versions <- v :: vs);
    sweep_versions mv;
    mv.mv_dirty <- false;
    Mutex.unlock mv.mv_mu
  end

(* Throw away every published version and re-publish the current state;
   recovery and promotion call this once the real LSN is known (replay
   publishes under surrogate sequence numbers). *)
let reset_versions db =
  let mv = db.mvcc in
  Mutex.lock mv.mv_mu;
  mv.mv_versions <- [];
  mv.mv_seq <- 0;
  Mutex.unlock mv.mv_mu;
  mv.mv_dirty <- true;
  publish_version db

let create ?(config = default_config) () =
  let db =
    {
      catalog = Catalog.create ();
      view_states = Hashtbl.create 8;
      derived_views = Hashtbl.create 8;
      view_indexes = Hashtbl.create 8;
      cfg = config;
      undo = None;
      batch = None;
      durable = None;
      wal_pending = [];
      mvcc =
        {
          mv_mu = Mutex.create ();
          mv_versions = [];
          mv_retain = default_retain;
          mv_seq = 0;
          mv_dirty = true;
        };
    }
  in
  (* version 0: the empty database is snapshottable from the start *)
  publish_version db;
  db

let reconfigure db config = db.cfg <- config
let config db = db.cfg

let key = String.lowercase_ascii

(* ---- The undo log ----

   Each mutation below first logs a restore action (an absolute snapshot
   of the object about to change) into the statement's undo log; see
   Undo.  [with_undo] brackets one statement: on success the log is
   dropped, on any exception it is replayed and the exception re-raised,
   so [exec] is all-or-nothing.  Nested statements (EXPLAIN wrapping,
   cache admission inside a query) join the enclosing statement's log. *)

let log_undo db restore =
  match db.undo with
  | Some u -> Undo.log u restore
  | None -> ()

(* ---- WAL commit protocol ----

   Mutations queue logical records on [wal_pending] as they execute
   (deltas carry the exact rows, DDL its SQL text).  The outermost
   [with_undo] flushes the queue to the WAL and fsyncs *inside* the undo
   scope: the statement is committed iff its records are durable.  A
   failing append/fsync truncates the partial record back off the log
   and rolls the whole statement back — disk and memory agree either
   way.  During recovery [durable] is [None], so replay re-queues
   nothing. *)

let wal_log db record = if db.durable <> None then db.wal_pending <- record :: db.wal_pending

let wal_log_stmt db (stmt : Ast.statement) =
  match stmt with
  | Ast.St_create_table _ | Ast.St_create_index _ | Ast.St_create_view _
  | Ast.St_drop_table _ | Ast.St_drop_view _ | Ast.St_refresh_view _ ->
    wal_log db (Wal.Statement (Pretty.statement stmt))
  | _ -> ()

(* ---- Disk-full degraded mode ----

   ENOSPC during a WAL append or a checkpoint must not corrupt state
   and must not kill the session: the failed write rolls back, the
   session enters a typed read-only mode (reads keep serving, every
   write raises [Degraded_error]), and a cheap space probe — run with
   exponential backoff, counted in rejected writes — lifts the mode
   once the disk has room again. *)

exception Degraded_error of { reason : string }

type health = Healthy | Degraded of { reason : string; rejected_writes : int }

let wal_path dir = Filename.concat dir "log.wal"

let max_probe_backoff = 64

let enter_degraded d reason =
  if d.degraded = None then begin
    d.degraded <- Some reason;
    d.rejected <- 0;
    d.probe_backoff <- 1;
    d.probe_countdown <- 1
  end

(* Can the disk take writes again?  A tiny write+fsync to a scratch
   file: cheap, and exercises the same failure surface as a commit. *)
let probe_space d =
  let path = Filename.concat d.dir ".space-probe" in
  match
    let f = Io.openf path ~mode:Io.Create_trunc in
    Fun.protect
      ~finally:(fun () -> Io.close f)
      (fun () ->
        Io.write f (String.make 64 'p');
        Io.fsync f)
  with
  | () ->
    Io.remove path;
    true
  | exception (Io.Io_error _ | Unix.Unix_error _) ->
    Io.remove path;
    false

(* Leaving degraded mode may have unfinished business: a rolled-back
   record that could not be truncated off the log, or a checkpoint that
   became durable while its fresh WAL never got installed.  Finish both
   first — otherwise recovery would replay a rejected statement, or
   silently drop everything appended since (the old-epoch log is
   discarded). *)
let lift_degraded d =
  (match d.pending_truncate with
   | Some pos ->
     Wal.truncate_back d.wal pos;
     d.pending_truncate <- None
   | None -> ());
  (match d.pending_fresh with
   | Some (epoch', lsn') ->
     Wal.close d.wal;
     d.wal <- Wal.create (wal_path d.dir) ~epoch:epoch';
     d.epoch <- epoch';
     d.base_lsn <- lsn';
     d.appended <- 0;
     d.pending_fresh <- None
   | None -> ());
  d.degraded <- None;
  d.rejected <- 0;
  d.probe_backoff <- 1;
  d.probe_countdown <- 1

(* Gate at the head of every write path.  No-op while healthy; while
   degraded, every call counts as a rejected write, and every
   [probe_backoff]-th rejection runs the space probe (backoff doubles
   up to [max_probe_backoff] while the disk stays full). *)
let check_degraded d =
  match d.degraded with
  | None -> ()
  | Some reason ->
    d.rejected <- d.rejected + 1;
    d.probe_countdown <- d.probe_countdown - 1;
    if d.probe_countdown <= 0 then begin
      if probe_space d then
        match lift_degraded d with
        | () -> ()
        | exception e ->
          (* the pending truncate / fresh-WAL install failed: stay
             degraded *)
          d.probe_backoff <- min (d.probe_backoff * 2) max_probe_backoff;
          d.probe_countdown <- d.probe_backoff;
          if recoverable_exn e then
            raise (Degraded_error { reason })
          else raise e
      else begin
        d.probe_backoff <- min (d.probe_backoff * 2) max_probe_backoff;
        d.probe_countdown <- d.probe_backoff;
        raise (Degraded_error { reason })
      end
    end
    else raise (Degraded_error { reason })

let health db =
  match db.durable with
  | Some d ->
    (match d.degraded with
     | Some reason -> Degraded { reason; rejected_writes = d.rejected }
     | None -> Healthy)
  | None -> Healthy

let is_enospc = function
  | Io.Io_error { kind = Io.Enospc; _ } -> true
  | Unix.Unix_error (Unix.ENOSPC, _, _) -> true
  | _ -> false

let flush_wal db =
  match db.durable with
  | Some d when db.wal_pending <> [] ->
    check_degraded d;
    let records = List.rev db.wal_pending in
    db.wal_pending <- [];
    let pos = Wal.position d.wal in
    (try
       List.iter (Wal.append d.wal) records;
       Wal.sync d.wal;
       d.appended <- d.appended + List.length records
     with e ->
       (try Wal.truncate_back d.wal pos
        with Wal.Truncate_error _ ->
          (* the rolled-back record is still on the log, and a later
             synced commit would make it durable: stop writing until
             the probe chops it off *)
          d.pending_truncate <- Some pos;
          enter_degraded d "WAL rollback failed: a rejected record is still on the log");
       if is_enospc e then begin
         enter_degraded d "WAL commit failed: disk full";
         raise (Degraded_error { reason = "WAL commit failed: disk full" })
       end;
       raise e)
  | _ -> db.wal_pending <- []

(* ---- Checkpoint ----

   An atomic snapshot of tables, index DDL, views and materialized
   state, then a fresh WAL epoch.  Reads only the catalog and the
   durability record, so the commit protocol below can call it. *)

let checkpoint db =
  if db.batch <> None then engine_error "checkpoint: a batch is open";
  match db.durable with
  | None -> engine_error "checkpoint: database has no directory (open it with open_durable)"
  | Some d ->
    check_degraded d;
    let epoch' = d.epoch + 1 in
    let by_name name_of a b = String.compare (key (name_of a)) (key (name_of b)) in
    let tables =
      Catalog.all_tables db.catalog
      |> List.sort (by_name (fun (t : Catalog.table) -> t.Catalog.table_name))
      |> List.map (fun (t : Catalog.table) ->
             {
               Checkpoint.t_name = t.Catalog.table_name;
               t_schema = t.Catalog.schema;
               t_rows = Catalog.rows t;
             })
    in
    let index_ddl =
      let table_indexes =
        Catalog.all_tables db.catalog
        |> List.sort (by_name (fun (t : Catalog.table) -> t.Catalog.table_name))
        |> List.concat_map (fun (t : Catalog.table) ->
               t.Catalog.indexes
               |> List.sort (by_name (fun (i : Catalog.index_def) -> i.Catalog.index_name))
               |> List.map (fun (i : Catalog.index_def) ->
                      Pretty.statement
                        (Ast.St_create_index
                           {
                             name = i.Catalog.index_name;
                             table = t.Catalog.table_name;
                             column = i.Catalog.column;
                             ordered = i.Catalog.kind = Index.Ordered;
                           })))
      in
      let view_indexes =
        Hashtbl.fold (fun name vi acc -> (name, vi) :: acc) db.view_indexes []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.map (fun (name, vi) ->
               Pretty.statement
                 (Ast.St_create_index
                    {
                      name;
                      table = vi.vi_view;
                      column = vi.vi_column;
                      ordered = vi.vi_kind = Index.Ordered;
                    }))
      in
      table_indexes @ view_indexes
    in
    let views =
      Catalog.all_views db.catalog
      |> List.sort (by_name (fun (v : Catalog.view) -> v.Catalog.view_name))
      |> List.map (fun (v : Catalog.view) ->
             {
               Checkpoint.v_name = v.Catalog.view_name;
               v_materialized = v.Catalog.materialized;
               v_sql = Pretty.query v.Catalog.definition;
               v_state =
                 (if not v.Catalog.materialized then `None
                  else
                    `Snap
                      {
                        Checkpoint.s_stale = v.Catalog.stale;
                        s_contents = Option.map Catalog.relation v.Catalog.contents;
                        s_incremental =
                          Hashtbl.mem db.view_states (key v.Catalog.view_name)
                          || Hashtbl.mem db.derived_views
                               (key v.Catalog.view_name);
                      });
             })
    in
    let lsn = d.base_lsn + d.appended in
    (try Checkpoint.write ~dir:d.dir ~lsn ~epoch:epoch' ~tables ~index_ddl ~views
     with e when is_enospc e ->
       (* the tmp file is already removed; the old checkpoint + WAL are
          intact, but the disk is full: stop taking writes *)
       enter_degraded d "checkpoint failed: disk full";
       raise (Degraded_error { reason = "checkpoint failed: disk full" }));
    (* The snapshot is durable: install a fresh log for the new epoch.
       From here on a failure is dangerous, not just inconvenient —
       appending to the old-epoch log would be silently discarded at
       recovery (its epoch is behind the new checkpoint's).  Any
       failure therefore enters degraded mode carrying the pending
       install, which the space probe finishes before lifting it. *)
    (try
       Fault.hit site_install;
       let old = d.wal in
       let wal = Wal.create (wal_path d.dir) ~epoch:epoch' in
       (try Wal.close old with _ -> ());
       d.wal <- wal;
       d.epoch <- epoch';
       d.base_lsn <- lsn;
       d.appended <- 0
     with
     | Fault.Injected _ as e ->
       (* a bare armed [checkpoint.install] simulates a crash here; the
          harness closes and recovers, which handles the stale log *)
       raise e
     | e when recoverable_exn e ->
       let reason =
         Printf.sprintf "fresh WAL install failed after checkpoint: %s"
           (Printexc.to_string e)
       in
       enter_degraded d reason;
       d.pending_fresh <- Some (epoch', lsn);
       raise (Degraded_error { reason }))

(* A failed automatic checkpoint is degradation, not an error: the old
   checkpoint and the (longer) WAL still recover the same state. *)
let maybe_auto_checkpoint db =
  match db.durable with
  | Some d ->
    let by_count =
      match d.checkpoint_every with Some n -> d.appended >= n | None -> false
    in
    let by_bytes =
      (* accumulated WAL bytes, the compaction trigger: a handful of huge
         batch records should compact as eagerly as many small ones *)
      match d.checkpoint_bytes with
      | Some b -> d.appended > 0 && Wal.position d.wal >= b
      | None -> false
    in
    if by_count || by_bytes then
      (try checkpoint db with e when recoverable_exn e -> ())
  | None -> ()

let with_undo db f =
  match db.undo, db.batch with
  | Some _, _ -> f () (* nested: join the enclosing statement *)
  | None, Some b ->
    (* inside a batch: the statement gets its own scope so it stays
       individually atomic, but on success the scope folds into the
       batch's log and the WAL records stay queued for the batch's
       group commit (no flush, no sync, no checkpoint here) *)
    let u = Undo.create () in
    db.undo <- Some u;
    let mark = db.wal_pending in
    (match f () with
     | result ->
       db.undo <- None;
       Undo.absorb b.b_undo u;
       result
     | exception e ->
       db.undo <- None;
       db.wal_pending <- mark;
       Undo.rollback u;
       raise e)
  | None, None ->
    let u = Undo.create () in
    db.undo <- Some u;
    db.wal_pending <- [];
    (match
       let result = f () in
       flush_wal db;
       result
     with
     | result ->
       db.undo <- None;
       Undo.commit u;
       publish_version db;
       maybe_auto_checkpoint db;
       result
     | exception e ->
       db.undo <- None;
       db.wal_pending <- [];
       Undo.rollback u;
       (* rollback restored the state the head version captured *)
       db.mvcc.mv_dirty <- false;
       raise e)

(* Snapshot a table: its rows with their built indexes, and its index
   list. *)
let log_table db (tbl : Catalog.table) =
  mark_dirty db;
  let data = tbl.Catalog.data in
  let indexes = tbl.Catalog.indexes in
  log_undo db (fun () ->
      tbl.Catalog.data <- data;
      tbl.Catalog.indexes <- indexes)

(* Snapshot a materialized view: contents (with their built indexes),
   quarantine flag and incremental maintenance state (deep-copied:
   maintenance mutates it in place; derived-plan states are immutable,
   so their binding suffices). *)
let log_view db (v : Catalog.view) =
  mark_dirty db;
  let contents = v.Catalog.contents in
  let stale = v.Catalog.stale in
  let state =
    Option.map Matview.copy_state
      (Hashtbl.find_opt db.view_states (key v.Catalog.view_name))
  in
  let derived = Hashtbl.find_opt db.derived_views (key v.Catalog.view_name) in
  log_undo db (fun () ->
      v.Catalog.contents <- contents;
      v.Catalog.stale <- stale;
      (match state with
       | Some s -> Hashtbl.replace db.view_states (key v.Catalog.view_name) s
       | None -> Hashtbl.remove db.view_states (key v.Catalog.view_name));
      match derived with
      | Some d -> Hashtbl.replace db.derived_views (key v.Catalog.view_name) d
      | None -> Hashtbl.remove db.derived_views (key v.Catalog.view_name))

(* ---- The read path ----

   Every read — the writer's own and every snapshot's — runs this one
   implementation over a frozen [version]: relations resolve against
   the version's captured pointers, and indexes come from the cache
   beside each captured array.  The writer captures its working state
   with [capture_version] (without publishing it).  Callers differ only
   in how a quarantined view heals ([rd_heal]): a snapshot heals
   locally, the writer refreshes the live view.  The writer's reads
   also run the differential sanitizer hook, which mutates
   process-global state and so stays off reader domains. *)

type reader = {
  rd_version : version;
  rd_heal : reader -> vview -> Catalog.indexed;
  rd_sanitize : bool;
}

let find_vtable rd name =
  List.find_opt (fun vt -> key vt.vt_name = key name) rd.rd_version.v_tables

let find_vview rd name =
  List.find_opt (fun vv -> key vv.vv_name = key name) rd.rd_version.v_views

let read_view rd name : Catalog.indexed option =
  match find_vview rd name with
  | Some vv when vv.vv_materialized ->
    if vv.vv_stale then Some (rd.rd_heal rd vv)
    else (
      match vv.vv_contents with
      | Some c -> Some c
      | None -> engine_error "materialized view %s has no contents" name)
  | _ -> None

let read_relation rd name : Relation.t option =
  match find_vtable rd name with
  | Some vt -> Some (Catalog.relation vt.vt_data)
  | None -> Option.map Catalog.relation (read_view rd name)

let reader_binder rd : P.Binder.catalog =
  {
    P.Binder.resolve_table =
      (fun name -> Option.map Relation.schema (read_relation rd name));
    resolve_view =
      (fun name ->
        match find_vview rd name with
        | Some vv when not vv.vv_materialized -> Some vv.vv_definition
        | _ -> None);
  }

(* The index declared on [relname].[column] — a table's secondary index
   or a view index — built over the frozen array it indexes. *)
let read_index rd ~relname ~column : Index.t option =
  match find_vtable rd relname with
  | Some vt ->
    Option.bind
      (List.find_opt (fun (col, _) -> key col = key column) vt.vt_indexes)
      (fun (_, kind) -> Catalog.index vt.vt_data ~column kind)
  | None ->
    Option.bind
      (List.find_opt
         (fun (view, col, _) -> key view = key relname && key col = key column)
         rd.rd_version.v_view_indexes)
      (fun (_, _, kind) ->
        Option.bind (read_view rd relname) (fun c -> Catalog.index c ~column kind))

let reader_catalog rd : P.Physical.catalog_view =
  {
    P.Physical.table_contents =
      (fun name ->
        match read_relation rd name with
        | Some r -> r
        | None -> engine_error "unknown relation %s" name);
    table_index = (fun ~table ~column -> read_index rd ~relname:table ~column);
  }

(* verify → sanitize → physical plan: the tail of every plan, derived
   maintenance sub-plans included. *)
let plan_logical rd ~context logical : P.Physical.t =
  if Verify.enabled () then Verify.check_plan ~context logical;
  let cat = reader_catalog rd in
  (* differential sanitizer (no-op unless Sanitize.enable installed it);
     its sub-plan executions must not consume injected-fault budget *)
  if rd.rd_sanitize then
    Fault.with_suspended (fun () -> P.Hooks.sanitize ~catalog:cat logical);
  let cfg = rd.rd_version.v_cfg in
  let opts =
    {
      P.Physical.window_strategy = cfg.window_strategy;
      enable_hash_join = cfg.hash_join;
      enable_index_join = cfg.index_join;
    }
  in
  P.Physical.plan ~opts cat logical

(* bind → verify → rewrite → optimize → [plan_logical], returning the
   bound and optimized logical plans beside the physical one (EXPLAIN
   prints all three). *)
let plan_stages rd (q : Ast.query) =
  let bound = P.Binder.bind_query (reader_binder rd) q in
  if Verify.enabled () then Verify.check_plan ~context:"bound plan" bound;
  let optimized =
    P.Optimize.optimize
      (match rd.rd_version.v_cfg.window_mode with
       | `Native -> bound
       | `Self_join -> P.Rewrite.window_to_self_join bound)
  in
  (bound, optimized, plan_logical rd ~context:"optimized plan" optimized)

let read_plan rd q =
  let _, _, physical = plan_stages rd q in
  physical

let read_query rd q : Relation.t = P.Physical.execute (reader_catalog rd) (read_plan rd q)

(* ---- View maintenance ---- *)

let rec tables_of_query (q : Ast.query) : string list =
  tables_of_body q.Ast.body

and tables_of_body = function
  | Ast.Select s ->
    List.concat_map tables_of_ref s.Ast.from
  | Ast.Union { left; right; _ } -> tables_of_body left @ tables_of_body right

and tables_of_ref = function
  | Ast.Table { name; _ } -> [ name ]
  | Ast.Subquery { query; _ } -> tables_of_query query
  | Ast.Join { left; right; _ } -> tables_of_ref left @ tables_of_ref right

(* The writer's read of its working state: captured, not published.
   A quarantined view heals by full refresh into the live catalog, so
   later reads — and the next published version — see it healed. *)
let rec writer db =
  {
    rd_version = capture_version db ~lsn:(tip_lsn db);
    rd_heal = (fun _ vv -> heal_live db vv.vv_name);
    rd_sanitize = true;
  }

and heal_live db name =
  let v = Catalog.view db.catalog name in
  if v.Catalog.stale then refresh_view_full db v;
  match v.Catalog.contents with
  | Some c -> c
  | None -> engine_error "materialized view %s has no contents" name

(* Evaluate a query over the writer's state without flushing a pending
   batch delta: for view recomputation and verification, which run
   inside a flush or after the DDL flush of [exec_statement_in_scope]. *)
and recompute db q = read_query (writer db) q

(* Attempt to install a derived delta-plan maintenance state for a view
   the sequence machinery does not cover (generalized IVM).  The
   derivation must succeed AND its independent incrementality
   certificate (Ivmcert) must be valid — the engine never trusts one
   without the other.  Under the self-join window mode a windowed plan
   is not installed: the rewritten refresh path and the native
   partition recompute could disagree bit-wise.  Returns whether a
   state was installed. *)
and try_derive db (v : Catalog.view) =
  match
    let logical = P.Binder.bind_query (reader_binder (writer db)) v.Catalog.definition in
    match P.Deriv.derive logical with
    | Error _ -> None
    | Ok rules ->
      if
        not
          (Rfview_analysis.Ivmcert.valid
             (Rfview_analysis.Ivmcert.certify ~view:v.Catalog.view_name logical))
      then None
      else if P.Deriv.has_window rules && db.cfg.window_mode = `Self_join then
        None
      else Some (Matview.Derived.make rules)
  with
  | Some der ->
    Hashtbl.replace db.derived_views (key v.Catalog.view_name) der;
    true
  | None -> false
  | exception e when recoverable_exn e -> false

and refresh_view_full db (v : Catalog.view) =
  Fault.hit site_refresh;
  log_view db v;
  let contents = recompute db v.Catalog.definition in
  v.Catalog.contents <- Some (Catalog.indexed contents);
  v.Catalog.stale <- false;
  (* (re)try to establish an incremental state: the §2.3 sequence
     machinery first, the derived delta plans for everything else *)
  Hashtbl.remove db.view_states (key v.Catalog.view_name);
  Hashtbl.remove db.derived_views (key v.Catalog.view_name);
  let seq_installed =
    match Matview.recognize v.Catalog.definition with
    | None -> false
    | Some spec ->
      (match Catalog.find_table db.catalog spec.Matview.source with
       | None -> false
       | Some tbl ->
         (try
            let state =
              Matview.init_state spec
                ~base:(Catalog.table_relation tbl)
                ~out_schema:(Relation.schema contents)
            in
            let rendered = Matview.render state in
            (* translation validation of the derivation rewrite: the
               incremental core representation must reproduce the view
               contents the full recomputation just produced *)
            Verify.check_view_maintenance ~view:v.Catalog.view_name
              ~context:"the incremental sequence state" ~incremental:rendered
              ~recomputed:contents;
            (* serve the state's rendering, so a refresh and incremental
               maintenance leave the same physical row order behind — this
               keeps batched maintenance (whose wide deltas fall back to
               this path) bit-identical to per-row maintenance *)
            v.Catalog.contents <- Some (Catalog.indexed rendered);
            Hashtbl.replace db.view_states (key v.Catalog.view_name) state;
            true
          with Matview.Not_maintainable _ -> false))
  in
  if not seq_installed then ignore (try_derive db v)

type dml_change =
  | Rows_inserted of Row.t list
  | Rows_deleted of Row.t list
  | Rows_updated of (Row.t * Row.t) list (* old, new *)
  | Rows_batch of Delta.table_delta (* consolidated batch delta *)

(* Quarantine a view whose maintenance faulted mid statement: drop the
   (possibly half-applied) incremental state and mark the contents
   stale; the next read triggers a full refresh.  The base-table change
   stands — a quarantined view is late, never wrong. *)
let quarantine_view db (v : Catalog.view) =
  mark_dirty db;
  Hashtbl.remove db.view_states (key v.Catalog.view_name);
  Hashtbl.remove db.derived_views (key v.Catalog.view_name);
  v.Catalog.stale <- true

(* ---- Scan sharing (batch maintenance) ----

   Sequence views over the same base table whose live states agree on
   the resolved (partition columns, order column) scan key keep
   bit-identical ordered base structure, so one shared partition
   iterator can drive them all — the redundant re-scan that
   [Rfview_analysis.Share] flags as RF401.  Exactly like [try_derive],
   the mechanism is certificate-gated: the runtime keys must match AND
   the static sharing certificate over the view definitions must hold —
   the engine never trusts one without the other. *)
let shared_classes_for db ~table =
  if not db.cfg.share_scans then []
  else begin
    let candidates =
      List.filter_map
        (fun (v : Catalog.view) ->
          if
            v.Catalog.materialized
            && (not v.Catalog.stale)
            && not (Hashtbl.mem db.derived_views (key v.Catalog.view_name))
          then
            match Hashtbl.find_opt db.view_states (key v.Catalog.view_name) with
            | Some st when key st.Matview.spec.Matview.source = key table ->
              Some (v, st)
            | _ -> None
          else None)
        (Catalog.all_views db.catalog)
      (* the catalog is hashed: order by name so classes, their
         representative and the maintenance order are deterministic *)
      |> List.sort (fun ((a : Catalog.view), _) (b, _) ->
             compare (key a.Catalog.view_name) (key b.Catalog.view_name))
    in
    (* group by the runtime scan key, preserving catalog order *)
    let classes = ref [] in
    List.iter
      (fun ((_, st) as member) ->
        let k = (st.Matview.pcols, st.Matview.ocol) in
        match List.assoc_opt k !classes with
        | Some members -> members := member :: !members
        | None -> classes := !classes @ [ (k, ref [ member ]) ])
      candidates;
    List.filter_map
      (fun (_, members) ->
        let members = List.rev !members in
        if List.length members < 2 then None
        else
          (* the static certificate over the view definitions *)
          let specs =
            List.map
              (fun ((v : Catalog.view), _) ->
                Rfview_analysis.Share.scan_spec ~view:v.Catalog.view_name
                  v.Catalog.definition)
              members
          in
          let certified =
            List.for_all Option.is_some specs
            &&
            match List.filter_map Fun.id specs with
            | [] -> false
            | rep :: rest ->
              List.for_all (Rfview_analysis.Share.compatible rep) rest
          in
          if certified then Some members else None)
      !classes
  end

(* Propagate one base-table change to every materialized view that
   references the table: incrementally when a sequence-view state exists,
   by full refresh otherwise.  Views under derived delta-plan
   maintenance are skipped here — they are maintained once per change
   set with the full consolidated delta ([maintain_derived] below),
   because per-table propagation would double-count the dA |x| dB cross
   term of multi-table join deltas.  Already-quarantined views are
   skipped — they will catch up wholesale on their next read. *)
let propagate db ~table change =
  (* a delta at least as wide as the (post-change) base table gains
     nothing over recomputation: route it to the full-refresh path *)
  let wide =
    match change with
    | Rows_batch td ->
      Delta.weight td >= Array.length (Catalog.rows (Catalog.table db.catalog table))
    | _ -> false
  in
  (* certificate-gated shared base scans: a consolidated batch delta
     drives all views of a certified scan-share class from ONE shared
     structural merge; everything else takes the per-view path below *)
  let shared_done = Hashtbl.create 4 in
  (match change with
   | Rows_batch td when not wide ->
     List.iter
       (fun members ->
         match
           Matview.shared_plan
             (List.map snd members)
             ~inserts:td.Delta.inserted ~deletes:td.Delta.deleted
             ~updates:td.Delta.updated
         with
         | exception Matview.Not_maintainable _ ->
           (* the shared structural merge is not applicable (e.g. an
              edited row is missing from the base structure): leave the
              whole class to the per-view path, which reaches the same
              verdict view by view *)
           ()
         | plan ->
           List.iter
             (fun ((v : Catalog.view), state) ->
               Hashtbl.replace shared_done (key v.Catalog.view_name) ();
               let maintain () =
                 Fault.hit site_propagate;
                 log_view db v;
                 try
                   let solo =
                     if Verify.enabled () then Some (Matview.copy_state state)
                     else None
                   in
                   Matview.apply_shared plan state;
                   let rendered = Matview.render state in
                   (match solo with
                    | Some s ->
                      (* differential validation: the shared scan must
                         land bit-identically where the per-view scan
                         lands, and both must agree with recomputation *)
                      Matview.apply_batch s ~inserts:td.Delta.inserted
                        ~deletes:td.Delta.deleted ~updates:td.Delta.updated;
                      P.Hooks.validate_shared_scan ~view:v.Catalog.view_name
                        ~shared:rendered ~per_view:(Matview.render s);
                      Verify.check_view_maintenance ~view:v.Catalog.view_name
                        ~context:"shared-scan batch maintenance"
                        ~incremental:rendered
                        ~recomputed:(recompute db v.Catalog.definition)
                    | None -> ());
                   v.Catalog.contents <- Some (Catalog.indexed rendered)
                 with Matview.Not_maintainable _ -> refresh_view_full db v
               in
               match maintain () with
               | () -> ()
               | exception e
                 when db.cfg.degradation = `Quarantine && recoverable_exn e ->
                 quarantine_view db v)
             members)
       (shared_classes_for db ~table)
   | _ -> ());
  List.iter
    (fun (v : Catalog.view) ->
      if
        v.Catalog.materialized
        && (not v.Catalog.stale)
        && (not (Hashtbl.mem shared_done (key v.Catalog.view_name)))
        && (not (Hashtbl.mem db.derived_views (key v.Catalog.view_name)))
        && List.exists
             (fun t -> key t = key table)
             (tables_of_query v.Catalog.definition)
      then begin
        let maintain () =
          Fault.hit site_propagate;
          log_view db v;
          match
            if wide then None
            else Hashtbl.find_opt db.view_states (key v.Catalog.view_name)
          with
          | Some state ->
            (try
               (match change with
                | Rows_inserted rows -> List.iter (Matview.apply_insert state) rows
                | Rows_deleted rows -> List.iter (Matview.apply_delete state) rows
                | Rows_updated pairs ->
                  List.iter
                    (fun (old_row, new_row) ->
                      Matview.apply_update state ~old_row ~new_row)
                    pairs
                | Rows_batch td ->
                  Matview.apply_batch state ~inserts:td.Delta.inserted
                    ~deletes:td.Delta.deleted ~updates:td.Delta.updated);
               let rendered = Matview.render state in
               (* translation validation: incremental maintenance must agree
                  with recomputing the view definition from scratch *)
               if Verify.enabled () then
                 Verify.check_view_maintenance ~view:v.Catalog.view_name
                   ~context:"incremental sequence maintenance"
                   ~incremental:rendered
                   ~recomputed:(recompute db v.Catalog.definition);
               v.Catalog.contents <- Some (Catalog.indexed rendered)
             with Matview.Not_maintainable _ -> refresh_view_full db v)
          | None -> refresh_view_full db v
        in
        match maintain () with
        | () -> ()
        | exception e when db.cfg.degradation = `Quarantine && recoverable_exn e ->
          quarantine_view db v
      end)
    (Catalog.all_views db.catalog)

(* ---- Derived delta-plan maintenance ----

   Views under Planner.Deriv maintenance are updated once per change
   set, against the *full* consolidated delta: the join rule's cross
   term couples the per-table deltas, so per-table propagation would be
   wrong for multi-table views.  The evaluation environment routes
   sub-plan evaluation through the standard physical pipeline (checked
   and sanitized like any query plan) and reads deltas out of the
   consolidated batch delta. *)

let signed_of_td (td : Delta.table_delta) : (Row.t * int) list =
  List.map (fun r -> (r, 1)) td.Delta.inserted
  @ List.map (fun r -> (r, -1)) td.Delta.deleted
  @ List.concat_map (fun (o, n) -> [ (o, -1); (n, 1) ]) td.Delta.updated

let deriv_env db (d : Delta.t) : P.Deriv.env =
  {
    P.Deriv.delta_of =
      (fun table ->
        match Delta.find d table with
        | None -> []
        | Some td -> signed_of_td td);
    eval =
      (fun logical ->
        let rd = writer db in
        P.Physical.execute (reader_catalog rd)
          (plan_logical rd ~context:"derived maintenance sub-plan" logical));
    window_strategy = db.cfg.window_strategy;
  }

let maintain_derived db (d : Delta.t) =
  if not (Delta.is_empty d) then
    List.iter
      (fun (v : Catalog.view) ->
        if v.Catalog.materialized && not v.Catalog.stale then
          match Hashtbl.find_opt db.derived_views (key v.Catalog.view_name) with
          | None -> ()
          | Some der ->
            let sources = Matview.Derived.sources der in
            let touched =
              List.exists (fun t -> Delta.find d t <> None) sources
            in
            if touched then begin
              let maintain () =
                Fault.hit site_propagate;
                log_view db v;
                (* a delta at least as wide as the sources gains nothing
                   over recomputation: route it to the refresh path *)
                let weight =
                  List.fold_left
                    (fun acc t ->
                      match Delta.find d t with
                      | Some td -> acc + Delta.weight td
                      | None -> acc)
                    0 sources
                in
                let size =
                  List.fold_left
                    (fun acc t ->
                      match Catalog.find_table db.catalog t with
                      | Some tbl -> acc + Array.length (Catalog.rows tbl)
                      | None -> acc)
                    0 sources
                in
                match v.Catalog.contents with
                | Some contents when weight < size ->
                  (match
                     Matview.Derived.apply_batch der ~env:(deriv_env db d)
                       ~contents:(Catalog.relation contents)
                   with
                   | contents' ->
                     (* translation validation: the derived delta plan
                        must agree with recomputing the definition *)
                     if Verify.enabled () then
                       Verify.check_view_maintenance ~view:v.Catalog.view_name
                         ~context:"derived delta maintenance"
                         ~incremental:contents'
                         ~recomputed:(recompute db v.Catalog.definition);
                     v.Catalog.contents <- Some (Catalog.indexed contents')
                   | exception P.Deriv.Divergence _ -> refresh_view_full db v)
                | _ -> refresh_view_full db v
              in
              match maintain () with
              | () -> ()
              | exception e
                when db.cfg.degradation = `Quarantine && recoverable_exn e ->
                quarantine_view db v
            end)
      (Catalog.all_views db.catalog)

(* The consolidated single-statement delta for the immediate
   (non-batch) path. *)
let delta_of_change ~table = function
  | Rows_inserted rows -> Delta.insert Delta.empty ~table rows
  | Rows_deleted rows -> Delta.delete Delta.empty ~table rows
  | Rows_updated pairs -> Delta.update Delta.empty ~table pairs
  | Rows_batch _ -> assert false (* batch deltas never reach this path *)

(* ---- Batch scopes ----

   Inside [with_batch] the DML apply functions record their change into
   the batch's delta instead of propagating immediately; [flush_delta]
   consolidates and propagates once per dependent view (and runs early
   whenever a read or a DDL statement needs fresh views mid-batch).  The
   batch's WAL records are framed as one [Wal.Batch] record and fsynced
   once — the group commit. *)

let record_or_propagate db ~table change =
  (* a DML statement that matched nothing must not touch the views at
     all — in batch mode [Delta.find] drops empty deltas, so the
     immediate path has to skip them too or the two modes would leave
     different physical view contents (render order) behind *)
  match change with
  | Rows_inserted [] | Rows_deleted [] | Rows_updated [] -> ()
  | _ ->
  match db.batch with
  | Some b ->
    let d = b.b_delta in
    log_undo db (fun () -> b.b_delta <- d);
    b.b_delta <-
      (match change with
       | Rows_inserted rows -> Delta.insert d ~table rows
       | Rows_deleted rows -> Delta.delete d ~table rows
       | Rows_updated pairs -> Delta.update d ~table pairs
       | Rows_batch _ -> assert false (* batches never nest into deltas *))
  | None ->
    propagate db ~table change;
    maintain_derived db (delta_of_change ~table change)

let flush_delta db =
  match db.batch with
  | None -> ()
  | Some b when Delta.is_empty b.b_delta -> ()
  | Some b ->
    let run () =
      let d = b.b_delta in
      log_undo db (fun () -> b.b_delta <- d);
      (* clear before propagating, so nothing the propagation reaches
         can apply the same delta twice *)
      b.b_delta <- Delta.empty;
      List.iter
        (fun table ->
          match Delta.find d table with
          | Some td -> propagate db ~table (Rows_batch td)
          | None -> ())
        (Delta.tables d);
      (* derived views see the whole consolidated delta at once *)
      maintain_derived db d
    in
    (match db.undo with
     | Some _ -> run () (* mid-statement: join its scope *)
     | None ->
       (* between statements (batch commit, or a bare read): give the
          flush its own scope and fold it into the batch on success *)
       let u = Undo.create () in
       db.undo <- Some u;
       (match run () with
        | () ->
          db.undo <- None;
          Undo.absorb b.b_undo u
        | exception e ->
          db.undo <- None;
          Undo.rollback u;
          raise e))

(* ---- User-facing reads ----

   A read through the public API first propagates a pending batch
   delta, so no pre-batch view result is ever served, then reads the
   writer's state through the one read path. *)

let plan_query db q =
  flush_delta db;
  read_plan (writer db) q

let run_query db q =
  flush_delta db;
  recompute db q

let binder_catalog db =
  flush_delta db;
  reader_binder (writer db)

let catalog_view db =
  flush_delta db;
  reader_catalog (writer db)

let commit_batch db =
  flush_delta db;
  (match db.wal_pending with
   | [] | [ _ ] -> () (* zero/one record: keep the unwrapped framing *)
   | records -> db.wal_pending <- [ Wal.Batch (List.rev records) ]);
  flush_wal db

let with_batch db f =
  match db.batch, db.undo with
  | Some _, _ | _, Some _ -> f () (* nested or mid-statement: join *)
  | None, None ->
    let b = { b_delta = Delta.empty; b_undo = Undo.create () } in
    db.batch <- Some b;
    db.wal_pending <- [];
    (match
       let result = f () in
       commit_batch db;
       result
     with
     | result ->
       db.batch <- None;
       Undo.commit b.b_undo;
       publish_version db;
       maybe_auto_checkpoint db;
       result
     | exception e ->
       db.batch <- None;
       db.wal_pending <- [];
       Undo.rollback b.b_undo;
       db.mvcc.mv_dirty <- false;
       raise e)

(* ---- DML ---- *)

let const_scalar (e : Ast.expr) : Value.t =
  let bound = P.Binder.bind_scalar (Schema.make []) e in
  Expr.eval [||] bound

(* Coerce a value to a column's declared type where a lossless conversion
   exists (integer literals into FLOAT columns, ISO strings into DATE
   columns, ...); incompatible values are rejected. *)
let coerce_value ty (v : Value.t) : Value.t =
  match ty, v with
  | _, Value.Null -> Value.Null
  | Dtype.Float, Value.Int i -> Value.Float (float_of_int i)
  | Dtype.Int, Value.Float f when Float.is_integer f -> Value.Int (int_of_float f)
  | Dtype.Date, Value.String s ->
    (match Value.parse_date s with
     | Some d -> Value.Date d
     | None -> engine_error "invalid date value '%s'" s)
  | Dtype.Int, Value.Int _
  | Dtype.Float, Value.Float _
  | Dtype.Bool, Value.Bool _
  | Dtype.String, Value.String _
  | Dtype.Date, Value.Date _ -> v
  | ty, v ->
    engine_error "value %s is not compatible with type %s" (Value.to_string v)
      (Dtype.to_string ty)

(* Apply an insert delta: shared by [exec_insert] and WAL replay, so a
   replayed statement takes exactly the committed statement's path. *)
let insert_rows db ~table (new_rows : Row.t list) =
  let tbl = Catalog.table db.catalog table in
  log_table db tbl;
  Catalog.set_rows tbl (Array.append (Catalog.rows tbl) (Array.of_list new_rows));
  Fault.hit site_apply_insert;
  wal_log db (Wal.Insert { table; rows = Array.of_list new_rows });
  record_or_propagate db ~table (Rows_inserted new_rows)

let exec_insert db ~table ~columns ~rows =
  let tbl = Catalog.table db.catalog table in
  let schema = tbl.Catalog.schema in
  let arity = Schema.arity schema in
  let col_positions =
    if columns = [] then List.init arity Fun.id
    else
      List.map
        (fun c ->
          match Schema.find_opt schema c with
          | Some i -> i
          | None -> engine_error "table %s has no column %s" table c)
        columns
  in
  let new_rows =
    List.map
      (fun exprs ->
        if List.length exprs <> List.length col_positions then
          engine_error "INSERT arity mismatch for table %s" table;
        let row = Array.make arity Value.Null in
        List.iter2
          (fun pos e ->
            row.(pos) <- coerce_value (Schema.col schema pos).Schema.ty (const_scalar e))
          col_positions exprs;
        row)
      rows
  in
  insert_rows db ~table new_rows;
  Done (Printf.sprintf "INSERT %d" (List.length new_rows))

(* Shared apply steps for update/delete deltas (statement path and WAL
   replay).  [rows]/[kept] is the table's full new contents; [pairs]/
   [deleted] the delta that maintains dependent views and the log. *)
let update_rows db ~table ~rows ~pairs =
  let tbl = Catalog.table db.catalog table in
  log_table db tbl;
  Catalog.set_rows tbl rows;
  Fault.hit site_apply_update;
  wal_log db (Wal.Update { table; pairs = Array.of_list pairs });
  record_or_propagate db ~table (Rows_updated pairs)

let delete_rows db ~table ~kept ~deleted =
  let tbl = Catalog.table db.catalog table in
  log_table db tbl;
  Catalog.set_rows tbl kept;
  Fault.hit site_apply_delete;
  wal_log db (Wal.Delete { table; rows = Array.of_list deleted });
  record_or_propagate db ~table (Rows_deleted deleted)

let exec_update db ~table ~assignments ~where =
  let tbl = Catalog.table db.catalog table in
  let schema = tbl.Catalog.schema in
  let pred =
    match where with
    | None -> Expr.Const (Value.Bool true)
    | Some w -> P.Binder.bind_scalar schema w
  in
  let assigns =
    List.map
      (fun (c, e) ->
        match Schema.find_opt schema c with
        | Some i -> (i, P.Binder.bind_scalar schema e)
        | None -> engine_error "table %s has no column %s" table c)
      assignments
  in
  let pairs = ref [] in
  let rows =
    Array.map
      (fun row ->
        if Expr.holds row pred then begin
          let fresh = Array.copy row in
          List.iter
            (fun (i, e) ->
              fresh.(i) <- coerce_value (Schema.col schema i).Schema.ty (Expr.eval row e))
            assigns;
          pairs := (row, fresh) :: !pairs;
          fresh
        end
        else row)
      (Catalog.rows tbl)
  in
  update_rows db ~table ~rows ~pairs:(List.rev !pairs);
  Done (Printf.sprintf "UPDATE %d" (List.length !pairs))

let exec_delete db ~table ~where =
  let tbl = Catalog.table db.catalog table in
  let schema = tbl.Catalog.schema in
  let pred =
    match where with
    | None -> Expr.Const (Value.Bool true)
    | Some w -> P.Binder.bind_scalar schema w
  in
  let deleted = ref [] in
  let kept = ref [] in
  Array.iter
    (fun row ->
      if Expr.holds row pred then deleted := row :: !deleted else kept := row :: !kept)
    (Catalog.rows tbl);
  delete_rows db ~table
    ~kept:(Array.of_list (List.rev !kept))
    ~deleted:(List.rev !deleted);
  Done (Printf.sprintf "DELETE %d" (List.length !deleted))

(* ---- Statements ---- *)

(* Execute one statement inside the enclosing undo scope; the public
   [exec_statement] below brackets this with [with_undo], so every entry
   is all-or-nothing. *)
let rec exec_statement_in_scope db (stmt : Ast.statement) : result =
  (* DDL that creates, refreshes or drops relations must observe views
     consistent with every earlier statement of the batch *)
  (match stmt with
   | Ast.St_create_view _ | Ast.St_refresh_view _ | Ast.St_drop_table _
   | Ast.St_drop_view _ -> flush_delta db
   | _ -> ());
  let result =
    match stmt with
  | Ast.St_query q -> Relation (run_query db q)
  | Ast.St_create_table { name; columns } ->
    let schema =
      Schema.make
        (List.map (fun c -> Schema.column c.Ast.col_name c.Ast.col_type) columns)
    in
    let _ = Catalog.create_table db.catalog ~name ~schema in
    mark_dirty db;
    log_undo db (fun () -> Catalog.forget_table db.catalog name);
    Done (Printf.sprintf "CREATE TABLE %s" name)
  | Ast.St_create_index { name; table; column; ordered } ->
    let kind = if ordered then Index.Ordered else Index.Hash in
    (match Catalog.find_table db.catalog table with
     | Some tbl ->
       log_table db tbl;
       Catalog.create_index db.catalog ~name ~table ~column ~kind;
       Done (Printf.sprintf "CREATE INDEX %s" name)
     | None ->
       if Catalog.find_view db.catalog table <> None then begin
         if Hashtbl.mem db.view_indexes (key name) then
           engine_error "index %s already exists" name;
         Hashtbl.replace db.view_indexes (key name)
           { vi_view = table; vi_column = column; vi_kind = kind };
         mark_dirty db;
         log_undo db (fun () -> Hashtbl.remove db.view_indexes (key name));
         Done (Printf.sprintf "CREATE INDEX %s" name)
       end
       else engine_error "unknown relation %s" table)
  | Ast.St_create_view { name; materialized; query } ->
    let v = Catalog.create_view db.catalog ~name ~materialized ~definition:query in
    mark_dirty db;
    log_undo db (fun () ->
        Catalog.forget_view db.catalog name;
        Hashtbl.remove db.view_states (key name);
        Hashtbl.remove db.derived_views (key name));
    if materialized then refresh_view_full db v;
    Done (Printf.sprintf "CREATE %sVIEW %s" (if materialized then "MATERIALIZED " else "") name)
  | Ast.St_insert { table; columns; rows } -> exec_insert db ~table ~columns ~rows
  | Ast.St_update { table; assignments; where } -> exec_update db ~table ~assignments ~where
  | Ast.St_delete { table; where } -> exec_delete db ~table ~where
  | Ast.St_drop_table { name; if_exists } ->
    (match Catalog.find_table db.catalog name with
     | Some tbl -> log_undo db (fun () -> Catalog.restore_table db.catalog tbl)
     | None -> ());
    Catalog.drop_table db.catalog ~name ~if_exists;
    mark_dirty db;
    Done (Printf.sprintf "DROP TABLE %s" name)
  | Ast.St_drop_view { name; if_exists } ->
    (match Catalog.find_view db.catalog name with
     | Some v ->
       let state = Hashtbl.find_opt db.view_states (key name) in
       let derived = Hashtbl.find_opt db.derived_views (key name) in
       (* the view's indexes go with it: a registration outliving its
          view would be checkpointed as DDL that cannot replay *)
       let indexes =
         Hashtbl.fold
           (fun iname vi acc ->
             if key vi.vi_view = key name then (iname, vi) :: acc else acc)
           db.view_indexes []
       in
       List.iter (fun (iname, _) -> Hashtbl.remove db.view_indexes iname) indexes;
       log_undo db (fun () ->
           Catalog.restore_view db.catalog v;
           List.iter (fun (iname, vi) -> Hashtbl.replace db.view_indexes iname vi) indexes;
           (match state with
            | Some s -> Hashtbl.replace db.view_states (key name) s
            | None -> Hashtbl.remove db.view_states (key name));
           match derived with
           | Some d -> Hashtbl.replace db.derived_views (key name) d
           | None -> Hashtbl.remove db.derived_views (key name))
     | None -> ());
    Catalog.drop_view db.catalog ~name ~if_exists;
    Hashtbl.remove db.view_states (key name);
    Hashtbl.remove db.derived_views (key name);
    mark_dirty db;
    Done (Printf.sprintf "DROP VIEW %s" name)
  | Ast.St_refresh_view name ->
    refresh_view_full db (Catalog.view db.catalog name);
    Done (Printf.sprintf "REFRESH %s" name)
  | Ast.St_explain inner ->
    (match inner with
     | Ast.St_query q ->
       flush_delta db;
       let bound, optimized, physical = plan_stages (writer db) q in
       Done
         (Printf.sprintf "== logical ==\n%s== optimized ==\n%s== physical ==\n%s"
            (P.Logical.to_string bound)
            (P.Logical.to_string optimized)
            (P.Physical.to_string physical))
     | other -> exec_statement_in_scope db other)
  | Ast.St_explain_analyze inner ->
    (match inner with
     | Ast.St_query q ->
       flush_delta db;
       let rd = writer db in
       let _result, profile =
         P.Physical.execute_analyze (reader_catalog rd) (read_plan rd q)
       in
       Done (P.Physical.render_profile profile)
     | other -> exec_statement_in_scope db other)
  in
  (* DDL/REFRESH reaches the log as SQL text; DML already queued its row
     deltas on the apply path (an EXPLAIN'd statement logs as itself via
     the recursive call — the EXPLAIN wrapper matches nothing here). *)
  wal_log_stmt db stmt;
  result

(* Every statement is atomic: on any exception the undo log restores
   tables and view contents (each with its built indexes) and view
   states to the pre-statement snapshot before re-raising. *)
let exec_statement db stmt = with_undo db (fun () -> exec_statement_in_scope db stmt)

(* Bulk-load rows into a table, bypassing the SQL layer (used by the
   benchmark harness, CSV import and the workload generators).  The load
   is its own batch: dependent views are maintained once through the
   delta path (with the usual full-refresh fallback when the load is at
   least as wide as the table).  Atomic like a statement: a failed
   maintenance rolls the load back. *)
let load_table db ~table rows =
  with_batch db (fun () ->
      with_undo db (fun () ->
          let tbl = Catalog.table db.catalog table in
          log_table db tbl;
          Catalog.set_rows tbl (Array.append (Catalog.rows tbl) rows);
          wal_log db (Wal.Load { table; rows });
          record_or_propagate db ~table (Rows_inserted (Array.to_list rows))))

(* ---- Entry points ---- *)

let exec db (sql : string) : result = exec_statement db (Parser.statement sql)

(* A script runs as one batch: statements stay individually atomic, the
   first failure stops the script (later statements never run), and the
   batch still commits what succeeded before re-raising — matching the
   per-statement semantics scripts always had, at one group commit. *)
let exec_script db (sql : string) : result list =
  let stmts = Parser.statements sql in
  let results = ref [] in
  let failure = ref None in
  with_batch db (fun () ->
      List.iteri
        (fun i stmt ->
          if Option.is_none !failure then
            match exec_statement db stmt with
            | r -> results := r :: !results
            | exception cause ->
              failure :=
                Some
                  (Script_error
                     { index = i + 1; sql = Pretty.statement stmt; cause }))
        stmts);
  match !failure with
  | Some e -> raise e
  | None -> List.rev !results

(* A non-query is refused before it runs, so a write never commits
   behind a read's error. *)
let query db (sql : string) : Relation.t =
  match Parser.statement sql with
  | Ast.St_query _ as stmt ->
    (match exec_statement db stmt with
     | Relation r -> r
     | Done _ -> assert false)
  | stmt -> engine_error "expected a query, got: %s" (Pretty.statement stmt)

let explain db (sql : string) : string =
  match exec_statement db (Ast.St_explain (Parser.statement sql)) with
  | Done s -> s
  | Relation _ -> assert false

(* Does a view currently have an incremental maintenance state?  Either
   flavor counts: the §2.3 sequence machinery or a derived delta plan. *)
let is_incrementally_maintained db name =
  Hashtbl.mem db.view_states (key name)
  || Hashtbl.mem db.derived_views (key name)

(* Is the view maintained by a derived delta plan (generalized IVM)? *)
let is_derived_maintained db name = Hashtbl.mem db.derived_views (key name)

(* The derived maintenance state, for introspection (CLI, tests). *)
let derived_state db name =
  flush_delta db;
  Hashtbl.find_opt db.derived_views (key name)

(* Is the view quarantined (pending a lazy full refresh)? *)
let is_stale db name =
  match Catalog.find_view db.catalog name with
  | Some v -> v.Catalog.stale
  | None -> false

(* Deterministic order: the catalog hashtable iterates in an arbitrary
   order, and names are case-insensitive, so sort by folded name (exact
   name breaking ties). *)
let stale_views db =
  Catalog.all_views db.catalog
  |> List.filter_map (fun (v : Catalog.view) ->
         if v.Catalog.stale then Some v.Catalog.view_name else None)
  |> List.sort (fun a b ->
         match String.compare (key a) (key b) with
         | 0 -> String.compare a b
         | c -> c)

let catalog db = db.catalog

let view_state db name =
  (* an open batch may hold unpropagated deltas; observing the state
     must reflect them *)
  flush_delta db;
  Hashtbl.find_opt db.view_states (key name)

(* The certified scan-share classes a batch delta against [table] would
   drive through one shared partition iterator — the cert-iff-runtime
   introspection surface for the CLI and the test matrix. *)
let share_classes db ~table =
  flush_delta db;
  List.map
    (fun members ->
      List.map (fun ((v : Catalog.view), _) -> v.Catalog.view_name) members)
    (shared_classes_for db ~table)

(* ---- Durability: checkpoint, recovery, the database directory ----

   A durable database lives in a directory holding [checkpoint] (see
   Checkpoint) and [log.wal] (see Wal).  Opening recovers: restore the
   checkpoint, replay the WAL suffix, truncate a torn tail, attach the
   writer.  The epoch ties the two files together — a WAL whose epoch is
   below the checkpoint's is a stale log left by a crash between the
   checkpoint rename and the log reset, and is discarded (its records
   are already inside the checkpoint). *)

type recovery_report = {
  checkpoint_epoch : int option; (* [None]: no checkpoint existed *)
  replayed : int;                (* WAL records applied *)
  torn : bool;                   (* a torn tail was truncated *)
  quarantined : string list;     (* views restored stale (damaged state) *)
  swept : string list;           (* stale *.tmp files removed at open *)
}

let ensure_dir dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then recovery_error "%s: not a directory" dir
  end
  else
    try Sys.mkdir dir 0o755
    with Sys_error m -> recovery_error "cannot create %s: %s" dir m

(* ---- Replay ----

   DML records replay through the same apply functions the original
   statements used ([insert_rows]/[update_rows]/[delete_rows]), so view
   maintenance, fault sites and quarantine behave identically.  Deltas
   carry exact rows; pre-images are matched by value (first match), which
   is multiset-correct: rows equal by value are interchangeable. *)

let row_equal (a : Row.t) (b : Row.t) =
  Array.length a = Array.length b
  && (try
        Array.iter2 (fun x y -> if not (Value.equal x y) then raise Exit) a b;
        true
      with Exit -> false)

let replay_delete db ~table rows =
  let tbl = Catalog.table db.catalog table in
  let pending = ref (Array.to_list rows) in
  let kept = ref [] in
  Array.iter
    (fun row ->
      let rec take acc = function
        | [] -> None
        | r :: rest when row_equal r row -> Some (List.rev_append acc rest)
        | r :: rest -> take (r :: acc) rest
      in
      match take [] !pending with
      | Some rest -> pending := rest
      | None -> kept := row :: !kept)
    (Catalog.rows tbl);
  if !pending <> [] then engine_error "replay: DELETE pre-image missing from %s" table;
  delete_rows db ~table
    ~kept:(Array.of_list (List.rev !kept))
    ~deleted:(Array.to_list rows)

let replay_update db ~table pairs =
  let tbl = Catalog.table db.catalog table in
  let rows = Array.copy (Catalog.rows tbl) in
  (* consume a distinct row per pair: equal pre-images evaluate the same
     assignments, so any matching is multiset-equivalent — but a row
     already rewritten must not satisfy a later pair's pre-image *)
  let used = Array.make (Array.length rows) false in
  Array.iter
    (fun (old_row, new_row) ->
      let rec find i =
        if i >= Array.length rows then
          engine_error "replay: UPDATE pre-image missing from %s" table
        else if (not used.(i)) && row_equal rows.(i) old_row then begin
          rows.(i) <- new_row;
          used.(i) <- true
        end
        else find (i + 1)
      in
      find 0)
    pairs;
  update_rows db ~table ~rows ~pairs:(Array.to_list pairs)

let rec replay_record db (record : Wal.record) =
  match record with
  | Wal.Begin _ -> ()
  | Wal.Statement sql -> ignore (exec db sql)
  | Wal.Insert { table; rows } ->
    ignore (with_undo db (fun () -> insert_rows db ~table (Array.to_list rows)))
  | Wal.Delete { table; rows } ->
    ignore (with_undo db (fun () -> replay_delete db ~table rows))
  | Wal.Update { table; pairs } ->
    ignore (with_undo db (fun () -> replay_update db ~table pairs))
  | Wal.Load { table; rows } -> load_table db ~table rows
  | Wal.Batch records ->
    (* a group-committed batch replays through the same batched delta
       path the original run used *)
    with_batch db (fun () -> List.iter (replay_record db) records)

(* ---- Recovery ---- *)

(* Rebuild a restored matview's incremental maintenance state from the
   restored base table, cross-checked against the restored contents; a
   view outside the sequence shape re-derives its delta plan instead
   (the CRC-validated contents stay authoritative either way).
   Returns false when no state could be established. *)
let rebuild_state db (view : Catalog.view) =
  match
    ( Matview.recognize view.Catalog.definition,
      Option.map Catalog.relation view.Catalog.contents )
  with
  | Some spec, Some contents ->
    (match Catalog.find_table db.catalog spec.Matview.source with
     | None -> false
     | Some tbl ->
       (try
          let state =
            Matview.init_state spec
              ~base:(Catalog.table_relation tbl)
              ~out_schema:(Relation.schema contents)
          in
          if Relation.equal_bag contents (Matview.render state) then begin
            Hashtbl.replace db.view_states (key view.Catalog.view_name) state;
            true
          end
          else false
        with Matview.Not_maintainable _ -> false))
  | None, Some _ -> try_derive db view
  | _ -> false

(* Restore a checkpoint snapshot into a fresh database: tables, then
   views with their materialized state, then index DDL.  [quarantine]
   marks a view stale and records its name; shared by directory
   recovery and replica bootstrap (which restores from feed bytes). *)
let restore_snapshot_into db ~quarantine (snap : Checkpoint.snapshot) =
  List.iter
    (fun (t : Checkpoint.table_snap) ->
      let tbl =
        Catalog.create_table db.catalog ~name:t.Checkpoint.t_name
          ~schema:t.Checkpoint.t_schema
      in
      Catalog.set_rows tbl t.Checkpoint.t_rows)
    snap.Checkpoint.tables;
  List.iter
    (fun (v : Checkpoint.view_entry) ->
      let definition =
        try Parser.query v.Checkpoint.v_sql
        with e ->
          recovery_error "checkpoint: view %s: unreadable definition (%s)"
            v.Checkpoint.v_name (Printexc.to_string e)
      in
      let view =
        Catalog.create_view db.catalog ~name:v.Checkpoint.v_name
          ~materialized:v.Checkpoint.v_materialized ~definition
      in
      if v.Checkpoint.v_materialized then
        match v.Checkpoint.v_state with
        | `Snap
            {
              Checkpoint.s_stale;
              s_contents = Some contents;
              s_incremental;
            } ->
          view.Catalog.contents <- Some (Catalog.indexed contents);
          view.Catalog.stale <- s_stale;
          if s_stale then quarantine ~already:true view
          else if s_incremental then
            (* the CRC-validated contents are authoritative; when the
               rebuilt incremental state cannot be proven to reproduce
               them (e.g. float drift between incremental and from-
               scratch summation), serve the contents without a state —
               the next DML falls back to a full refresh *)
            ignore (rebuild_state db view)
        | `Snap { Checkpoint.s_contents = None; _ } | `Damaged | `None ->
          (* damaged or missing state: restore the definition only and
             let the first read heal it by full refresh *)
          quarantine ~already:false view)
    snap.Checkpoint.views;
  List.iter
    (fun ddl ->
      try ignore (exec db ddl)
      with e ->
        recovery_error "checkpoint: replaying %S: %s" ddl (Printexc.to_string e))
    snap.Checkpoint.index_ddl

let restore_snapshot ?config (snap : Checkpoint.snapshot) =
  let db = create ?config () in
  let quarantined = ref [] in
  let quarantine ~already (v : Catalog.view) =
    if not already then v.Catalog.stale <- true;
    quarantined := v.Catalog.view_name :: !quarantined
  in
  restore_snapshot_into db ~quarantine snap;
  reset_versions db;
  (db, List.sort_uniq String.compare !quarantined)

(* A crash between writing [foo.tmp] and renaming it over [foo] leaves
   the temp file behind; nothing ever reads one (installs are
   rename-atomic), so sweep them at open instead of letting them
   accumulate forever. *)
let sweep_tmp dir =
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries
    |> List.filter (fun e -> Filename.check_suffix e ".tmp")
    |> List.sort String.compare
    |> List.filter_map (fun e ->
           let path = Filename.concat dir e in
           if Sys.is_directory path then None
           else begin
             Io.remove path;
             Some path
           end)
  | exception Sys_error _ -> []

let recover ?config dir =
  ensure_dir dir;
  let swept = sweep_tmp dir in
  let db = create ?config () in
  let quarantined = ref [] in
  let quarantine ~already (v : Catalog.view) =
    if not already then v.Catalog.stale <- true;
    quarantined := v.Catalog.view_name :: !quarantined
  in
  let snap =
    try Checkpoint.read ~dir with Checkpoint.Corrupt m -> recovery_error "%s" m
  in
  (match snap with
   | None -> ()
   | Some snap -> restore_snapshot_into db ~quarantine snap);
  let ckpt_epoch = match snap with None -> 0 | Some s -> s.Checkpoint.epoch in
  let ckpt_lsn = match snap with None -> 0 | Some s -> s.Checkpoint.lsn in
  let wpath = wal_path dir in
  let replayed = ref 0 in
  let torn = ref false in
  let need_fresh = ref true in
  if Sys.file_exists wpath then begin
    let scan = try Wal.scan wpath with Wal.Wal_error m -> recovery_error "%s" m in
    if scan.Wal.epoch < ckpt_epoch then
      (* stale log from before the checkpoint: everything in it is
         already inside the snapshot — discard, install a fresh log *)
      need_fresh := true
    else if scan.Wal.epoch > ckpt_epoch then
      recovery_error "%s: log epoch %d is ahead of checkpoint epoch %d" wpath
        scan.Wal.epoch ckpt_epoch
    else begin
      need_fresh := false;
      torn := scan.Wal.torn;
      List.iteri
        (fun i record ->
          try
            Fault.hit site_replay;
            replay_record db record
          with e ->
            recovery_error "%s: record %d (%s): %s" wpath (i + 1)
              (Wal.describe record) (Printexc.to_string e))
        scan.Wal.records;
      replayed := List.length scan.Wal.records;
      if scan.Wal.torn then begin
        try Wal.truncate wpath scan.Wal.valid_bytes
        with e ->
          recovery_error "%s: truncating torn tail: %s" wpath (Printexc.to_string e)
      end
    end
  end;
  let wal =
    if !need_fresh then Wal.create wpath ~epoch:ckpt_epoch else Wal.open_append wpath
  in
  db.durable <-
    Some
      {
        dir;
        wal;
        epoch = ckpt_epoch;
        base_lsn = ckpt_lsn;
        appended = !replayed;
        checkpoint_every = None;
        checkpoint_bytes = None;
        degraded = None;
        rejected = 0;
        probe_backoff = 1;
        probe_countdown = 1;
        pending_fresh = None;
        pending_truncate = None;
      };
  let report =
    {
      checkpoint_epoch = Option.map (fun (s : Checkpoint.snapshot) -> s.Checkpoint.epoch) snap;
      replayed = !replayed;
      torn = !torn;
      quarantined = List.sort_uniq String.compare (List.rev !quarantined);
      swept;
    }
  in
  (* replay published versions under surrogate sequence numbers; now
     that the directory is attached, re-publish at the real LSN *)
  reset_versions db;
  (db, report)

let open_durable ?config dir = fst (recover ?config dir)

let set_checkpoint_every db n =
  match db.durable with
  | Some d -> d.checkpoint_every <- n
  | None -> ()

let set_checkpoint_bytes db n =
  match db.durable with
  | Some d -> d.checkpoint_bytes <- n
  | None -> ()

let durable_dir db = Option.map (fun d -> d.dir) db.durable

let epoch db = match db.durable with Some d -> d.epoch | None -> 0

(* ---- Replication support ----

   The log sequence number is the global count of top-level WAL records
   since the database was created; it survives checkpoints (the
   checkpoint header carries it) and orders every shipped record. *)

let lsn db =
  match db.durable with
  | Some d -> d.base_lsn + d.appended
  | None -> 0

let in_batch db = db.batch <> None

(* Replay one WAL record through the regular apply path.  Replicas call
   this on shipped records; with no [durable] attached nothing is
   re-logged, so application is pure state transition. *)
let apply_record db record = replay_record db record

(* A textual dump of the logical database state: table and view rows in
   sorted order, plus quarantine flags.  Two databases with equal
   fingerprints answer every query identically.  Rows are sorted before
   rendering because physical order is not logical state: a replica
   bootstrapped from a checkpoint may rebuild a view by full refresh
   where the primary maintained it incrementally — same bag of rows,
   different order.  Likewise excludes whether an *incremental
   maintenance state* is present at all. *)
let version_fingerprint (v : version) : string =
  let buf = Buffer.create 1024 in
  let render r = Buffer.add_string buf (Relation.render (Relation.sorted_by_all r)) in
  List.sort (fun a b -> compare a.vt_name b.vt_name) v.v_tables
  |> List.iter (fun vt ->
         Buffer.add_string buf (Printf.sprintf "table %s\n" vt.vt_name);
         render (Catalog.relation vt.vt_data));
  List.sort (fun a b -> compare a.vv_name b.vv_name) v.v_views
  |> List.iter (fun vv ->
         Buffer.add_string buf (Printf.sprintf "view %s stale=%b\n" vv.vv_name vv.vv_stale);
         Option.iter (fun c -> render (Catalog.relation c)) vv.vv_contents);
  Buffer.contents buf

let fingerprint db : string = version_fingerprint (capture_version db ~lsn:(tip_lsn db))

(* ---- MVCC snapshots ----

   A snapshot wraps one published version and reads it through the
   shared read path, so it can run on any domain while the single
   writer keeps committing.  A quarantined view heals snapshot-locally:
   computed from the frozen base tables, memoized inside the snapshot,
   never written back. *)

type snapshot = {
  sn_db : t; (* release bookkeeping only: never read on the query path *)
  sn_reader : reader;
  mutable sn_released : bool; (* guarded by [sn_db.mvcc.mv_mu] *)
}

let local_heal () =
  let mu = Mutex.create () in
  let healed : (string, Catalog.indexed) Hashtbl.t = Hashtbl.create 4 in
  fun rd vv ->
    let k = key vv.vv_name in
    match Mutex.protect mu (fun () -> Hashtbl.find_opt healed k) with
    | Some c -> c
    | None ->
      (* recompute outside the lock (heals can nest); racing domains
         compute equal relations, the first one in wins *)
      let c = Catalog.indexed (read_query rd vv.vv_definition) in
      Mutex.protect mu (fun () ->
          match Hashtbl.find_opt healed k with
          | Some first -> first
          | None ->
            Hashtbl.replace healed k c;
            c)

let make_snapshot db v =
  {
    sn_db = db;
    sn_reader = { rd_version = v; rd_heal = local_heal (); rd_sanitize = false };
    sn_released = false;
  }

let snapshot db =
  let mv = db.mvcc in
  Mutex.lock mv.mv_mu;
  match mv.mv_versions with
  | [] ->
    Mutex.unlock mv.mv_mu;
    engine_error "no published version to snapshot" (* unreachable *)
  | v :: _ ->
    v.v_refs <- v.v_refs + 1;
    Mutex.unlock mv.mv_mu;
    make_snapshot db v

let snapshot_at db ~lsn:want =
  let mv = db.mvcc in
  Mutex.lock mv.mv_mu;
  let tip = match mv.mv_versions with [] -> 0 | v :: _ -> v.v_lsn in
  match List.find_opt (fun v -> v.v_lsn = want) mv.mv_versions with
  | Some v ->
    v.v_refs <- v.v_refs + 1;
    Mutex.unlock mv.mv_mu;
    Ok (make_snapshot db v)
  | None ->
    Mutex.unlock mv.mv_mu;
    Error
      Staleness.
        { applied_lsn = want; tip_lsn = tip;
          lag = Staleness.lag ~applied_lsn:want ~tip_lsn:tip ~bytes:0 }

let release db sn =
  let mv = db.mvcc in
  Mutex.lock mv.mv_mu;
  if not sn.sn_released then begin
    sn.sn_released <- true;
    sn.sn_reader.rd_version.v_refs <- sn.sn_reader.rd_version.v_refs - 1;
    sweep_versions mv
  end;
  Mutex.unlock mv.mv_mu

let retained_lsns db =
  let mv = db.mvcc in
  Mutex.lock mv.mv_mu;
  let lsns = List.map (fun v -> v.v_lsn) mv.mv_versions in
  Mutex.unlock mv.mv_mu;
  lsns

let set_retain db n =
  if n < 1 then engine_error "set_retain: window must be at least 1";
  let mv = db.mvcc in
  Mutex.lock mv.mv_mu;
  mv.mv_retain <- n;
  sweep_versions mv;
  Mutex.unlock mv.mv_mu

let open_snapshots db =
  let mv = db.mvcc in
  Mutex.lock mv.mv_mu;
  let n = List.fold_left (fun acc v -> acc + v.v_refs) 0 mv.mv_versions in
  Mutex.unlock mv.mv_mu;
  n

module Snapshot = struct
  type t = snapshot

  let lsn sn = sn.sn_reader.rd_version.v_lsn
  let released sn = sn.sn_released

  let reader sn =
    if sn.sn_released then engine_error "snapshot is closed";
    sn.sn_reader

  let query sn sql : Relation.t =
    let rd = reader sn in
    match Parser.statement sql with
    | Ast.St_query q -> read_query rd q
    | stmt ->
      engine_error "snapshot is read-only: %s is not a query"
        (Pretty.statement stmt)

  let run_query sn q = read_query (reader sn) q
  let fingerprint sn : string = version_fingerprint (reader sn).rd_version
  let close (sn : t) = release sn.sn_db sn
end

(* Promotion: turn an in-memory database (a replica's applied state)
   into a durable primary directory.  Writes a checkpoint carrying
   [lsn] — the replica's applied position — and installs a fresh WAL,
   so the promoted primary's log sequence continues where the shipped
   history ended. *)
let make_durable db ~dir ~lsn =
  if db.durable <> None then engine_error "make_durable: database is already durable";
  if db.batch <> None then engine_error "make_durable: a batch is open";
  ensure_dir dir;
  let wal = Wal.create (wal_path dir) ~epoch:0 in
  db.durable <-
    Some
      {
        dir;
        wal;
        epoch = 0;
        base_lsn = lsn;
        appended = 0;
        checkpoint_every = None;
        checkpoint_bytes = None;
        degraded = None;
        rejected = 0;
        probe_backoff = 1;
        probe_countdown = 1;
        pending_fresh = None;
        pending_truncate = None;
      };
  (* reuse the regular checkpoint path: bumps to epoch 1, snapshots the
     whole catalog with the carried lsn, installs the epoch-1 log *)
  (try checkpoint db
   with e ->
     (match db.durable with
      | Some d -> (try Wal.close d.wal with _ -> ())
      | None -> ());
     db.durable <- None;
     raise e);
  (* versions published while in memory carry surrogate LSNs *)
  reset_versions db

let close db =
  match db.durable with
  | None -> ()
  | Some d ->
    (try Wal.close d.wal with _ -> ());
    db.durable <- None
