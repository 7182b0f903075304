(** Stable public API of the reporting-function-view engine.

    This is the façade downstream code should program against: the
    [Rfview.Session] handle wraps the engine behind a result-typed
    surface with structured errors, [Rfview.Config] fixes all
    execution knobs at open time, and [Rfview.Snapshot] gives
    immutable point-in-time read handles safe to query from other
    domains.  Everything underneath ({!Session.Unsafe.database} and
    the [Rfview_*] libraries) remains reachable but is {e not} covered
    by the stability promise. *)

module Relation = Rfview_relalg.Relation

(** {1 Staleness}

    The one vocabulary every stale-bounded read tier speaks: replica
    reads ({!Session.read_replica}) and historical snapshot opens
    ({!Snapshot.at}) refuse with the same {!Staleness.violation}. *)

module Staleness : sig
  (** How far a read state trails the primary tip. *)
  type lag = Rfview_engine.Staleness.lag = {
    records : int;  (** LSNs behind the tip *)
    bytes : int;  (** feed bytes not yet consumed (0 where meaningless) *)
  }

  (** A refused stale read: the state at [applied_lsn] trails
      [tip_lsn] by more than the caller's bound. *)
  type violation = Rfview_engine.Staleness.violation = {
    applied_lsn : int;
    tip_lsn : int;
    lag : lag;
  }

  (** One line, human-readable. *)
  val describe : violation -> string
end

(** {1 Configuration} *)

module Config : sig
  (** Reporting functions execute through the native window operator
      ([`Native]) or the paper's Fig. 2 self-join simulation
      ([`Self_join]). *)
  type window_mode = Rfview_engine.Database.window_mode

  (** Per-partition window evaluation: the §2.2 naive form or the
      pipelined incremental computation. *)
  type window_strategy = Rfview_relalg.Window.strategy =
    | Naive
    | Incremental

  (** What happens when maintaining one materialized view fails mid
      statement: [`Quarantine] marks the view stale (healed on next
      read), [`Abort] rolls the statement back. *)
  type degradation = Rfview_engine.Database.degradation

  type t = Rfview_engine.Database.config = {
    window_mode : window_mode;
    window_strategy : window_strategy;
    hash_join : bool;
    index_join : bool;
    degradation : degradation;
    share_scans : bool;
        (** drive all sequence views of a certified scan-share class
            from one shared partition iterator during batch
            maintenance (see {!Rfview_engine.Database.share_classes}) *)
  }

  (** [`Native], [Incremental], hash and index joins on,
      [`Quarantine], scan sharing on. *)
  val default : t
end

(** {1 Sessions} *)

module Session : sig
  (** A handle on one open database (in-memory or durable). *)
  type t

  (** Storage health of a durable session.  ENOSPC during a WAL commit
      or checkpoint never corrupts state: the session enters a
      read-only degraded mode (reads keep serving, writes fail with
      {!error.Degraded_mode}) and resumes automatically — via a
      backoff-probed space check — once the disk has room again. *)
  type health = Rfview_engine.Database.health =
    | Healthy
    | Degraded of { reason : string; rejected_writes : int }

  (** Structured failure of a session operation. *)
  type error =
    | Parse of string  (** the SQL text does not lex/parse *)
    | Bind of string  (** names/types do not resolve *)
    | Runtime of string  (** execution failed; the statement rolled back *)
    | Quarantined of { views : string list; detail : string }
        (** the failure quarantined materialized views (they heal by
            full refresh on their next read) *)
    | Recovery of string  (** a durable directory could not be recovered *)
    | Script of { index : int; sql : string; cause : error }
        (** statement [index] (1-based) of a script failed; prior
            statements committed *)
    | Stale of Staleness.violation
        (** a {!read_replica} or {!Snapshot.at} whose staleness bound
            could not be met; nothing was evaluated *)
    | Degraded_mode of { reason : string }
        (** the write was rejected: the session is in disk-full
            degraded mode (see {!health}); state is unchanged and reads
            keep serving *)

  (** One line, human-readable. *)
  val describe_error : error -> string

  type result = Rfview_engine.Database.result =
    | Relation of Relation.t
    | Done of string

  type recovery_report = Rfview_engine.Database.recovery_report = {
    checkpoint_epoch : int option;
    replayed : int;
    torn : bool;
    quarantined : string list;
    swept : string list;
        (** stale [*.tmp] files removed when the directory was opened *)
  }

  (** {2 Opening} *)

  val open_in_memory : ?config:Config.t -> unit -> t

  (** Open (creating if necessary) a durable database directory;
      [Error (Recovery _)] when it cannot be recovered. *)
  val open_durable : ?config:Config.t -> string -> (t, error) Stdlib.result

  (** What recovery did, for sessions opened with {!open_durable}. *)
  val recovery : t -> recovery_report option

  (** Close the underlying WAL writer (the handle stays usable in
      memory).  Idempotent. *)
  val close : t -> unit

  (** {2 Execution} *)

  (** Execute one statement. *)
  val exec : t -> string -> (result, error) Stdlib.result

  (** Execute a [;]-separated script.  By default the whole script is
      one batch (one view propagation per dependent view, one WAL
      fsync); [~batch:n] with [n >= 1] group-commits every [n]
      statements instead.  On [Error (Script _)], the statements before
      the failing one have committed. *)
  val exec_script : ?batch:int -> t -> string -> (result list, error) Stdlib.result

  (** Execute a query statement and return its rows; a non-query is
      refused before it runs.

      Reads the session's own state through the same read path a
      {!Snapshot} uses: inside {!with_batch} it sees the batch's
      writes, and a quarantined view heals into the live database.  A
      quiescent read answers exactly as a {!Snapshot.snapshot} taken
      now would. *)
  val query : t -> string -> (Relation.t, error) Stdlib.result

  (** Execute one already-parsed statement (the typed sibling of
      {!exec}, for tooling that iterates
      {!Rfview_sql.Parser.statements}). *)
  val exec_statement :
    t -> Rfview_sql.Ast.statement -> (result, error) Stdlib.result

  (** Bulk-load pre-built rows into a table (one batch commit);
      see {!Rfview_engine.Database.load_table}. *)
  val load_table : t -> table:string -> Rfview_relalg.Row.t array -> unit

  (** Run [f] inside a batch scope (see {!Rfview_engine.Database.with_batch}):
      deltas accumulate and propagate once per view at scope exit, with
      one group-commit fsync.  Exceptions from [f] roll the whole batch
      back and re-raise. *)
  val with_batch : t -> (unit -> 'a) -> 'a

  (** {2 Durability} *)

  val checkpoint : t -> (unit, error) Stdlib.result

  (** Checkpoint automatically once the WAL holds at least [n] records
      ([None] disables). *)
  val set_checkpoint_every : t -> int option -> unit

  (** Checkpoint automatically once the WAL file reaches [n] bytes
      ([None] disables) — the log-compaction trigger that keeps a
      replica's bootstrap replay suffix bounded. *)
  val set_checkpoint_bytes : t -> int option -> unit

  (** The session's log sequence number: the global count of WAL records
      since the database was created (0 when not durable).  This is the
      [tip] replicas measure their lag against. *)
  val lsn : t -> int

  (** {2 Replication}

      A durable session ships its WAL to per-replica feed files
      ({!shipper} side); a {!replica} consumes one feed and serves
      snapshot reads bounded in staleness.  See {!Rfview_replica} for
      the underlying machinery. *)

  (** The primary-side shipper fanning the session's log out to feeds. *)
  type shipper

  (** [Error (Runtime _)] when the session is not durable. *)
  val shipper : t -> (shipper, error) Stdlib.result

  (** Attach feed [path] under [name]: created (and seeded with the
      current checkpoint artifact) when the file does not exist,
      reopened — resuming where the previous shipper stopped — when it
      does. *)
  val attach_feed :
    shipper -> name:string -> path:string -> (unit, error) Stdlib.result

  (** Ship every unshipped record to every feed; the number of
      (record, feed) deliveries. *)
  val ship : shipper -> (int, error) Stdlib.result

  (** Checkpoint the primary and ship the artifact to the named feed —
      repairs a quarantined (diverged) replica. *)
  val resync_feed : shipper -> name:string -> (unit, error) Stdlib.result

  (** Highest LSN the named feed holds. *)
  val shipped : shipper -> name:string -> int

  val close_shipper : shipper -> unit

  (** A replica consuming one feed. *)
  type replica

  val open_replica :
    ?config:Config.t -> name:string -> feed:string -> unit -> replica

  (** Consume every complete feed entry not yet applied; the number of
      entries that advanced the state. *)
  val poll_replica : replica -> (int, error) Stdlib.result

  (** The LSN the replica's state corresponds to. *)
  val replica_applied_lsn : replica -> int

  (** Lag relative to a primary tip (see {!lsn}). *)
  val replica_lag : replica -> tip:int -> Staleness.lag

  val replica_status :
    replica -> [ `Syncing | `Ready | `Quarantined of int * string ]

  (** Snapshot read against the replica's applied state, refused with
      [Error (Stale _)] when it trails [tip] by more than [max_records]
      LSNs or [max_bytes] unconsumed feed bytes (omitted bounds don't
      constrain).  [Ok (rows, lsn)] tags the rows with the LSN they
      reflect. *)
  val read_replica :
    replica ->
    tip:int ->
    ?max_records:int ->
    ?max_bytes:int ->
    string ->
    (Relation.t * int, error) Stdlib.result

  (** Promote the replica's applied state into a durable primary at
      [dir]; the returned session continues the shipped history's LSN
      sequence.  [Error (Runtime _)] when the replica is quarantined. *)
  val promote : replica -> dir:string -> (t, error) Stdlib.result

  (** {2 Storage health, scrubbing, repair} *)

  (** {!Healthy}, or the disk-full degraded mode the session is in
      (always {!Healthy} for in-memory sessions). *)
  val health : t -> health

  (** Typed damage report over a directory's artifacts; see
      {!Rfview_engine.Scrub}. *)
  type scrub_report = Rfview_engine.Scrub.report

  (** What a repair did; see {!Rfview_replica.Repair}. *)
  type repair_outcome = Rfview_replica.Repair.outcome

  (** Verify every artifact of the session's directory — WAL frames,
      checkpoint records, stray temp files, and (with [?feeds]) feed
      entries and their LSN continuity.  Read-only.  [Error (Runtime _)]
      when the session is not durable. *)
  val scrub : ?feeds:string list -> t -> (scrub_report, error) Stdlib.result

  (** {!scrub} over a directory nobody has open. *)
  val scrub_dir : ?feeds:string list -> string -> scrub_report

  (** Offline repair of a directory nobody has open: sweep stale temp
      files, rebuild a damaged WAL from the longest verifiable record
      chain any of [feeds] carries, re-seed damaged feeds from the
      primary.  See {!Rfview_replica.Repair.repair}. *)
  val repair_dir : ?feeds:string list -> string -> repair_outcome

  (** {2 Introspection} *)

  (** Names of quarantined views, sorted. *)
  val stale_views : t -> string list

  val config : t -> Config.t
  val reconfigure : t -> Config.t -> unit

  (** Canonical whole-state fingerprint (every table and materialized
      view rendered sorted); equal states render equal strings. *)
  val fingerprint : t -> string

  (** Whether the named view is kept fresh by delta propagation
      (vs re-render); see
      {!Rfview_engine.Database.is_derived_maintained}. *)
  val is_derived_maintained : t -> string -> bool

  (** Certified scan-share classes over [table]'s sequence views; see
      {!Rfview_engine.Database.share_classes}. *)
  val share_classes : t -> table:string -> string list list

  (** Per matching materialized view, the derivability certificate of
      every candidate strategy; see
      {!Rfview_engine.Advisor.certificates}. *)
  val derivability_certificates :
    t -> Rfview_sql.Ast.query -> (string * Rfview_analysis.Cert.t list) list

  (** A binder catalog over the session's current schema, for tooling
      that binds queries without executing them. *)
  val binder_catalog : t -> Rfview_planner.Binder.catalog

  (** A physical catalog view over current contents, for cost/abstract
      analysis against live cardinalities. *)
  val catalog_view : t -> Rfview_planner.Physical.catalog_view

  (** Escape hatch to the raw engine handle.  Anything reached through
      it bypasses the façade's result-typed error contract, the MVCC
      snapshot discipline, {e and} the stability promise — new code
      should use the typed surface above. *)
  module Unsafe : sig
    val database : t -> Rfview_engine.Database.t
    [@@alert
      unsafe
        "Session.Unsafe.database bypasses the stable façade; use the \
         typed Session/Snapshot API instead"]
  end
end

(** {1 Snapshots}

    Immutable point-in-time read handles over a session's MVCC version
    store.  A snapshot pins one published commit point (pointer
    capture — no copy) and serves queries against exactly that state,
    from any domain, while the owning session keeps writing.  The
    engine retains a bounded window of recent versions (default 8);
    pinned versions survive eviction until closed. *)

module Snapshot : sig
  type t

  (** Pin the freshest published version. *)
  val snapshot : Session.t -> t

  (** Pin the historical version at exactly [lsn];
      [Error (Stale _)] when it has left the retained window (or never
      existed), reporting how far behind the tip it is. *)
  val at : Session.t -> lsn:int -> (t, Session.error) Stdlib.result

  (** The commit point this snapshot reflects. *)
  val lsn : t -> int

  (** Evaluate a query against the pinned state.  Read-only: non-query
      statements are refused with [Error (Runtime _)].  Safe to call
      from any domain, concurrently with the writer. *)
  val query : t -> string -> (Relation.t, Session.error) Stdlib.result

  (** Canonical fingerprint of the pinned state — bit-identical to
      {!Session.fingerprint} of the live database at the same LSN. *)
  val fingerprint : t -> string

  (** Release the pin.  Idempotent; querying a closed snapshot is an
      error. *)
  val close : t -> unit

  val released : t -> bool

  (** LSNs currently snapshottable via {!at}, newest first. *)
  val retained : Session.t -> int list

  (** How many snapshots are currently open on the session. *)
  val open_count : Session.t -> int

  (** Resize the retained-version window (min 1; default 8). *)
  val set_retain : Session.t -> int -> unit
end
