(** The replica engine: consumes one {!Feed}, serves stale-bounded
    snapshot reads, and can be promoted on primary failure.

    Lifecycle: {!attach} (empty, LSN 0) → {!poll} repeatedly — the
    first checkpoint artifact bootstraps the state, records advance it
    one LSN at a time.  Every read is tagged with the LSN it reflects;
    a read whose staleness bound the replica cannot meet returns
    {!constructor-Stale} instead of silently serving old data.

    Divergence (a shipped fingerprint the applied state fails to
    reproduce), feed corruption, a feed gap, or an apply failure all
    {e quarantine} the replica: reads refuse, records are skipped, and
    the next checkpoint artifact (see {!Ship.resync}) re-bootstraps it.

    Fault-injection sites: [replica.apply], [replica.bootstrap] — both
    fire before state changes, so an interrupted {!poll} resumes
    exactly where it stopped. *)

open Rfview_engine

exception Replica_error of string

type status =
  | Syncing  (** attached, nothing applied yet: the state is LSN 0 *)
  | Ready
  | Quarantined of { at_lsn : int; reason : string }

type read_error =
  | Stale of Staleness.violation
      (** the staleness bound was not met; nothing was evaluated *)
  | Unavailable of string  (** quarantined — the state is not trusted *)

type t

val attach : ?config:Database.config -> name:string -> feed:string -> unit -> t

(** Apply every complete feed entry not yet consumed; returns how many
    advanced the state.  Safe to call at any time (an in-flight append
    shows up as a torn tail and is retried on the next poll).
    @raise Fault.Injected when a [replica.*] site is armed. *)
val poll : t -> int

val name : t -> string

(** The replica's in-memory database — direct read access for callers
    that manage staleness themselves (the bench does). *)
val database : t -> Database.t

(** The LSN the in-memory state corresponds to. *)
val applied_lsn : t -> int

val applied_epoch : t -> int
val status : t -> status

(** Byte offset of the next feed entry to consume. *)
val consumed : t -> int

(** Lag relative to a primary tip LSN (the caller supplies it — the
    replica only knows its feed). *)
val lag : t -> tip:int -> Staleness.lag

(** Snapshot read: evaluate [sql] against the applied state iff the
    staleness bound holds ([max_records] in LSNs behind [tip],
    [max_bytes] in unconsumed feed bytes; omitted bounds don't
    constrain).  Returns the relation tagged with the applied LSN.
    Query errors (parse/bind/runtime) raise as {!Database.query} does. *)
val read :
  t ->
  tip:int ->
  ?max_records:int ->
  ?max_bytes:int ->
  string ->
  (Rfview_relalg.Relation.t * int, read_error) result

(** Promote the applied state into a durable primary at [dir] (see
    {!Database.make_durable}); returns the now-durable database.  The
    unshipped tail of the failed primary is lost — at most that.
    @raise Replica_error when quarantined. *)
val promote : t -> dir:string -> Database.t
