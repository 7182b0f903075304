(* The replica engine.

   A replica consumes one feed: it bootstraps from the latest checkpoint
   artifact, applies shipped records through the engine's regular replay
   path (view maintenance and quarantine behave exactly as on the
   primary), and tracks the LSN its in-memory state corresponds to.
   Reads are snapshot reads tagged with that LSN, refused with a typed
   [Stale] error when the replica lags past the caller's bound.

   Divergence safety: whenever a shipped entry carries the primary's
   fingerprint, the replica recomputes its own after applying; a
   mismatch quarantines the replica — reads refuse, records are skipped
   — until a fresh checkpoint artifact (shipped by [Ship.resync])
   appears in the feed, from which it re-bootstraps.  Feed corruption
   and apply failures quarantine the same way, so a replica never
   serves a state it cannot vouch for.

   Fault-injection sites: [replica.apply] (before a record is applied)
   and [replica.bootstrap] (before a checkpoint artifact is restored).
   Both fire before any state changes and record application is atomic,
   so a poll interrupted by an injected fault resumes exactly where it
   stopped. *)

open Rfview_engine

exception Replica_error of string

let replica_error fmt = Format.kasprintf (fun s -> raise (Replica_error s)) fmt

let site_apply = Fault.define "replica.apply"
let site_bootstrap = Fault.define "replica.bootstrap"

type status =
  | Syncing  (** attached, nothing applied yet: the state is LSN 0 *)
  | Ready
  | Quarantined of { at_lsn : int; reason : string }

type read_error =
  | Stale of Staleness.violation
  | Unavailable of string

type t = {
  name : string;
  feed : string;
  config : Database.config option;
  mutable db : Database.t;
  mutable applied_lsn : int;
  mutable applied_epoch : int;
  mutable offset : int; (* resume point in the feed *)
  mutable status : status;
}

let attach ?config ~name ~feed () =
  {
    name;
    feed;
    config;
    db = Database.create ?config ();
    applied_lsn = 0;
    applied_epoch = 0;
    offset = 0;
    status = Syncing;
  }

let name r = r.name
let database r = r.db
let applied_lsn r = r.applied_lsn
let applied_epoch r = r.applied_epoch
let status r = r.status
let consumed r = r.offset

let quarantine r ~at reason = r.status <- Quarantined { at_lsn = at; reason }

let fp_of db = Wal.crc32 (Database.fingerprint db)

(* Compare against the primary's shipped fingerprint, when present. *)
let check_fp r ~lsn = function
  | None -> ()
  | Some fp ->
    if fp <> fp_of r.db then
      quarantine r ~at:lsn "state fingerprint diverges from the primary"

let apply_item r (item : Feed.item) : bool =
  match item with
  | Feed.Damage { offset } ->
    quarantine r ~at:r.applied_lsn
      (Printf.sprintf "feed entry at byte %d is corrupt" offset);
    false
  | Feed.Entry (Feed.Artifact { lsn; epoch; fp; data }) ->
    let want =
      match r.status with
      | Quarantined _ | Syncing -> true
      | Ready -> lsn > r.applied_lsn
    in
    if not want then false
    else begin
      Fault.hit site_bootstrap;
      match
        let snap = Checkpoint.read_bytes ~name:(r.feed ^ " artifact") data in
        Database.restore_snapshot ?config:r.config snap
      with
      | db, _quarantined_views ->
        r.db <- db;
        r.applied_lsn <- lsn;
        r.applied_epoch <- epoch;
        r.status <- Ready;
        check_fp r ~lsn fp;
        true
      | exception Checkpoint.Corrupt m ->
        quarantine r ~at:r.applied_lsn ("artifact: " ^ m);
        false
      | exception Database.Recovery_error m ->
        quarantine r ~at:r.applied_lsn ("artifact: " ^ m);
        false
    end
  | Feed.Entry (Feed.Record { lsn; epoch; fp; record }) ->
    (match r.status with
     | Quarantined _ -> false (* wait for a fresh artifact *)
     | Syncing | Ready ->
       if lsn <= r.applied_lsn then false (* duplicate delivery *)
       else if lsn > r.applied_lsn + 1 then begin
         quarantine r ~at:r.applied_lsn
           (Printf.sprintf "feed gap: record lsn %d after applied %d" lsn
              r.applied_lsn);
         false
       end
       else begin
         Fault.hit site_apply;
         match Database.apply_record r.db record with
         | () ->
           r.applied_lsn <- lsn;
           r.applied_epoch <- epoch;
           r.status <- Ready;
           check_fp r ~lsn fp;
           true
         | exception (Fault.Injected _ as e) -> raise e
         | exception e when Database.recoverable_exn e ->
           quarantine r ~at:r.applied_lsn ("apply: " ^ Printexc.to_string e);
           false
       end)

let poll r : int =
  let items, _torn = Feed.read_from r.feed ~offset:r.offset in
  let applied = ref 0 in
  List.iter
    (fun (item, finish) ->
      if apply_item r item then incr applied;
      r.offset <- finish)
    items;
  !applied

(* ---- Stale-bounded snapshot reads ---- *)

let lag r ~tip =
  Staleness.lag ~applied_lsn:r.applied_lsn ~tip_lsn:tip
    ~bytes:(Feed.size r.feed - r.offset)

let read r ~tip ?max_records ?max_bytes sql :
    (Rfview_relalg.Relation.t * int, read_error) result =
  match r.status with
  | Quarantined { reason; _ } -> Error (Unavailable ("quarantined: " ^ reason))
  | Syncing | Ready ->
    (match
       Staleness.admit ?max_records ?max_bytes ~applied_lsn:r.applied_lsn
         ~tip_lsn:tip
         ~bytes:(Feed.size r.feed - r.offset)
         ()
     with
     | Error v -> Error (Stale v)
     | Ok _lag -> Ok (Database.query r.db sql, r.applied_lsn))

(* ---- Failover ---- *)

(* Promote the replica's applied state into a durable primary at [dir].
   Everything up to [applied_lsn] survives; whatever the old primary
   committed but never shipped is lost — the documented failover
   contract.  The replica object is spent after this: the database now
   belongs to the new primary. *)
let promote r ~dir =
  (match r.status with
   | Quarantined { reason; _ } ->
     replica_error "cannot promote %s: quarantined (%s)" r.name reason
   | Syncing | Ready -> ());
  Database.make_durable r.db ~dir ~lsn:r.applied_lsn;
  r.db
