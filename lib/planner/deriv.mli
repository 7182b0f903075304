(** Algebraic delta-plan derivation: generalized incremental view
    maintenance beyond the paper's §2.3 sequence views.

    {!derive} statically analyses a view's logical plan and either
    produces executable per-operator delta rules or a structured list of
    rejection reasons:

    - select/project/UNION ALL commute with deltas (linear);
    - inner joins are bilinear — since base tables hold the {e post}
      state when maintenance runs, the rule used is
      [delta(A |x| B) = dA |x| B_new + A_new |x| dB - dA |x| dB];
    - GROUP BY localizes to the affected-key set: touched groups are
      removed by key and recomputed from the restricted post-state
      child, in child scan order, so float aggregates are bit-identical
      to a full refresh;
    - reporting-function (window) nodes localize to their PARTITION BY
      key and re-extend only the affected partitions.

    DISTINCT, LIMIT, ORDER BY, row numbering, outer joins and
    non-localizable grouping/window shapes are rejected; the engine
    keeps the full-refresh path for such views.  Each rule's
    precondition has a mirror obligation in [Rfview_analysis.Ivmcert]
    (the machine-checkable incrementality certificate); the engine only
    installs a derived plan whose certificate is valid, and the
    cert-iff-derive matrix in [test/test_ivm.ml] keeps the two walks in
    lockstep. *)

open Rfview_relalg

type reject_reason =
  | Nonlinear_op of string     (** operator with no delta rule (RF301) *)
  | Outer_join                 (** padding breaks bilinearity (RF302) *)
  | Group_nonlocal of string   (** GROUP BY not localizable (RF303) *)
  | Window_nonlocal of string  (** window not partition-local (RF304) *)

type reject = {
  rj_reason : reject_reason;
  rj_node : string;  (** offending operator, for reporting *)
}

val reject_to_string : reject -> string

(** A derived maintenance plan: delta rules plus the wrap chain back to
    the view's output rows. *)
type t

(** Base tables the plan reads (lowercased, deduplicated). *)
val sources : t -> string list

(** Does the plan contain a reporting-function node?  (The engine skips
    derivation under the self-join window mode: the rewritten refresh
    path and the native recompute could differ bit-wise.) *)
val has_window : t -> bool

(** Human-readable shape ("linear ...", "group-by regrouping ...") for
    [rfview analyze] reports. *)
val shape_name : t -> string

(** Statically derive the delta plan, or the reasons there is none. *)
val derive : Logical.t -> (t, reject list) result

(** {1 Evaluation}

    The engine supplies the consolidated delta and post-state sub-plan
    evaluation; the deriver stays free of engine dependencies. *)

type env = {
  delta_of : string -> (Row.t * int) list;
      (** signed consolidated delta of a base table: inserts [+1],
          deletes [-1], updates as delete(old) + insert(new) *)
  eval : Logical.t -> Relation.t;
      (** post-state evaluation of a sub-plan through the engine *)
  window_strategy : Window.strategy;
}

(** How the view's contents change under the delta. *)
type change = {
  ch_removes : Row.t list;  (** exact rows to remove (first match) *)
  ch_rekeys : (Expr.t list * Row.t list) option;
      (** (key exprs over the view schema, affected key tuples): drop
          every contents row whose key tuple is in the set *)
  ch_adds : Row.t list;  (** rows to append *)
}

val apply : env -> t -> change

(** Raised by {!splice} when an exact removal finds no matching row —
    the derived delta disagrees with the materialized contents.  The
    engine falls back to a full refresh. *)
exception Divergence of string

(** Apply a change to the view's contents: removals (exact, then
    keyed), then appends. *)
val splice : Relation.t -> change -> Relation.t
