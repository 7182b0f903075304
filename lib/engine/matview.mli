(** Materialized sequence views: recognition, state, incremental
    maintenance (paper §2.3) and rendering.

    A view qualifies as a {e sequence view} when its definition is

    {v SELECT col..., agg(value_col) OVER
         ([PARTITION BY pcols] ORDER BY order_col [ROWS frame]) [AS a]
       FROM base_table v}

    with simple column references, one ordering column and a cumulative
    or sliding ROWS frame.  The engine then keeps a per-partition core
    representation (raw data + complete sequence) and maintains it
    incrementally from each consolidated base-table delta (a batch, or
    one statement as a batch of one); other views get full refreshes.

    The value column must be numeric and NULL-free for the incremental
    path; otherwise {!init_state} raises and the engine falls back. *)

open Rfview_relalg
module Ast := Rfview_sql.Ast
module Core := Rfview_core

type seq_spec = {
  source : string;              (** base table *)
  partition : string list;      (** partition column names *)
  order_col : string;
  value_col : string;
  agg : Aggregate.kind;
  frame : Core.Frame.t;
  items : (string option * string) list;
      (** output layout: (source column, output name); [None] marks the
          window column *)
}

(** Recognize a sequence-view definition. *)
val recognize : Ast.query -> seq_spec option

(** Map a SQL aggregate to its carrier core aggregate (COUNT and AVG ride
    on the SUM sequence). *)
val core_agg : Aggregate.kind -> Core.Agg.t

type partition_state = {
  pkey : Value.t list;
  mutable base_rows : Row.t array;  (** base rows of the partition, ordered *)
  mutable raw : Core.Seqdata.raw;
  mutable seq : Core.Seqdata.t;
}

type state = {
  spec : seq_spec;
  base_schema : Schema.t;
  out_schema : Schema.t;
  pcols : int list;
  ocol : int;
  vcol : int;
  mutable parts : partition_state list;  (** sorted by partition key *)
}

exception Not_maintainable of string

(** Build the maintenance state from the base table's current contents.
    @raise Not_maintainable per the restrictions above. *)
val init_state : seq_spec -> base:Relation.t -> out_schema:Schema.t -> state

(** Copy of the mutable layers (for undo-log snapshots): the state and
    partition records.  No array a state holds is written in place —
    maintenance installs fresh row, raw-value and sequence arrays — so
    the arrays are shared. *)
val copy_state : state -> state

(** Render the view contents from the state.  The engine calls it on the
    read path, over a frozen {!copy_state}; it has no fault site. *)
val render : state -> Relation.t

(** Number of {!render} calls so far, process-wide (domain-safe). *)
val render_count : unit -> int

(** Incremental maintenance (§2.3 over a consolidated delta): apply one
    table's net change — a batch, or a single statement as a batch of
    one.  Per partition, each deleted or updated row is found by binary
    search on the order column; the merge is described as runs of kept
    rows, so the new row, raw-value and sequence arrays are built by one
    memory copy per run, and only inserted and updated rows read the
    value column.  Each contiguous run of dirty sequence positions is
    recomputed with a single pipelined span scan; a partition at least
    half-dirty is recomputed outright.  An update of the ordering or
    partition column is handled as delete + insert; an in-place update
    keeps the row's rank among equal order values, and inserts land
    after equal order values, in arrival order.
    @raise Not_maintainable when a row cannot be located or a value is
    unusable; the engine then falls back to a full refresh. *)
val apply_batch :
  state ->
  inserts:Row.t list ->
  deletes:Row.t list ->
  updates:(Row.t * Row.t) list ->
  unit

(** Single-row {!apply_batch} calls, kept only for the benchmark's
    maintenance probe; the engine does not use them. *)

val apply_insert : state -> Row.t -> unit
val apply_delete : state -> Row.t -> unit
val apply_update : state -> old_row:Row.t -> new_row:Row.t -> unit

(** Shared-scan maintenance.  Every sequence view of one scan-share
    class (same base table, partition columns and order column —
    certified statically by [Rfview_analysis.Share] and re-checked at
    runtime) keeps bit-identical ordered [base_rows] per partition, so
    the structural half of {!apply_batch} — delta grouping, claim
    matching, the merge runs and the merged row arrays — is
    view-independent.  {!shared_plan} computes it once against a
    representative (the head of the class); {!apply_shared} replays it
    into each member, leaving per view only value re-extraction and the
    dirty-span sequence recompute.  Results are bit-identical to running
    {!apply_batch} per view (the engine's differential validator
    asserts this whenever verification is on). *)

type shared_plan

(** Compute the class's shared structural merge.
    @raise Invalid_argument on an empty class or when the states
    disagree on the (base, partition, order) scan key;
    @raise Not_maintainable as {!apply_batch} would for every member
    (an edited row missing from the shared base structure). *)
val shared_plan :
  state list ->
  inserts:Row.t list ->
  deletes:Row.t list ->
  updates:(Row.t * Row.t) list ->
  shared_plan

(** Replay the shared merge into one member state.  Members share the
    merged row arrays, which no state writes into.
    @raise Not_maintainable when this member's partitions diverge
    structurally from the plan (broken class invariant); the engine then
    falls back to a full refresh of that member only. *)
val apply_shared : shared_plan -> state -> unit

(** Derived views (generalized IVM): immutable maintenance state for
    views beyond the sequence shape — the delta rules of
    {!Rfview_planner.Deriv} plus their source tables.  The engine
    installs one per view whose derivation succeeded under a valid
    {!Rfview_analysis.Ivmcert} certificate and replays it for each
    maintained delta (a batch, or a statement as a batch of one). *)
module Derived : sig
  module Deriv := Rfview_planner.Deriv

  type t

  val make : Deriv.t -> t

  (** Source base tables, lowercased. *)
  val sources : t -> string list

  val shape_name : t -> string
  val has_window : t -> bool

  (** Apply one consolidated delta to the view's contents,
      returning the new contents.
      @raise Deriv.Divergence when the delta disagrees with the
      materialized rows; the engine then falls back to full refresh. *)
  val apply_batch : t -> env:Deriv.env -> contents:Relation.t -> Relation.t
end
