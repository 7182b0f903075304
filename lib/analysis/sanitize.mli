(** The differential sanitizer: executes every sub-plan of a query and
    asserts the concrete intermediate relation lies inside the abstract
    interpreter's state for that node ({!Domain.check_relation}).  Any
    abstract/concrete disagreement means the analysis is unsound (or the
    executor broken) and is a hard failure.

    Like the plan verifier, the sanitizer is installed through
    {!Rfview_planner.Hooks} ([Hooks.sanitizer]) because the planner
    cannot depend on this library; the engine's read path invokes the
    hook on the final optimized plan of every query the writer plans
    (statements, view recomputation, derived-maintenance sub-plans —
    snapshot reads on other domains skip it), so enabling the
    sanitizer covers normal runs, rewrites and the chaos harness
    alike.  It is a test-time tool: every sub-plan is planned
    and executed separately, roughly squaring the cost of a query. *)

module Logical := Rfview_planner.Logical
module Physical := Rfview_planner.Physical

(** Raised on any disagreement; the message names the node path, the
    violated fact, and the abstract state. *)
exception Disagreement of string

(** Install the sanitizer into [Hooks.sanitizer] and turn it on. *)
val enable : unit -> unit

val disable : unit -> unit
val enabled : unit -> bool

(** Number of (sub-plan, relation) checks performed since [enable] —
    lets tests assert the sanitizer actually ran. *)
val checks_run : unit -> int

(** The sanitizer itself (also usable directly, without installing):
    checks every sub-plan of [plan] against [catalog].
    @raise Disagreement on any abstract/concrete mismatch. *)
val check : catalog:Physical.catalog_view -> Logical.t -> unit
