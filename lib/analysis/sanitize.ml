(* Differential sanitizer — see the .mli.  For every node of the final
   logical plan: plan + execute the sub-tree rooted there against a
   snapshot of the catalog, abstract-interpret the same sub-tree against
   the same snapshot, and check concrete against abstract. *)

open Rfview_relalg
module Logical = Rfview_planner.Logical
module Physical = Rfview_planner.Physical
module Hooks = Rfview_planner.Hooks

exception Disagreement of string

let flag = ref false
let enabled () = !flag

let counter = ref 0
let checks_run () = !counter

(* Scanning a quarantined materialized view heals it, which re-enters
   the engine's read path (and hence this hook) to recompute the view;
   the guard keeps the sanitizer from recursing into its own
   executions. *)
let in_progress = ref false

let children (p : Logical.t) : Logical.t list =
  match p with
  | Logical.Scan _ -> []
  | Logical.Filter { input; _ }
  | Logical.Project { input; _ }
  | Logical.Aggregate { input; _ }
  | Logical.Window_op { input; _ }
  | Logical.Number { input; _ }
  | Logical.Sort { input; _ }
  | Logical.Limit { input; _ }
  | Logical.Alias { input; _ } -> [ input ]
  | Logical.Distinct input -> [ input ]
  | Logical.Join { left; right; _ } | Logical.Union_all { left; right } ->
    [ left; right ]

(* A catalog wrapper that reads each relation at most once, so the
   abstract interpreter and every sub-plan execution see identical data
   even if the backing store heals or refreshes in between. *)
let snapshot (catalog : Physical.catalog_view) =
  let cache : (string, Relation.t) Hashtbl.t = Hashtbl.create 8 in
  let table_contents name =
    match Hashtbl.find_opt cache name with
    | Some r -> r
    | None ->
      let r = catalog.Physical.table_contents name in
      Hashtbl.replace cache name r;
      r
  in
  ( { Physical.table_contents; table_index = catalog.Physical.table_index },
    fun name -> (try Some (table_contents name) with _ -> None) )

let check ~catalog plan =
  let snapcat, env = snapshot catalog in
  let rec walk path (p : Logical.t) =
    let here = path @ [ Check.label p ] in
    List.iter (walk here) (children p);
    let abs = Absint.analyze ~env p in
    let concrete = Physical.execute snapcat (Physical.plan snapcat p) in
    incr counter;
    match Domain.check_relation abs concrete with
    | Ok () -> ()
    | Error msg ->
      raise
        (Disagreement
           (Printf.sprintf
              "abstract/concrete disagreement at %s: %s\n  abstract state: %s"
              (String.concat "/" here) msg (Domain.rel_to_string abs)))
  in
  walk [] plan

let installed = ref false

let enable () =
  flag := true;
  if not !installed then begin
    installed := true;
    Hooks.sanitizer :=
      fun ~catalog plan ->
        if !flag && not !in_progress then begin
          in_progress := true;
          Fun.protect
            ~finally:(fun () -> in_progress := false)
            (fun () -> check ~catalog plan)
        end
  end

let disable () = flag := false
