(* The statement-level undo log.

   Every mutation the engine performs while executing one statement is
   preceded by logging a restore action that reinstates the prior state
   (a captured rows array or view contents, each with the indexes built
   over it, a deep-copied maintenance state).  On success the log is dropped; on any
   exception it is replayed newest-first, making [Database.exec]
   all-or-nothing.

   Restore actions must be absolute snapshots, not deltas: replaying a
   prefix of them (or the same one twice, when a site was logged before
   two successive mutations) must still land on the pre-statement
   state. *)

type t = { mutable actions : (unit -> unit) list }

let create () = { actions = [] }

(* [log t restore] records [restore] to run on rollback; call *before*
   the mutation it protects. *)
let log t restore = t.actions <- restore :: t.actions

let commit t = t.actions <- []

let rollback t =
  List.iter (fun restore -> restore ()) t.actions;
  t.actions <- []

let depth t = List.length t.actions

(* Fold a finished inner scope into an enclosing one: the child's
   restore actions (newest-first) are prepended so a later rollback of
   the parent replays them before anything the parent logged earlier. *)
let absorb parent child =
  parent.actions <- child.actions @ parent.actions;
  child.actions <- []
