(* The rfview benchmark: three workloads measured end to end with tracing
   off, and a traced replay that breaks each one down by layer.  See
   README.md for why each workload exists and what each metric should
   move.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --rfview PATH --out DIR [--source-digest HEX]

   The last line of standard output is the result object; the line
   before it is the full report (stamps, workload-specific metrics,
   per-layer breakdown). *)

module Session = Rfview.Session
module Snapshot = Rfview.Snapshot
module Relation = Rfview_relalg.Relation
module Row = Rfview_relalg.Row
module Value = Rfview_relalg.Value
module Wire = Rfview_server.Wire
module Matview = Rfview_engine.Matview
module Wal = Rfview_engine.Wal
module Parser = Rfview_sql.Parser
module Ast = Rfview_sql.Ast
module P = Rfview_planner
module Seq = Model.Seq
module Sales = Model.Sales

let now = Stats.now
let ms x = 1000. *. x
let us x = 1e6 *. x

exception Bench_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt

let get what = function
  | Ok x -> x
  | Error e -> fail "%s: %s" what (Session.describe_error e)

let exec s sql = ignore (get sql (Session.exec s sql))

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  rfview : string;
  out : string;
  source_digest : string;
}

(* ---- the run's tally ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable notes : string list;
  mutable e2e : (string * float * string) list;  (** name, value, unit *)
  mutable layers : (string * float * string) list;
  mutable detail : (string * string) list;  (** name, rendered JSON *)
}

let tally =
  { attempted = 0; failed = 0; wrong = 0; notes = []; e2e = []; layers = []; detail = [] }

let note msg = if List.length tally.notes < 8 then tally.notes <- msg :: tally.notes

(* A refused response: the operation failed. *)
let refused msg =
  tally.failed <- tally.failed + 1;
  note msg

(* A wrong answer: the operation failed and the run is incorrect. *)
let wrong msg =
  tally.wrong <- tally.wrong + 1;
  refused msg

let attempt () = tally.attempted <- tally.attempted + 1
let e2e name v unit = tally.e2e <- tally.e2e @ [ (name, v, unit) ]
let layer name v unit = tally.layers <- tally.layers @ [ (name, v, unit) ]
let detail name json = tally.detail <- tally.detail @ [ (name, json) ]
let jfloat v = if Float.is_nan v then "null" else Printf.sprintf "%.17g" v

(* A latency summary in the report, with its sample count and the
   percentile behind its tail. *)
let detail_summary name (m : Stats.summary) =
  detail name
    (Wire.jobj
       [
         ("p50_ms", jfloat (ms m.p50));
         ("tail_ms", jfloat (ms m.tail));
         ("tail_percentile", Wire.jint m.pct);
         ("ops_per_s", jfloat m.ops_per_s);
         ("window_ops", Wire.jint m.window);
         ("windows", Wire.jint m.windows);
         ("samples", Wire.jint m.count);
       ])

(* End-to-end metrics shared by every workload (names in BENCHMARK.json):
   the main operation's windowed summary, the auxiliary class's median
   and the peak RSS of the process holding the database. *)
let report_e2e ~setup ~(main : Stats.summary) ~aux ~rss =
  e2e "setup_s" (Stats.median setup) "s";
  e2e "p50_ms" (ms main.p50) "ms";
  e2e "tail_ms" (ms main.tail) "ms";
  e2e "aux_p50_ms" (ms (Stats.median (Stats.lats aux))) "ms";
  e2e "ops_per_s" main.ops_per_s "1/s";
  e2e "rows_per_s" main.rows_per_s "1/s";
  e2e "peak_rss_mb" rss "MB";
  detail "setup_s_samples" (Wire.jlist (List.map jfloat setup));
  detail "aux_samples" (Wire.jint (List.length aux))

let self_peak_rss_mb () = Served.peak_rss_mb (Unix.getpid ())

(* ---- bag comparison ---- *)

let sorted_rows rel =
  let a = Array.copy (Relation.rows rel) in
  Array.sort Row.compare a;
  a

let same_bag a b =
  Array.length a = Array.length b && Array.for_all2 Row.equal a b

let check_bag what got expected =
  attempt ();
  if not (same_bag (sorted_rows got) expected) then
    wrong (Printf.sprintf "%s: %d rows differ from recomputation" what
             (Relation.cardinality got))

(* Data lines of a rendered table (the first [|] line is the header). *)
let table_lines text =
  match List.filter (fun l -> l <> "" && l.[0] = '|') (String.split_on_char '\n' text) with
  | [] -> ("", [])
  | header :: rows -> (header, List.sort compare rows)

let cells line =
  String.split_on_char '|' line |> List.map String.trim
  |> List.filter (fun c -> c <> "")

(* ---- building the databases ---- *)

let build_seq s rows =
  exec s "CREATE TABLE seq (pos INT, val FLOAT)";
  exec s "CREATE INDEX seq_pos ON seq (pos)";
  Session.load_table s ~table:"seq" rows;
  List.iter
    (fun (name, fn) ->
      exec s (Printf.sprintf "CREATE MATERIALIZED VIEW %s AS %s" name (Seq.definition fn)))
    Seq.views;
  exec s "CREATE INDEX v_cum_pos ON v_cum (pos)"

let sales_views ~ingest =
  Sales.read_views @ if ingest then Sales.share_views @ [ Sales.derived_view ] else []

let build_sales s ~ingest rows =
  exec s "CREATE TABLE sales (region TEXT, day INT, amount FLOAT)";
  exec s "CREATE TABLE regions (region TEXT, x INT)";
  Session.load_table s ~table:"regions"
    (Array.init Sales.regions (fun k -> [| Value.String (Sales.region k); Value.Int 0 |]));
  Session.load_table s ~table:"sales" rows;
  List.iter
    (fun (name, def) ->
      exec s (Printf.sprintf "CREATE MATERIALIZED VIEW %s AS %s" name def))
    (sales_views ~ingest);
  List.iter
    (fun (name, _) -> exec s (Printf.sprintf "CREATE INDEX %s_day ON %s (day)" name name))
    Sales.read_views

(* ingest-mixed measures shared and derived maintenance only if the
   engine really takes those paths on this schema. *)
let check_ingest_paths s =
  let share = Session.share_classes s ~table:"sales" in
  let members = List.map fst Sales.(read_views @ share_views) |> List.sort compare in
  if not (List.exists (fun cls -> List.sort compare cls = members) share) then
    fail "ingest-mixed: the four sequence views do not form one scan-share class";
  if not (Session.is_derived_maintained s (fst Sales.derived_view)) then
    fail "ingest-mixed: %s is not maintained by derived IVM" (fst Sales.derived_view)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* ---- traced replay: the layers' public functions, one span each ---- *)

(* Per-request counters the spans cannot carry. *)
let counters : (string, float list) Hashtbl.t = Hashtbl.create 16

let count name v =
  Hashtbl.replace counters name
    (v :: Option.value ~default:[] (Hashtbl.find_opt counters name))

let counted name = Option.value ~default:[] (Hashtbl.find_opt counters name)

let query_of sql =
  match Parser.statement sql with
  | Ast.St_query q -> q
  | _ -> fail "not a query: %s" sql

(* The server's answer to a [query] request: the result rendered as a
   text table inside a JSON line.  The correctness gate compares wire
   answers with this byte for byte, so it must follow the server's
   encoding. *)
let encode_answer ~lsn rel text =
  Wire.ok_fields
    [
      ("lsn", Wire.jint lsn);
      ("rows", Wire.jint (Relation.cardinality rel));
      ("data", Wire.jstr text);
    ]

(* Parse → bind → optimize → plan → execute → render → wire encode, as
   the server does for a [query] request against session [s]'s tip. *)
let traced_read s ~lsn sql =
  let q = Span.record "sql.parse" (fun () -> query_of sql) in
  let bcat = Session.binder_catalog s and pcat = Session.catalog_view s in
  let logical = Span.record "planner.bind" (fun () -> P.Binder.bind_query bcat q) in
  let logical = Span.record "planner.optimize" (fun () -> P.Optimize.optimize logical) in
  let plan = Span.record "planner.plan" (fun () -> P.Physical.plan pcat logical) in
  let rel = Span.record "relalg.execute" (fun () -> P.Physical.execute pcat plan) in
  let text =
    Span.record "relalg.render" (fun () -> Relation.render ~max_rows:max_int rel)
  in
  let line = Span.record "wire.encode" (fun () -> encode_answer ~lsn rel text) in
  count "relalg.rows_out" (float (Relation.cardinality rel));
  count "relalg.render_bytes" (float (String.length text));
  count "wire.response_bytes" (float (String.length line));
  line

(* Parse every statement, then execute them as one commit (a batch when
   there are several), counting words allocated by the engine. *)
let traced_write s stmts =
  let parsed =
    List.map (fun (st : Model.stmt) -> Span.record "sql.parse" (fun () -> Parser.statement st.sql)) stmts
  in
  let a0 = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
  Span.record "engine.exec" (fun () ->
      let run () =
        List.iter
          (fun st ->
            match Session.exec_statement s st with
            | Ok _ -> ()
            | Error e -> fail "traced write: %s" (Session.describe_error e))
          parsed
      in
      match parsed with [ _ ] -> run () | _ -> Session.with_batch s run);
  let st = Gc.quick_stat () in
  count "engine.alloc_words_per_commit" (Gc.minor_words () +. st.Gc.major_words -. a0)

(* The log record a durable session writes for one commit of [stmts]. *)
let wal_record ~table stmts =
  let one (c : Model.change) =
    match (c.old_row, c.new_row) with
    | None, Some r -> Wal.Insert { table; rows = [| r |] }
    | Some r, None -> Wal.Delete { table; rows = [| r |] }
    | Some o, Some n -> Wal.Update { table; pairs = [| (o, n) |] }
    | None, None -> assert false
  in
  let recs = List.concat_map (fun (st : Model.stmt) -> List.map one st.changes) stmts in
  match (stmts, recs) with [ _ ], [ r ] -> r | _ -> Wal.Batch recs

let rec record_rows = function
  | Wal.Insert { rows; _ } | Wal.Delete { rows; _ } | Wal.Load { rows; _ } -> Array.length rows
  | Wal.Update { pairs; _ } -> Array.length pairs
  | Wal.Batch rs -> List.fold_left (fun a r -> a + record_rows r) 0 rs
  | Wal.Begin _ | Wal.Statement _ -> 0

(* Append and sync each record into a fresh log, one span each. *)
let wal_probe ~path records =
  let w = Wal.create path ~epoch:1 in
  List.iter
    (fun r ->
      Span.request "wal" (fun () ->
          Span.record "wal.append" (fun () -> Wal.append w r);
          Span.record "wal.sync" (fun () -> Wal.sync w));
      count "wal.bytes_per_commit" (float (String.length (Wal.frame r)));
      count "wal.rows" (float (record_rows r)))
    records;
  Wal.close w

(* Replay the traced commits' row changes into maintenance states the
   benchmark owns: per row (§2.3 rules) with a render after each commit,
   per batch per view, and per batch shared across the class. *)
let matview_probe s ~base ~views ~key commits ~batch =
  let base_rel = get base (Session.query s ("SELECT * FROM " ^ base)) in
  let init () =
    List.map
      (fun (_, def) ->
        let q = query_of def in
        let spec = Option.get (Matview.recognize q) in
        let out_schema = Relation.schema (get def (Session.query s def)) in
        Matview.init_state spec ~base:base_rel ~out_schema)
      views
  in
  let states = init () in
  let copies () = List.map Matview.copy_state states in
  let per_row = copies () in
  List.iter
    (fun (stmts : Model.stmt list) ->
      Span.request "matview" (fun () ->
          List.iter
            (fun (st : Model.stmt) ->
              List.iter
                (fun (c : Model.change) ->
                  List.iter
                    (fun state ->
                      Span.record "matview.apply" (fun () ->
                          match (c.old_row, c.new_row) with
                          | None, Some r -> Matview.apply_insert state r
                          | Some r, None -> Matview.apply_delete state r
                          | Some o, Some n -> Matview.apply_update state ~old_row:o ~new_row:n
                          | None, None -> ()))
                    per_row)
                st.changes)
            stmts;
          ignore (Span.record "matview.render" (fun () -> Matview.render (List.hd per_row)))))
    commits;
  let batches =
    let rec group acc cur n = function
      | [] -> List.rev (if cur = [] then acc else List.concat (List.rev cur) :: acc)
      | c :: rest ->
        if n + 1 = batch then group (List.concat (List.rev (c :: cur)) :: acc) [] 0 rest
        else group acc (c :: cur) (n + 1) rest
    in
    group [] [] 0 commits
    |> List.map (fun stmts ->
           Model.consolidate ~key (List.concat_map (fun (st : Model.stmt) -> st.changes) stmts))
  in
  let batched = copies () and shared = copies () in
  List.iter
    (fun (inserts, deletes, updates) ->
      Span.request "matview" (fun () ->
          Span.record "matview.apply_batch" (fun () ->
              List.iter (fun st -> Matview.apply_batch st ~inserts ~deletes ~updates) batched));
      Span.request "matview" (fun () ->
          Span.record "matview.apply_shared" (fun () ->
              let plan = Matview.shared_plan shared ~inserts ~deletes ~updates in
              List.iter (Matview.apply_shared plan) shared)))
    batches;
  (* the three replays must agree with each other *)
  attempt ();
  let fp st = sorted_rows (Matview.render st) in
  if
    not
      (List.for_all2 (fun a b -> same_bag (fp a) (fp b)) per_row batched
      && List.for_all2 (fun a b -> same_bag (fp a) (fp b)) per_row shared)
  then wrong "matview probe: per-row, batched and shared replays disagree"

(* Snapshot acquisition, and the lazily built view index: the first
   minus the second run of one index-join view slice on a pinned
   snapshot. *)
let engine_probe s ~slices =
  for _ = 1 to 20 do
    Span.request "engine" (fun () ->
        Span.record "engine.snapshot" (fun () -> Snapshot.close (Snapshot.snapshot s)))
  done;
  List.iter
    (fun sql ->
      let sn = Snapshot.snapshot s in
      let (_, t1) = timed (fun () -> get sql (Snapshot.query sn sql)) in
      let (_, t2) = timed (fun () -> get sql (Snapshot.query sn sql)) in
      Snapshot.close sn;
      count "engine.index_build_ms" (ms (t1 -. t2)))
    slices

let names_of spans name = List.filter (fun (s : Span.t) -> s.name = name) spans

(* Median duration of the spans called [name], in seconds. *)
let span_median spans name =
  Stats.median (List.map Span.dur (names_of spans name))

(* Self-time breakdown of the workload's main operation: per request,
   every layer's self time and the remainder no layer accounts for add
   up to the traced end-to-end time ([e2e_span]'s duration, or the
   request root's when [None]). *)
let breakdown ~root ~e2e_span ~untraced_p50 =
  let all = Span.self_times () in
  let roots = List.filter (fun ((s : Span.t), _) -> s.parent < 0 && s.name = root) all in
  let per_req =
    List.map
      (fun ((r : Span.t), _) ->
        let mine = List.filter (fun ((s : Span.t), _) -> s.req = r.id && s.id <> r.id) all in
        let e2e =
          match e2e_span with
          | None -> Span.dur r
          | Some n ->
            (match List.find_opt (fun ((s : Span.t), _) -> s.name = n) mine with
             | Some (s, _) -> Span.dur s
             | None -> Span.dur r)
        in
        let layers =
          List.filter (fun ((s : Span.t), _) -> Some s.name <> e2e_span) mine
          |> List.map (fun ((s : Span.t), self) -> (s.name, self))
        in
        (e2e, layers))
      roots
  in
  let n = float (max 1 (List.length per_req)) in
  let names =
    List.sort_uniq compare (List.concat_map (fun (_, l) -> List.map fst l) per_req)
  in
  let mean_self name =
    Stats.sum
      (List.concat_map
         (fun (_, l) -> List.filter_map (fun (k, v) -> if k = name then Some v else None) l)
         per_req)
    /. n
  in
  let e2e_mean = Stats.mean (List.map fst per_req) in
  let selfs = List.map (fun k -> (k, mean_self k)) names in
  let unattributed = List.map (fun (e, l) -> e -. Stats.sum (List.map snd l)) per_req in
  let e2e_p50 = Stats.median (List.map fst per_req) in
  layer "trace.e2e_ms" (ms e2e_p50) "ms";
  layer "trace.unattributed_ms" (ms (Stats.median unattributed)) "ms";
  layer "trace.overhead_ms" (ms (e2e_p50 -. untraced_p50)) "ms";
  detail "trace_breakdown"
    (Wire.jobj
       [
         ("requests", Wire.jint (List.length per_req));
         ("traced_e2e_mean_ms", jfloat (ms e2e_mean));
         ("traced_e2e_p50_ms", jfloat (ms e2e_p50));
         ("untraced_p50_ms", jfloat (ms untraced_p50));
         ("overhead_p50_ms", jfloat (ms (e2e_p50 -. untraced_p50)));
         ("self_mean_ms", Wire.jobj (List.map (fun (k, v) -> (k, jfloat (ms v))) selfs));
         ("unattributed_mean_ms", jfloat (ms (Stats.mean unattributed)));
         (* layers plus remainder, to compare with traced_e2e_mean_ms *)
         ( "sum_check_ms",
           jfloat (ms (Stats.sum (List.map snd selfs) +. Stats.mean unattributed)) );
       ])

(* Every per-layer metric, from the spans and counters of the replay. *)
let report_layers ~major_collections =
  let spans = Span.all () in
  let med name scale = scale (span_median spans name) in
  let cmed name = Stats.median (counted name) in
  layer "sql.parse_us" (med "sql.parse" us) "us";
  layer "planner.bind_us" (med "planner.bind" us) "us";
  layer "planner.optimize_us" (med "planner.optimize" us) "us";
  layer "planner.plan_us" (med "planner.plan" us) "us";
  layer "relalg.execute_ms" (med "relalg.execute" ms) "ms";
  layer "relalg.rows_out" (cmed "relalg.rows_out") "rows";
  layer "relalg.render_ms" (med "relalg.render" ms) "ms";
  layer "relalg.render_bytes" (cmed "relalg.render_bytes") "bytes";
  layer "wire.encode_ms" (med "wire.encode" ms) "ms";
  layer "wire.response_bytes" (cmed "wire.response_bytes") "bytes";
  layer "engine.snapshot_us" (med "engine.snapshot" us) "us";
  layer "engine.index_build_ms" (cmed "engine.index_build_ms") "ms";
  layer "engine.exec_ms" (med "engine.exec" ms) "ms";
  layer "engine.alloc_words_per_commit" (cmed "engine.alloc_words_per_commit") "words";
  (* per changed row and view *)
  layer "matview.apply_us" (med "matview.apply" us) "us";
  layer "matview.render_ms" (med "matview.render" ms) "ms";
  layer "matview.apply_batch_ms" (med "matview.apply_batch" ms) "ms";
  layer "matview.apply_shared_ms" (med "matview.apply_shared" ms) "ms";
  let wal_bytes = counted "wal.bytes_per_commit" in
  layer "wal.bytes_per_commit" (Stats.mean wal_bytes) "bytes";
  layer "wal.bytes_per_row" (Stats.sum wal_bytes /. Stats.sum (counted "wal.rows")) "bytes";
  layer "wal.append_us" (med "wal.append" us) "us";
  layer "wal.sync_ms" (med "wal.sync" ms) "ms";
  layer "gc.major_collections" (float major_collections) "count"

(* ---- point-commit ---- *)

let pc_window = 100

let point_commit o =
  let m = Seq.create (Random.State.make [| o.seed |]) in
  let rows = Seq.rows m in
  (* Three timed set-ups: two in forked children, so this process's peak
     RSS covers only the database it measures, and the last one here. *)
  let setup_in_child () =
    flush_all ();
    let rd, wr = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      Unix.close rd;
      let (_, t) = timed (fun () -> build_seq (Session.open_in_memory ()) rows) in
      let oc = Unix.out_channel_of_descr wr in
      Printf.fprintf oc "%.9f\n%!" t;
      Unix._exit 0
    | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let t = float_of_string (String.trim (In_channel.input_all ic)) in
      close_in ic;
      Served.wait_pid pid;
      t
  in
  let t1 = setup_in_child () in
  let t2 = setup_in_child () in
  let s = Session.open_in_memory () in
  let (), t3 = timed (fun () -> build_seq s rows) in
  let expected (st : Model.stmt) =
    Printf.sprintf "%s 1" (String.uppercase_ascii (Model.kind_name st.kind))
  in
  let commit (st : Model.stmt) =
    attempt ();
    let t0 = now () in
    let res = Session.exec s st.sql in
    let t1 = now () in
    match res with
    | Ok (Session.Done msg) when msg = expected st ->
      Some { Stats.done_at = t1; lat = t1 -. t0; rows = 1 }
    | Ok _ ->
      wrong ("unexpected result for " ^ st.sql);
      None
    | Error e ->
      refused (st.sql ^ ": " ^ Session.describe_error e);
      None
  in
  (* warm-up: not timed *)
  for _ = 1 to 5 do ignore (commit (Seq.next m)) done;
  let samples = ref [] in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let start = now () in
  let deadline = start +. o.seconds in
  while now () < deadline do
    let st = Seq.next m in
    Option.iter (fun smp -> samples := (st.kind, smp) :: !samples) (commit st)
  done;
  let major = (Gc.quick_stat ()).Gc.major_collections - gc0 in
  let rss = self_peak_rss_mb () in
  let samples = List.rev !samples in
  let of_kinds ks = List.filter_map (fun (k, t) -> if List.mem k ks then Some t else None) samples in
  let main = Stats.summarize ~window:pc_window ~start (List.map snd samples) in
  report_e2e ~setup:[ t1; t2; t3 ] ~main ~aux:(of_kinds [ Model.Insert; Model.Delete ]) ~rss;
  detail_summary "commit" main;
  List.iter
    (fun k ->
      detail (Model.kind_name k ^ "_p50_ms")
        (jfloat (ms (Stats.median (Stats.lats (of_kinds [ k ]))))))
    [ Model.Update; Model.Insert; Model.Delete ];
  (* correctness gate: every view against its recomputation, as a bag,
     and the base table against the model *)
  let sn = Snapshot.snapshot s in
  List.iter
    (fun (name, fn) ->
      check_bag name
        (get name (Snapshot.query sn ("SELECT * FROM " ^ name)))
        (sorted_rows (get name (Snapshot.query sn (Seq.definition fn)))))
    Seq.views;
  check_bag "seq" (get "seq" (Snapshot.query sn "SELECT pos, val FROM seq")) (Seq.rows m);
  Snapshot.close sn;
  if o.trace then begin
    let commits = List.init 60 (fun _ -> [ Seq.next m ]) in
    let views = List.map (fun (n, fn) -> (n, Seq.definition fn)) Seq.views in
    (* the owned states start from the base as it is before the replay *)
    matview_probe s ~base:"seq" ~views ~key:(fun r -> r.(0)) commits ~batch:20;
    List.iter (fun c -> Span.request "commit" (fun () -> traced_write s c)) commits;
    let lsn = Snapshot.(let sn = snapshot s in let l = lsn sn in close sn; l) in
    List.iter
      (fun (name, def) ->
        Span.request "read" (fun () -> ignore (traced_read s ~lsn ("SELECT * FROM " ^ name)));
        Span.request "read" (fun () -> ignore (traced_read s ~lsn def)))
      views;
    let slice p =
      Printf.sprintf
        "SELECT v.pos, v.w FROM seq b JOIN v_cum v ON v.pos BETWEEN b.pos AND b.pos + 40 \
         WHERE b.pos = %d"
        p
    in
    engine_probe s ~slices:(List.init 5 (fun _ -> slice (Model.Keyset.pick m.Seq.live m.Seq.st)));
    wal_probe
      ~path:(Filename.concat o.out "probe.wal")
      (List.map (wal_record ~table:"seq") commits);
    breakdown ~root:"commit" ~e2e_span:None ~untraced_p50:main.p50;
    report_layers ~major_collections:major
  end

(* ---- the wire workloads: a durable database served by rfview serve ---- *)

let rr_window = 100
let im_window = 50
let im_batch = 50

(* wire answers report-read checks bit for bit after the run *)
let gate_sample = 64

(* untimed load before the measured window on the wire workloads, so the
   server's heap has grown to its working size *)
let warm_up_s = 1.5

(* Build the durable database (checkpointed, so the server recovers from
   the checkpoint), start [rfview serve] on it and wait for its first
   [status] answer. *)
(* A served database: the in-process session that built it (closed, but
   still readable in memory: it holds exactly the state the server
   recovered), the server, a first connection and its [status] answer. *)
type instance = {
  setup_s : float;
  dir : string;
  session : Session.t;
  srv : Served.server;
  conn : Served.conn;
  status : string;
}

let serve_instance o ~ingest rows =
  let dir = Filename.concat o.out "db" in
  rm_rf dir;
  let t0 = now () in
  let s = get dir (Session.open_durable dir) in
  build_sales s ~ingest rows;
  get "checkpoint" (Session.checkpoint s);
  if ingest then check_ingest_paths s;
  Session.close s;
  let srv = Served.start ~rfview:o.rfview ~dir ~log:(Filename.concat o.out "server") in
  let c = Served.connect srv.Served.port in
  let status = Served.request c "status" in
  if not (Served.ok status) then fail "status: %s" status;
  { setup_s = now () -. t0; dir; session = s; srv; conn = c; status }

(* Close [conns] and stop the server (it drains every connection before
   it exits); the major collections it ran over its life. *)
let server_gc srv conns =
  List.iter Served.disconnect conns;
  match Served.shutdown srv with
  | Some n -> n
  | None -> fail "server printed no GC counters at exit"

let status_int status name =
  match Served.int_field status name with
  | Some v -> v
  | None -> fail "status lacks %s: %s" name status

(* One closed-loop connection issuing the reporting read mix until
   [deadline]. *)
let reader conn next_read ~deadline on_read =
  let cur = ref None in
  {
    Served.conn;
    next =
      (fun () ->
        if now () >= deadline then None
        else begin
          let r = next_read () in
          cur := Some r;
          Some ("query " ^ r.Sales.q ^ "\n")
        end);
    on_response = (fun line dt -> on_read (Option.get !cur) line dt);
  }

let stamp_server status =
  detail "server_domains" (Wire.jint (status_int status "domains"));
  detail "server_lsn_at_setup" (Wire.jint (status_int status "lsn"))

(* From the [rows] field on: the answer without its LSN stamp. *)
let answer line =
  let rec find i =
    if i + 7 > String.length line then line
    else if String.sub line i 7 = "\"rows\":" then String.sub line i (String.length line - i)
    else find (i + 1)
  in
  find 0

(* A traced read: the in-process layers against [s], then the same
   request over the wire.  [s] holds the served state (or a mirror of
   it), so both answers must agree apart from the LSN stamp. *)
let traced_wire_read s conn ~lsn sql =
  Span.request "read" (fun () ->
      let line = traced_read s ~lsn sql in
      let resp =
        Span.record "server.roundtrip" (fun () -> Served.request conn ("query " ^ sql))
      in
      attempt ();
      if not (Served.ok resp) then refused ("traced query refused: " ^ sql)
      else if answer resp <> answer line then
        wrong ("traced wire answer differs from in-process: " ^ sql))

let slice_queries rng n = List.init n (fun _ -> (Sales.slice rng).Sales.q)

(* ---- report-read ---- *)

(* Three server instances, each set up, warmed and measured for a third
   of the run: the result is the median over every window of all three,
   so one instance's unlucky heap layout or a burst of host noise moves
   a few windows, not the run. *)
let report_read o =
  let m = Sales.create (Random.State.make [| o.seed |]) in
  let rows = Sales.rows m in
  (* one instance: set up, warm, measure a third of the run, check a
     sample of its answers; the server keeps running *)
  let measure i =
    let inst = serve_instance o ~ingest:false rows in
    let lsn = status_int inst.status "lsn" in
    let c1 = Served.connect inst.srv.Served.port in
    let pick = Random.State.make [| o.seed; 5; i |] in
    let sampled = Array.make gate_sample None and seen = ref 0 and reads = ref [] in
    let measuring = ref false in
    let on_read (r : Sales.read) line dt =
      attempt ();
      if not (Served.ok line) then refused ("query refused: " ^ r.q)
      else begin
        let rows = Option.value ~default:(-1) (Served.int_field line "rows") in
        let expect = if r.report then Sales.days0 else 30 in
        if rows <> expect then wrong (Printf.sprintf "%d rows, expected %d: %s" rows expect r.q)
        else if !measuring then
          reads := (r.report, { Stats.done_at = now (); lat = dt; rows }) :: !reads;
        (* reservoir sample of the answers, checked after the segment *)
        seen := !seen + 1;
        if !seen <= gate_sample then sampled.(!seen - 1) <- Some (r.q, line)
        else begin
          let j = Random.State.int pick !seen in
          if j < gate_sample then sampled.(j) <- Some (r.q, line)
        end
      end
    in
    let rng0 = Sales.reads (Random.State.make [| o.seed; 1; i |])
    and rng1 = Sales.reads (Random.State.make [| o.seed; 2; i |]) in
    let load deadline =
      Served.closed_loop
        [ reader inst.conn rng0 ~deadline on_read; reader c1 rng1 ~deadline on_read ]
    in
    load (now () +. warm_up_s);
    measuring := true;
    let start = now () in
    load (start +. (o.seconds /. 3.));
    let rss = Served.peak_rss_mb inst.srv.Served.pid in
    (* correctness gate: a seeded sample of wire answers, bit for bit
       against the same query on the same state in process *)
    let sn = Snapshot.snapshot inst.session in
    List.iter
      (fun (q, line) ->
        attempt ();
        let rel = get q (Snapshot.query sn q) in
        let expected = encode_answer ~lsn rel (Relation.render ~max_rows:max_int rel) in
        if expected <> line then wrong ("wire answer differs from in-process: " ^ q))
      (List.filter_map Fun.id (Array.to_list sampled));
    Snapshot.close sn;
    (inst, c1, (start, List.rev !reads), rss, min gate_sample !seen)
  in
  let runs =
    List.init 3 (fun i ->
        let ((inst, c1, _, _, _) as run) = measure i in
        if i < 2 then ignore (server_gc inst.srv [ inst.conn; c1 ]);
        run)
  in
  let last, c1, _, _, _ = List.nth runs 2 in
  let s = last.session and c0 = last.conn in
  stamp_server last.status;
  let lsn = status_int last.status "lsn" in
  let segments = List.map (fun (_, _, seg, _, _) -> seg) runs in
  let of_kind report =
    List.map
      (fun (start, reads) ->
        (start, List.filter_map (fun (r, smp) -> if r = report then Some smp else None) reads))
      segments
  in
  let main =
    Stats.summarize_segments ~window:rr_window
      (List.map (fun (start, reads) -> (start, List.map snd reads)) segments)
  in
  report_e2e
    ~setup:(List.map (fun (inst, _, _, _, _) -> inst.setup_s) runs)
    ~main
    ~aux:(List.concat_map snd (of_kind true))
    ~rss:(Stats.median (List.map (fun (_, _, _, rss, _) -> rss) runs));
  detail_summary "read" main;
  detail_summary "view_slice" (Stats.summarize_segments ~window:rr_window (of_kind false));
  detail_summary "window_report" (Stats.summarize_segments ~window:rr_window (of_kind true));
  detail "server_instances" (Wire.jint 3);
  detail "gate_sampled_answers"
    (Wire.jint (List.fold_left (fun a (_, _, _, _, n) -> a + n) 0 runs));
  let major =
    if not o.trace then server_gc last.srv [ c0; c1 ]
    else begin
      let rng = Random.State.make [| o.seed; 9 |] in
      let next = Sales.reads rng in
      List.init 60 (fun _ -> next ())
      |> List.iter (fun (r : Sales.read) -> traced_wire_read s c0 ~lsn r.q);
      let probe = List.init 4 (fun _ -> Sales.batch m im_batch) in
      matview_probe s ~base:"sales" ~views:Sales.read_views
        ~key:(fun r -> (r.(0), r.(1)))
        probe ~batch:1;
      List.iter (fun b -> Span.request "write" (fun () -> traced_write s b)) probe;
      engine_probe s ~slices:(slice_queries rng 5);
      wal_probe ~path:(Filename.concat o.out "probe.wal")
        (List.map (wal_record ~table:"sales") probe);
      let major = server_gc last.srv [ c0; c1 ] in
      breakdown ~root:"read" ~e2e_span:(Some "server.roundtrip") ~untraced_p50:main.p50;
      major
    end
  in
  if o.trace then report_layers ~major_collections:major

(* ---- ingest-mixed ---- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let batch_ok line =
  Served.ok line
  && Served.int_field line "executed" = Some im_batch
  && not (contains line "\"first_error\"")

(* The [data] table of a query response, as header and sorted rows. *)
let wire_table conn sql =
  attempt ();
  let resp = Served.request conn ("query " ^ sql) in
  if not (Served.ok resp) then fail "gate query refused: %s: %s" sql resp;
  match Wire.field resp "data" with
  | Some text -> table_lines text
  | None -> fail "gate query without data: %s" sql

let sales_row_of_cells = function
  | [ region; day; amount ] ->
    [| Value.String region; Value.Int (int_of_string day); Value.Float (float_of_string amount) |]
  | _ -> fail "unexpected sales row"

let ingest_mixed o =
  let m = Sales.create (Random.State.make [| o.seed |]) in
  (* three timed set-ups; the last one is measured *)
  let rows = Sales.rows m in
  let setups =
    List.init 3 (fun i ->
        let inst = serve_instance o ~ingest:true rows in
        if i < 2 then ignore (server_gc inst.srv [ inst.conn ]);
        inst)
  in
  let setup = List.map (fun inst -> inst.setup_s) setups in
  let { dir; srv; conn = c0; status; _ } = List.nth setups 2 in
  stamp_server status;
  let c1 = Served.connect srv.Served.port in
  let wal = Filename.concat dir "log.wal" in
  let wal_size () = (Unix.stat wal).Unix.st_size in
  let batch_request b = Served.batch_request (List.map (fun (st : Model.stmt) -> st.sql) b) in
  let batches = ref [] and reads = ref [] and changed = ref 0 in
  let measuring = ref false in
  let writer deadline =
    let cur = ref [] in
    {
      Served.conn = c0;
      next =
        (fun () ->
          if now () >= deadline then None
          else begin
            cur := Sales.batch m im_batch;
            Some (batch_request !cur)
          end);
      on_response =
        (fun line dt ->
          attempt ();
          let rows =
            List.fold_left (fun a (st : Model.stmt) -> a + List.length st.changes) 0 !cur
          in
          if not (batch_ok line) then refused ("batch refused: " ^ line)
          else if !measuring then begin
            batches := { Stats.done_at = now (); lat = dt; rows } :: !batches;
            changed := !changed + rows
          end);
    }
  in
  let on_read (r : Sales.read) line dt =
    attempt ();
    if not (Served.ok line) then refused ("query refused: " ^ r.q)
    else if !measuring then
      reads := { Stats.done_at = now (); lat = dt; rows = 0 } :: !reads
  in
  let rng = Sales.reads (Random.State.make [| o.seed; 2 |]) in
  let load deadline = Served.closed_loop [ writer deadline; reader c1 rng ~deadline on_read ] in
  load (now () +. warm_up_s);
  measuring := true;
  let wal0 = wal_size () in
  let start = now () in
  load (start +. o.seconds);
  let rss = Served.peak_rss_mb srv.Served.pid in
  let wal_bytes = wal_size () - wal0 in
  let main = Stats.summarize ~window:im_window ~start (List.rev !batches) in
  report_e2e ~setup ~main ~aux:!reads ~rss;
  detail_summary "batch" main;
  detail_summary "read" (Stats.summarize ~window:rr_window ~start (List.rev !reads));
  detail "changed_rows" (Wire.jint !changed);
  detail "wal_bytes_per_row" (jfloat (float wal_bytes /. float (max 1 !changed)));
  (* correctness gate on one pinned snapshot: every view against its
     recomputation as a bag, and the base table against the model *)
  let g = Served.connect srv.Served.port in
  if not (Served.ok (Served.request g "open")) then fail "gate: open refused";
  List.iter
    (fun (name, def) ->
      let got = wire_table g ("SELECT * FROM " ^ name) in
      if got <> wire_table g def then wrong (name ^ ": differs from its recomputation"))
    (sales_views ~ingest:true);
  let _, base = wire_table g "SELECT region, day, amount FROM sales" in
  let base = Array.of_list (List.map (fun l -> sales_row_of_cells (cells l)) base) in
  Array.sort Row.compare base;
  let model = Sales.rows m in
  Array.sort Row.compare model;
  if not (same_bag base model) then wrong "sales: base table differs from the model";
  ignore (Served.request g "close");
  Served.disconnect g;
  let major =
    if not o.trace then server_gc srv [ c0; c1 ]
    else begin
      (* an in-process mirror of the served state, from the model *)
      let mirror = Session.open_in_memory () in
      build_sales mirror ~ingest:true (Sales.rows m);
      let lsn = 0 in
      let traced = List.init 6 (fun _ -> Sales.batch m im_batch) in
      matview_probe mirror ~base:"sales" ~views:Sales.(read_views @ share_views)
        ~key:(fun r -> (r.(0), r.(1)))
        traced ~batch:1;
      let rng = Random.State.make [| o.seed; 9 |] in
      let next = Sales.reads rng in
      List.iter
        (fun b ->
          Span.request "batch" (fun () ->
              traced_write mirror b;
              let resp =
                Span.record "server.roundtrip" (fun () ->
                    Served.send c0 (batch_request b);
                    Served.recv c0)
              in
              attempt ();
              if not (batch_ok resp) then refused "traced batch refused");
          for _ = 1 to 6 do
            traced_wire_read mirror c1 ~lsn (next ()).Sales.q
          done)
        traced;
      engine_probe mirror ~slices:(slice_queries rng 5);
      let records = (Wal.scan wal).Wal.records in
      let major = server_gc srv [ c0; c1 ] in
      wal_probe ~path:(Filename.concat o.out "probe.wal") records;
      breakdown ~root:"batch" ~e2e_span:(Some "server.roundtrip")
        ~untraced_p50:main.p50;
      major
    end
  in
  if o.trace then report_layers ~major_collections:major

(* ---- main ---- *)

let workloads =
  [ ("point-commit", point_commit); ("report-read", report_read); ("ingest-mixed", ingest_mixed) ]

let json_metrics ms =
  Wire.jobj
    (List.map
       (fun (name, v, unit) ->
         (name, Wire.jobj [ ("value", jfloat v); ("unit", Wire.jstr unit) ]))
       ms)

let git_rev = ref "unknown"

let stamps o =
  [
    ("workload", Wire.jstr o.workload);
    ("seed", Wire.jint o.seed);
    ("seconds", jfloat o.seconds);
    ("trace", Wire.jbool o.trace);
    ("git_rev", Wire.jstr !git_rev);
    ("source_digest", Wire.jstr o.source_digest);
    ("nproc", Wire.jint (Domain.recommended_domain_count ()));
    ("ocaml", Wire.jstr Sys.ocaml_version);
    ("load_generator", Wire.jstr "one process, closed loop, at most 2 connections");
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rfview = ref "" and out = ref ".bench_out" and digest = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME point-commit | report-read | ingest-mixed");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--rfview", Arg.Set_string rfview, "PATH the rfview executable to serve with");
      ("--out", Arg.Set_string out, "DIR scratch directory (databases, logs, spans)");
      ("--source-digest", Arg.Set_string digest, "HEX digest of the sources measured");
      ("--git-rev", Arg.Set_string git_rev, "REV git revision of the sources measured");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --rfview PATH";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  let o =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      rfview = !rfview;
      out = !out;
      source_digest = !digest;
    }
  in
  (* every child process is stopped, on any exit *)
  at_exit Served.kill_all;
  let stop msg = Sys.Signal_handle (fun _ -> prerr_endline ("bench: " ^ msg); exit 3) in
  Sys.set_signal Sys.sigalrm (stop "time limit reached");
  Sys.set_signal Sys.sigterm (stop "terminated");
  Sys.set_signal Sys.sigint (stop "interrupted");
  ignore (Unix.alarm 170);
  if not (Sys.file_exists o.out) then Unix.mkdir o.out 0o755;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (match run o with
   | () -> ()
   | exception Bench_error msg ->
     prerr_endline ("bench: " ^ msg);
     exit 1
   | exception e ->
     prerr_endline ("bench: " ^ Printexc.to_string e);
     exit 1);
  let metrics = if o.trace then tally.layers else tally.e2e in
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then begin
        prerr_endline ("bench: metric " ^ name ^ " was not measured");
        exit 1
      end)
    metrics;
  if o.trace then Span.write (Filename.concat o.out (Printf.sprintf "spans-%s-%d.jsonl" o.workload o.seed));
  print_endline
    (Wire.jobj
       [
         ( "report",
           Wire.jobj
             (stamps o
             @ [
                 ("end_to_end", json_metrics tally.e2e);
                 ("per_layer", json_metrics tally.layers);
                 ("wrong", Wire.jint tally.wrong);
                 ("failures", Wire.jlist (List.rev_map Wire.jstr tally.notes));
               ]
             @ tally.detail) );
       ]);
  print_endline
    (Wire.jobj
       [
         ("correct", Wire.jbool (tally.wrong = 0));
         ("attempted", Wire.jint tally.attempted);
         ("failed", Wire.jint tally.failed);
         ("metrics", json_metrics metrics);
       ])
