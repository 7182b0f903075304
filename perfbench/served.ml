(* A real [rfview serve] process and the single-process, closed-loop load
   generator that drives it over at most two connections. *)

type server = { pid : int; mutable port : int; log : string; mutable alive : bool }

let running : server list ref = ref []

let rec wait_pid pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid

let kill srv =
  if srv.alive then begin
    srv.alive <- false;
    (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
    wait_pid srv.pid
  end

let kill_all () = List.iter kill !running

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Start [rfview serve DIR --port 0] with its default domain count and
   wait for the line announcing the port.  The GC prints its counters to
   the server's stderr at exit ([v=0x400]). *)
let start ~rfview ~dir ~log =
  let out = log ^ ".out" and err = log ^ ".err" in
  let fd_out = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let fd_err = Unix.openfile err [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let env = Array.append [| "OCAMLRUNPARAM=v=0x400" |] (Unix.environment ()) in
  let pid =
    Unix.create_process_env rfview
      [| rfview; "serve"; dir; "--port"; "0" |]
      env Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let srv = { pid; port = 0; log = err; alive = true } in
  running := srv :: !running;
  let deadline = Stats.now () +. 60. in
  let rec await () =
    let text = read_file out in
    match Scanf.sscanf_opt text "serving %_s on 127.0.0.1:%d" Fun.id with
    | Some port -> port
    | None ->
      (match Unix.waitpid [ WNOHANG ] pid with
       | p, _ when p = pid ->
         srv.alive <- false;
         failwith ("rfview serve exited: " ^ read_file err)
       | _ -> ());
      if Stats.now () > deadline then failwith "rfview serve did not start";
      Unix.sleepf 0.002;
      await ()
  in
  srv.port <- await ();
  srv

(* ---- connections ---- *)

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;  (** bytes received past the last full line *)
  chunk : Bytes.t;
}

let connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd TCP_NODELAY true;
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; pending = Buffer.create 65536; chunk = Bytes.create 65536 }

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* Read whatever is available; [Some line] once a full line is in. *)
let pump c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "server closed the connection";
  let start = Buffer.length c.pending in
  Buffer.add_subbytes c.pending c.chunk 0 n;
  match Bytes.index_from_opt c.chunk 0 '\n' with
  | Some i when i < n ->
    let len = start + i in
    let line = Buffer.sub c.pending 0 len in
    let rest = Buffer.sub c.pending (len + 1) (Buffer.length c.pending - len - 1) in
    Buffer.clear c.pending;
    Buffer.add_string c.pending rest;
    Some line
  | _ -> None

let rec recv c = match pump c with Some l -> l | None -> recv c

let request c line =
  send c (line ^ "\n");
  recv c

(* Batch request: [batch N] followed by the N statements, one per line. *)
let batch_request stmts =
  String.concat "\n" (Printf.sprintf "batch %d" (List.length stmts) :: stmts) ^ "\n"

(* ---- closed loop over several connections from one process ---- *)

(* A client sends its next request only after the previous response
   arrived.  [next ()] gives the next request (raw bytes, newline
   included) or [None] to stop; [on_response line seconds] gets each
   response with its latency from send to the last byte. *)
type client = {
  conn : conn;
  next : unit -> string option;
  on_response : string -> float -> unit;
}

let closed_loop clients =
  let sent_at = Hashtbl.create 4 in
  let issue cl =
    match cl.next () with
    | None -> false
    | Some req ->
      Hashtbl.replace sent_at cl.conn.fd (Stats.now ());
      send cl.conn req;
      true
  in
  let active = ref (List.filter issue clients) in
  while !active <> [] do
    let ready, _, _ =
      try Unix.select (List.map (fun cl -> cl.conn.fd) !active) [] [] 5.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        let cl = List.find (fun cl -> cl.conn.fd = fd) !active in
        match pump cl.conn with
        | None -> ()
        | Some line ->
          let t = Stats.now () -. Hashtbl.find sent_at fd in
          cl.on_response line t;
          if not (issue cl) then active := List.filter (fun c -> c != cl) !active)
      ready
  done

(* ---- response fields ---- *)

let ok line = String.length line >= 10 && String.sub line 0 10 = "{\"ok\":true"

(* An integer field among the leading scalar fields of a response. *)
let int_field line name =
  let needle = "\"" ^ name ^ "\":" in
  let limit = min (String.length line) 200 in
  let rec find i =
    if i + String.length needle > limit then None
    else if String.sub line i (String.length needle) = needle then begin
      let j = ref (i + String.length needle) in
      while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub line (i + String.length needle) (!j - i - String.length needle))
    end
    else find (i + 1)
  in
  find 0

(* Peak resident memory of a live process, in MB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  match
    List.find_map
      (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
      (String.split_on_char '\n' status)
  with
  | Some kb -> float kb /. 1024.
  | None -> nan

(* Stop a server through the protocol and wait for it; the GC counters it
   printed at exit are returned. *)
let shutdown srv =
  (try
     let c = connect srv.port in
     ignore (request c "shutdown");
     disconnect c
   with _ -> ());
  wait_pid srv.pid;
  srv.alive <- false;
  let err = try read_file srv.log with Sys_error _ -> "" in
  List.find_map
    (fun l -> Scanf.sscanf_opt (String.trim l) "major_collections: %d" Fun.id)
    (String.split_on_char '\n' err)
