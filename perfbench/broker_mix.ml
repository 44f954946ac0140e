(* broker_mix: the QoS-broker daemon in its own process, serving the
   paper network over a Unix-domain socket (loopback only), preloaded
   to [live_target] live connections.  One generator thread drives it
   over [conns] pipelined connections and matches replies by id.

   Phase 1 (open loop, [share_open] of the run): requests due on a
   Poisson schedule at [rate] per second, sent when due whatever is
   outstanding; latency runs from each request's due time to its reply,
   and the percentiles are over admissions, as on the churn workloads:
   teardowns and reads (45% of the mix) cost a fifth of an admission or
   renegotiation, so a percentile over every request sits on the
   boundary between the two modes and moved with the host's speed more
   than either mode did.  [rate] is a sixth to a tenth of the
   saturation throughput measured on the tuning host (1500-2600/s, with
   the host's load), so phase 1 times the serving path with little
   queueing.  Phase 2 (closed, the rest): [window] requests kept
   outstanding; its reply rate is the saturation throughput.  The
   untraced run alternates the two phases [cycles] times: a single
   closed phase caught the host in one of two speeds that differ by
   half and last seconds, and its rate swung by a third between runs.

   The mix is the one `drqos_cli loadgen` replays with its defaults (its
   worker [step] in bin/drqos_cli.ml, no failure injection, live target
   400): 70% churn steering the live population toward [live_target]
   (teardown at or above it, else admit), 20% chqos, 4% stats, 3% ping
   and 3% snapshot, QoS specs drawn from loadgen's palette.  The first
   closed phase also fails one of the first [fail_edges] edges (the
   range scripts/verify.sh fails) at its [fail_at]-th request and
   repairs it [repair_after] requests later; phase 1 carries no
   failure, because one recovery stall puts tens of requests into its
   1% tail.  A
   channel with a request in flight is never picked again until that
   reply arrives, so the only stale-channel errors are teardowns or
   renegotiations racing the failure that dropped their channel.  The
   failure and repair go over the first connection, so the daemon sees
   the repair after the failure.  [warmup] untimed requests precede
   phase 1.

   The daemon runs pinned to its own CPU beside an idle-priority
   spinner that keeps that CPU out of its idle state: without it, a
   request's latency at a low rate is mostly the host waking the CPU
   up, and that varied threefold from run to run.

   The spinner also watches that CPU, and the generator its own: a gap
   of more than [Pb.disturbance_ns] in which neither the spinner nor the
   daemon (on the generator's CPU: the spinning generator) got CPU time
   is time the host or another task held the CPU.  Such gaps took up to
   a few per cent of a run's time on the tuning host, in bursts of up
   to tens of milliseconds, and their rate changed tenfold between runs minutes
   apart, so a phase-1 tail over every admission measured the host.
   The latency percentiles leave out the admissions in flight during a
   gap or during the drain after it (as long again); how many were
   left out is printed, and so are the percentiles with them.  A
   daemon that blocks or sleeps leaves its CPU to the spinner, so it
   makes no gap: only time taken by others is left out.

   The spinner's turns also time the daemon's CPU while the daemon
   waits: the mean turn over phase 1, over [reference_turn_ns], is the
   run's host slowness, and the timed figures other than set-up are
   scaled by it like the churn workloads' (see Pb.scaled).  Over ten
   runs it correlated with the unscaled saturation rate at -0.92 and
   with the admission p50 at 0.85; a 32 MiB memory walk on the same
   CPU, used before, correlated at 0.22.

   The traced run splits phase 2 into an untraced and a traced half
   (requests carry a trace context), reads the daemon's stage timers
   through the [metrics] request, and afterwards replays every recorded
   request line in-process through the codec and broker to time those
   layers. *)

let live_target = 400
let fail_edges = 8
let fail_at = 64
let repair_after = 64
let rate = 250.
let share_open = 0.8
let window = 32
let conns = 2
let setups = 5
let warmup = 4_000
let cycles = 5
let reference_turn_ns = 44.

(* loadgen's QoS palette, for admissions and renegotiations alike. *)
let palette =
  [|
    Qos.paper_spec ~increment:(Bandwidth.kbps 100);
    Qos.paper_spec ~increment:(Bandwidth.kbps 50);
    Qos.make ~utility:0.7 ~b_min:200 ~b_max:400 ~increment:50 ();
    Qos.make ~b_min:50 ~b_max:250 ~increment:50 ();
  |]

(* -- daemon side ---------------------------------------------------- *)

(* The daemon subprocess: say "ready" on stdout once it listens, serve
   until shutdown, then report its peak major heap there too. *)
let daemon ?cpu socket =
  ignore (Pb.pin cpu);
  let net = Net_state.create (Pb.paper_graph ()) in
  let log m = if String.starts_with ~prefix:"serve: listening" m then print_endline "ready" in
  ignore (Serve_server.run ~log (`Unix socket) net);
  Printf.printf "%.17g\n%!" (Pb.heap_peak_mb ())

(* The preload, drawn from the seed: bulk admissions with deferred
   water-filling, as a broker client would load. *)
let preload_requests ~seed =
  let rng = Prng.create seed in
  let n = Graph.node_count (Pb.paper_graph ()) in
  let admits =
    List.init live_target (fun _ ->
        let src, dst = Pb.distinct_pair rng n in
        Serve_proto.Admit { src; dst; qos = palette.(Prng.int rng (Array.length palette)) })
  in
  (Serve_proto.Set_auto false :: admits)
  @ [ Serve_proto.Redistribute; Serve_proto.Set_auto true ]

let stats_line = function
  | Serve_proto.Stats_reply { live; total_reserved; _ } ->
    Printf.sprintf "live=%d reserved=%d" live total_reserved
  | _ -> "no stats"

(* The state the preload leaves, from an in-process broker; the daemon
   must report the same. *)
let fingerprint ~seed =
  let b = Serve_broker.create (Net_state.create (Pb.paper_graph ())) in
  List.iter (fun r -> ignore (Serve_broker.dispatch b r)) (preload_requests ~seed);
  stats_line (Serve_broker.dispatch b Serve_proto.Stats)

(* -- client connections --------------------------------------------- *)

type conn = { fd : Unix.file_descr; inbuf : Buffer.t }

let scratch = Bytes.create 65536

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; inbuf = Buffer.create 4096 }

let write_line c line =
  let data = line ^ "\n" in
  let len = String.length data in
  let rec go off =
    if off < len then go (off + Unix.write_substring c.fd data off (len - off))
  in
  go 0

(* Read what is available and return the complete reply lines. *)
let read_lines c =
  match Unix.read c.fd scratch 0 (Bytes.length scratch) with
  | 0 -> failwith "daemon closed the connection"
  | n ->
    Buffer.add_subbytes c.inbuf scratch 0 n;
    let data = Buffer.contents c.inbuf in
    Buffer.clear c.inbuf;
    let parts = String.split_on_char '\n' data in
    let rec split = function
      | [] -> []
      | [ last ] ->
        Buffer.add_string c.inbuf last;
        []
      | l :: rest -> l :: split rest
    in
    split parts

let decode_reply line =
  match Serve_proto.response_of_json (Jsonx.of_string line) with
  | Ok r -> r
  | Error m -> failwith ("undecodable reply: " ^ m)

(* Requests with ids [first], [first + 1], ..., sent in batches of
   [batch] over one connection; the replies, in order. *)
let call_many ?(batch = 1) c ~first reqs =
  let rec replies want acc =
    if want = 0 then acc
    else
      let lines = read_lines c in
      replies (want - List.length lines) (List.rev_append (List.map decode_reply lines) acc)
  in
  let rec go id reqs acc =
    match reqs with
    | [] -> List.rev acc
    | _ ->
      let now = List.filteri (fun i _ -> i < batch) reqs in
      let later = List.filteri (fun i _ -> i >= batch) reqs in
      List.iteri
        (fun i r -> write_line c (Jsonx.to_string (Serve_proto.request_to_json ~id:(id + i) r)))
        now;
      let got = replies (List.length now) [] in
      List.iteri
        (fun i (rid, _) -> if rid <> id + i then failwith "reply id mismatch")
        (List.rev got);
      go (id + List.length now) later (List.rev_append (List.rev_map snd got) acc)
  in
  go first reqs []

(* One request and its reply, nothing else in flight. *)
let call c id req = List.hd (call_many c ~first:id [ req ])

(* -- daemon lifecycle ----------------------------------------------- *)

type daemon = {
  pid : int;
  out : in_channel;
  cs : conn array;
  preloaded : int list;  (** wire ids the preload admitted. *)
  mutable watcher : int option;  (** the spinner watching the daemon's CPU. *)
  gaps_file : string;  (** where the watcher writes its gaps. *)
}

let live_pids = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error (_, _, _) -> ())
        !live_pids)

let spawn args ~stdout =
  let pid =
    Unix.create_process Sys.executable_name
      (Array.append [| Sys.executable_name |] args)
      Unix.stdin stdout Unix.stderr
  in
  live_pids := pid :: !live_pids;
  pid

let reap pid =
  ignore (Unix.waitpid [] pid);
  live_pids := List.filter (( <> ) pid) !live_pids

let start ~socket ~preload_reqs =
  let r, w = Unix.pipe ~cloexec:true () in
  let cpu = match Pb.daemon_cpu with Some c -> [| "--cpu"; string_of_int c |] | None -> [||] in
  let pid = spawn (Array.append [| "--daemon"; socket |] cpu) ~stdout:w in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  (match input_line out with
  | "ready" -> ()
  | l -> failwith ("daemon said " ^ l)
  | exception End_of_file -> failwith "daemon exited before listening");
  let cs = Array.init conns (fun _ -> connect socket) in
  (* The preload is pipelined, so set-up time is the daemon's work and
     not one round trip per admission. *)
  let preloaded =
    List.filter_map
      (function Serve_proto.Admitted { channel; _ } -> Some channel | _ -> None)
      (call_many ~batch:50 cs.(0) ~first:1 preload_reqs)
  in
  { pid; out; cs; preloaded; watcher = None; gaps_file = Printf.sprintf "%s.gaps.%d" socket pid }

(* Once set up: a spinner on the daemon's CPU, when the daemon has one
   of its own, that keeps the CPU out of its idle state and watches it. *)
let watch d =
  Option.iter
    (fun c ->
      d.watcher <-
        Some
          (spawn
             [| "--watch"; string_of_int d.pid; d.gaps_file; "--cpu"; string_of_int c |]
             ~stdout:Unix.stdout))
    Pb.daemon_cpu

(* Shut the daemon and its watcher down, wait for both, and return the
   daemon's peak heap, the gaps the watcher saw as (start, end, held)
   monotonic ns, and its turn reports as (time, turns, ns). *)
let stop d =
  ignore (call d.cs.(0) 0 Serve_proto.Shutdown);
  Array.iter (fun c -> Unix.close c.fd) d.cs;
  let heap = try float_of_string (input_line d.out) with _ -> 0. in
  close_in d.out;
  reap d.pid;
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      reap pid)
    d.watcher;
  let records =
    match In_channel.with_open_bin d.gaps_file In_channel.input_all with
    | data ->
      Sys.remove d.gaps_file;
      List.init (String.length data / 32) (fun k ->
          Array.init 4 (fun i -> Int64.to_int (String.get_int64_ne data ((32 * k) + (8 * i)))))
    | exception Sys_error _ -> []
  in
  let gaps = List.filter_map (fun r -> if r.(0) = 0 then Some (r.(1), r.(2), r.(3)) else None) records in
  let turns = List.filter_map (fun r -> if r.(0) = 1 then Some (r.(1), r.(2), r.(3)) else None) records in
  (heap, gaps, turns)

(* -- the generator ------------------------------------------------- *)

type kind = K_admit | K_teardown | K_chqos | K_fail | K_repair | K_read

type pend = { kind : kind; due_ns : int; channel : int; phase : int }

type gen = {
  d : daemon;
  rng : Prng.t;
  nodes : int;
  pending : (int, pend) Hashtbl.t;
  (* held channels: dense array plus position table, O(1) add/remove *)
  mutable held : int array;
  mutable held_n : int;
  pos : (int, int) Hashtbl.t;
  busy : (int, unit) Hashtbl.t;
  dropped : (int, unit) Hashtbl.t;
  mutable fail_id : int;  (** id of the phase-2 failure, -1 before. *)
  mutable failed_edge : int option;
  mutable next_id : int;
  mutable admits_in_flight : int;
  mutable sent : int;
  mutable admits : int;
  mutable rejects : int;
  mutable bad : string list;  (** unexplained replies, judged at the end. *)
  mutable stale : (int * string) list;  (** error replies on a channel. *)
  mutable lines : (int * string) list;  (** (phase, line), newest first. *)
  mutable trace_ctx : bool;
  (* phase-1 measurements: latency, due time and whether the request
     was an admission, one entry per reply in arrival order *)
  lat_ns : Pb.Samples.t;
  due_ns : Pb.Samples.t;
  admit : Pb.Samples.t;
  lag_ns : Pb.Samples.t;
  gaps : Pb.Samples.t;  (** the generator's own gaps, start and end in turn. *)
  mutable outstanding_max : int;
  mutable p1_start : int;  (** when the first phase 1 began. *)
  mutable p1_end : int;  (** when the last phase 1 ended. *)
  mutable closed : (int * int) list;  (** the closed phases' (start, stop). *)
}

let hold g ch =
  if Hashtbl.mem g.pos ch then g.bad <- Printf.sprintf "channel %d admitted twice" ch :: g.bad
  else begin
    if g.held_n = Array.length g.held then
      g.held <- Array.append g.held (Array.make (Array.length g.held + 16) 0);
    g.held.(g.held_n) <- ch;
    Hashtbl.replace g.pos ch g.held_n;
    g.held_n <- g.held_n + 1
  end

let release g ch =
  match Hashtbl.find_opt g.pos ch with
  | None -> ()
  | Some i ->
    let last = g.held.(g.held_n - 1) in
    g.held.(i) <- last;
    Hashtbl.replace g.pos last i;
    Hashtbl.remove g.pos ch;
    g.held_n <- g.held_n - 1

(* A held channel with no request in flight, drawn uniformly then
   probed forward; [None] when every held channel is busy. *)
let pick_free g pick =
  if g.held_n = 0 then None
  else begin
    let start = (pick * g.held_n) lsr 30 in
    let rec go k =
      if k = g.held_n then None
      else
        let ch = g.held.((start + k) mod g.held_n) in
        if Hashtbl.mem g.busy ch then go (k + 1) else Some ch
    in
    go 0
  end

(* The next request: the injected failure or repair, else loadgen's
   mix. *)
let next_request g id =
  let dice = Prng.int g.rng 100 in
  let src, dst = Pb.distinct_pair g.rng g.nodes in
  let qos = palette.(Prng.int g.rng (Array.length palette)) in
  let edge = Prng.int g.rng fail_edges in
  let pick = Prng.int g.rng (1 lsl 30) in
  let read r = (K_read, -1, r) in
  let admit () =
    g.admits <- g.admits + 1;
    g.admits_in_flight <- g.admits_in_flight + 1;
    (K_admit, -1, Serve_proto.Admit { src; dst; qos })
  in
  (* A held channel with no request in flight, else an admission. *)
  let on_free f =
    match pick_free g pick with
    | Some ch ->
      Hashtbl.replace g.busy ch ();
      f ch
    | None -> admit ()
  in
  if id = g.fail_id then begin
    g.failed_edge <- Some edge;
    (K_fail, -1, Serve_proto.Fail { edge })
  end
  else if id = g.fail_id + repair_after then begin
    let e = Option.get g.failed_edge in
    g.failed_edge <- None;
    (K_repair, -1, Serve_proto.Repair { edge = e })
  end
  else if dice < 70 then
    if g.held_n + g.admits_in_flight >= live_target then
      on_free (fun ch ->
          release g ch;
          (K_teardown, ch, Serve_proto.Teardown { channel = ch }))
    else admit ()
  else if dice < 90 then
    on_free (fun ch -> (K_chqos, ch, Serve_proto.Change_qos { channel = ch; qos }))
  else if dice < 94 then read Serve_proto.Stats
  else if dice < 97 then read Serve_proto.Ping
  else read Serve_proto.Snapshot

let send g ~phase ~due_ns =
  let id = g.next_id in
  g.next_id <- id + 1;
  let kind, channel, req = next_request g id in
  let trace =
    if g.trace_ctx then Some { Reqtrace.rid = id; t_sched = Pb.seconds_of_ns due_ns }
    else None
  in
  let line = Jsonx.to_string (Serve_proto.request_to_json ?trace ~id req) in
  let conn = match kind with K_fail | K_repair -> 0 | _ -> id mod conns in
  write_line g.d.cs.(conn) line;
  g.lines <- (phase, line) :: g.lines;
  g.sent <- g.sent + 1;
  Hashtbl.replace g.pending id { kind; due_ns; channel; phase };
  let n = Hashtbl.length g.pending in
  if phase = 1 && n > g.outstanding_max then g.outstanding_max <- n

let on_reply g ~recv_ns (id, resp) =
  match Hashtbl.find_opt g.pending id with
  | None -> g.bad <- Printf.sprintf "reply for unknown or answered id %d" id :: g.bad
  | Some p -> (
    Hashtbl.remove g.pending id;
    if p.kind = K_admit then g.admits_in_flight <- g.admits_in_flight - 1;
    if p.phase = 1 then begin
      Pb.Samples.add g.lat_ns (recv_ns - p.due_ns);
      Pb.Samples.add g.due_ns p.due_ns;
      Pb.Samples.add g.admit (if p.kind = K_admit then 1 else 0)
    end;
    if p.channel >= 0 then Hashtbl.remove g.busy p.channel;
    match (p.kind, resp) with
    | _, Serve_proto.Error_reply { message } when p.channel >= 0 ->
      (* Judged at the end: fine only if a failure dropped the channel. *)
      if p.kind = K_chqos then release g p.channel;
      g.stale <- (p.channel, message) :: g.stale
    | _, Serve_proto.Error_reply { message } ->
      g.bad <- Printf.sprintf "request %d: %s" id message :: g.bad
    | K_admit, Serve_proto.Admitted { channel; _ } -> hold g channel
    | K_admit, Serve_proto.Admit_rejected _ -> g.rejects <- g.rejects + 1
    | K_fail, Serve_proto.Edge_failed { recoveries; _ } ->
      List.iter
        (fun r ->
          match r.Serve_proto.rw_outcome with
          | `Dropped ->
            release g r.Serve_proto.rw_channel;
            Hashtbl.replace g.dropped r.Serve_proto.rw_channel ()
          | `Switched | `Restored | `Backup_lost -> ())
        recoveries
    | K_teardown, Serve_proto.Torn_down _
    | K_chqos, Serve_proto.Qos_changed _
    | K_repair, Serve_proto.Edge_repaired _
    | K_read, (Serve_proto.Stats_reply _ | Serve_proto.Pong | Serve_proto.Snapshot_reply _) ->
      ()
    | _, r ->
      g.bad <-
        Printf.sprintf "request %d: unexpected %s reply" id
          (Jsonx.to_string (Serve_proto.response_to_json ~id r))
        :: g.bad)

(* Wait up to [timeout_s] for replies and handle them; returns the
   number handled. *)
let poll g timeout_s =
  let fds = Array.to_list (Array.map (fun c -> c.fd) g.d.cs) in
  match Unix.select fds [] [] (Float.max 0. timeout_s) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
  | readable, _, _ ->
    let recv_ns = Pb.now_ns () in
    Array.fold_left
      (fun acc c ->
        if List.mem c.fd readable then begin
          let lines = read_lines c in
          List.iter (fun l -> if l <> "" then on_reply g ~recv_ns (decode_reply l)) lines;
          acc + List.length lines
        end
        else acc)
      0 g.d.cs

(* Collect every outstanding reply; whatever is still missing after
   [timeout_s] counts as unanswered. *)
let drain g timeout_s =
  let deadline = Pb.now_ns () + int_of_float (timeout_s *. 1e9) in
  while Hashtbl.length g.pending > 0 && Pb.now_ns () < deadline do
    ignore (poll g 0.1)
  done

(* Phase 1.  The generator spins on a zero-timeout select instead of
   sleeping until the next due time, so its own wake-up latency stays
   out of both the send lag and the reply timestamps.  Spinning, it
   never waits, so any stretch of wall time longer than
   [Pb.disturbance_ns] that its CPU time does not cover is a gap. *)
let open_loop g ~seconds =
  let start = Pb.now_ns () in
  let stop = start + int_of_float (seconds *. 1e9) in
  let gap () = int_of_float (Prng.exponential g.rng rate *. 1e9) in
  let next_due = ref (start + gap ()) in
  if g.p1_start = 0 then g.p1_start <- start;
  let last = ref start and used = ref (Pb.thread_cpu_ns ()) in
  while !next_due < stop do
    let now = Pb.now_ns () and cpu = Pb.thread_cpu_ns () in
    if now - !last - (cpu - !used) > Pb.disturbance_ns then begin
      Pb.Samples.add g.gaps !last;
      Pb.Samples.add g.gaps now
    end;
    last := now;
    used := cpu;
    if now >= !next_due then begin
      Pb.Samples.add g.lag_ns (now - !next_due);
      send g ~phase:1 ~due_ns:!next_due;
      next_due := !next_due + gap ()
    end
    else ignore (poll g 0.)
  done;
  g.p1_end <- Pb.now_ns ();
  drain g 10.

(* Phase 2: keep [window] requests outstanding for [seconds]; returns
   the replies received within them. *)
let saturate g ~phase ~seconds =
  let start = Pb.now_ns () in
  let stop = start + int_of_float (seconds *. 1e9) in
  for _ = 1 to window do
    send g ~phase ~due_ns:start
  done;
  let replies = ref 0 and now = ref start in
  while !now < stop do
    let n = poll g 0.05 in
    now := Pb.now_ns ();
    if !now < stop then begin
      replies := !replies + n;
      for _ = 1 to n do
        send g ~phase ~due_ns:!now
      done
    end
  done;
  g.closed <- (start, stop) :: g.closed;
  drain g 10.;
  !replies

(* Before phase 1: [warmup] requests of the mix, one at a time and
   untimed, so the renegotiated QoS mix and the held population reach
   their steady state before anything is measured, and the daemon's
   stage timers see no queueing from it. *)
let warm g =
  let target = g.sent + warmup in
  send g ~phase:0 ~due_ns:0;
  while g.sent < target do
    for _ = 1 to poll g 0. do
      if g.sent < target then send g ~phase:0 ~due_ns:0
    done
  done;
  drain g 10.

(* -- the daemon's stage timers -------------------------------------- *)

let metrics_doc g =
  match call g.d.cs.(0) (-1) Serve_proto.Metrics with
  | Serve_proto.Metrics_reply doc -> doc
  | _ -> failwith "metrics request failed"

let timer doc name field =
  let open Jsonx in
  Option.bind (member "timers" doc) (member name)
  |> Fun.flip Option.bind (member field)
  |> Fun.flip Option.bind to_float
  |> Option.value ~default:0.

(* Mean of a stage over the requests between two snapshots, in us. *)
let stage_mean_us d0 d1 name =
  let count d = timer d name "count" and total d = timer d name "total_s" in
  Pb.ratio ((total d1 -. total d0) *. 1e6) (count d1 -. count d0)

(* -- in-process replay (traced run) --------------------------------- *)

type replay = {
  decode_us : float;
  service_us : float;
  redist_us : float;
  encode_us : float;
  admit_us : float;
  teardown_us : float;
  admit_minor : float;
  admit_major : float;
  minor_per_req : float;
  major_per_req : float;
  major_gcs_per_kreq : float;
  probe : Churn.probe;
}

(* Replay the recorded lines, in the order they were sent, through the
   layers the daemon runs per request, twice over fresh brokers.
   Preload lines (phase -1) rebuild the set-up state, where the second
   pass probes Flooding; warm-up lines (phase 0) replay untimed.  The
   first pass reads the GC counters only around the whole of the later
   phases, so its words are the layers' alone; the second times each
   layer call and reads words around each admission.  The means are
   over the open-loop phase's lines. *)
let replay ~seed lines =
  let decode line =
    match Serve_proto.request_of_json (Jsonx.of_string line) with
    | Ok r -> r
    | Error m -> failwith ("replay: " ^ m)
  in
  let of_phase f = Array.of_list (List.filter_map (fun (p, l) -> if f p then Some l else None) lines) in
  let preload_lines = of_phase (fun p -> p < 0) and warm_lines = of_phase (fun p -> p = 0) in
  let rest = Array.of_list (List.filter (fun (p, _) -> p > 0) lines) in
  let fresh ~probe =
    let net = Net_state.create (Pb.paper_graph ()) in
    let b = Serve_broker.create net in
    Array.iter (fun l -> ignore (Serve_broker.dispatch b (snd (decode l)))) preload_lines;
    let p =
      if probe then
        Some
          (Churn.flooding_probes Churn.paper_churn ~net ~seed ~pair:(fun rng ->
               Pb.distinct_pair rng (Graph.node_count (Net_state.graph net))))
      else None
    in
    Array.iter (fun l -> ignore (Serve_broker.dispatch b (snd (decode l)))) warm_lines;
    (b, p)
  in
  let b, _ = fresh ~probe:false in
  let g0 = Pb.gc_now () in
  Array.iter
    (fun (_, line) ->
      let id, req = decode line in
      let resp, _, _ = Serve_broker.dispatch_timed b req in
      ignore (Jsonx.to_string (Serve_proto.response_to_json ~id resp)))
    rest;
  let g1 = Pb.gc_now () in
  let b, probe = fresh ~probe:true in
  (* sums in a float array, so adding to them allocates nothing *)
  let dec = 0 and svc = 1 and red = 2 and enc = 3 and adm = 4 and td = 5 and minor = 6 and major = 7 in
  let sum = Array.make 8 0. in
  let add k v = sum.(k) <- sum.(k) +. v in
  let n1 = ref 0 and adm_n = ref 0 and td_n = ref 0 in
  Array.iter
    (fun (phase, line) ->
      let t0 = Pb.now_ns () in
      let id, req = decode line in
      let t1 = Pb.now_ns () in
      let is_admit = match req with Serve_proto.Admit _ -> true | _ -> false in
      let q0 = if is_admit then Some (Gc.quick_stat ()) else None in
      let m0 = Gc.minor_words () in
      let resp, service_s, redist_s = Serve_broker.dispatch_timed b req in
      let m1 = Gc.minor_words () in
      (match q0 with
      | Some q0 ->
        incr adm_n;
        add adm service_s;
        add minor (m1 -. m0);
        add major ((Gc.quick_stat ()).Gc.major_words -. q0.Gc.major_words)
      | None -> (
        match req with
        | Serve_proto.Teardown _ ->
          incr td_n;
          add td service_s
        | _ -> ()));
      let t2 = Pb.now_ns () in
      ignore (Jsonx.to_string (Serve_proto.response_to_json ~id resp));
      let t3 = Pb.now_ns () in
      if phase = 1 then begin
        incr n1;
        add dec (Pb.us_of_ns (t1 - t0));
        add svc (service_s *. 1e6);
        add red (redist_s *. 1e6);
        add enc (Pb.us_of_ns (t3 - t2))
      end)
    rest;
  let n = float_of_int !n1 and all = float_of_int (Array.length rest) in
  let adm_n = float_of_int !adm_n in
  {
    decode_us = Pb.ratio sum.(dec) n;
    service_us = Pb.ratio sum.(svc) n;
    redist_us = Pb.ratio sum.(red) n;
    encode_us = Pb.ratio sum.(enc) n;
    admit_us = Pb.ratio (sum.(adm) *. 1e6) adm_n;
    teardown_us = Pb.ratio (sum.(td) *. 1e6) (float_of_int !td_n);
    admit_minor = Pb.ratio sum.(minor) adm_n;
    admit_major = Pb.ratio sum.(major) adm_n;
    minor_per_req = Pb.ratio (g1.Pb.minor -. g0.Pb.minor) all;
    major_per_req = Pb.ratio (g1.Pb.major -. g0.Pb.major) all;
    major_gcs_per_kreq = Pb.ratio (float_of_int (g1.Pb.major_gcs - g0.Pb.major_gcs) *. 1000.) all;
    probe = Option.get probe;
  }

(* -- one run -------------------------------------------------------- *)

(* The phase-1 admission latencies, sorted, of the admissions in flight
   during none of [gaps] nor the drain after each (as long again). *)
let undisturbed g gaps =
  let spans = Array.of_list (List.map (fun (a, b) -> (a, b + (b - a))) gaps) in
  let kept = ref [] in
  for i = Pb.Samples.count g.lat_ns - 1 downto 0 do
    let lat = Pb.Samples.get g.lat_ns i and due = Pb.Samples.get g.due_ns i in
    if Pb.Samples.get g.admit i = 1
       && not (Array.exists (fun (a, e) -> a < due + lat && e > due) spans)
    then kept := lat :: !kept
  done;
  let a = Array.of_list !kept in
  Array.sort compare a;
  a

(* Host slowness (1 = the tuning host): the spinner's mean turn on the
   daemon's CPU between [from] and [until], over [reference_turn_ns];
   1 when the spinner reported nothing. *)
let slowness turns ~from ~until =
  match List.filter (fun (t, _, _) -> t >= from && t <= until) turns with
  | (_, n0, t0) :: _ as inside -> (
    match List.rev inside with
    | (_, n1, t1) :: _ when n1 > n0 ->
      float_of_int (t1 - t0) /. float_of_int (n1 - n0) /. reference_turn_ns
    | _ -> 1.)
  | [] -> 1.

let run ~seed ~seconds ~traced ~expected ~rundir =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (try Unix.mkdir rundir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket = Filename.concat rundir "broker.sock" in
  let preload_reqs = preload_requests ~seed in
  let times = ref [] and prints = ref [] and last = ref None in
  for k = 1 to setups do
    let t0 = Pb.now_ns () in
    let d = start ~socket ~preload_reqs in
    times := Pb.seconds_of_ns (Pb.now_ns () - t0) :: !times;
    prints := stats_line (call d.cs.(0) 0 Serve_proto.Stats) :: !prints;
    if k < setups then ignore (stop d) else last := Some d
  done;
  let d = Option.get !last in
  watch d;
  let print = List.hd !prints in
  if List.exists (fun p -> p <> print) !prints then
    fail "set-ups disagree: %s" (String.concat " | " !prints);
  (match expected with
  | Some e when e <> print -> fail "set-up state %s, recorded for this seed: %s" print e
  | Some _ | None -> ());
  Pb.print_info "set-up state: %s" print;
  let graph = Pb.paper_graph () in
  let phase1_max = int_of_float (rate *. float_of_int seconds *. 2.) + 1024 in
  let g =
    {
      d;
      rng = Prng.create (seed lxor 0x5bd1e995);
      nodes = Graph.node_count graph;
      pending = Hashtbl.create 64;
      held = Array.make (2 * live_target) 0;
      held_n = 0;
      pos = Hashtbl.create 1024;
      busy = Hashtbl.create 64;
      dropped = Hashtbl.create 64;
      fail_id = -1;
      failed_edge = None;
      next_id = 1_000;
      admits_in_flight = 0;
      sent = 0;
      admits = 0;
      rejects = 0;
      bad = [];
      stale = [];
      lines = List.map (fun r -> (-1, Jsonx.to_string (Serve_proto.request_to_json ~id:1 r))) (List.rev preload_reqs);
      trace_ctx = false;
      lat_ns = Pb.Samples.create phase1_max;
      due_ns = Pb.Samples.create phase1_max;
      admit = Pb.Samples.create phase1_max;
      lag_ns = Pb.Samples.create phase1_max;
      gaps = Pb.Samples.create 65_536;
      outstanding_max = 0;
      p1_start = 0;
      p1_end = 0;
      closed = [];
    }
  in
  List.iter (hold g) d.preloaded;
  warm g;
  (* The untraced run alternates the phases [cycles] times, so both
     sample the host across the whole run; the traced run runs them
     once and splits its closed phase into an untraced and a traced
     half, so it measures for [seconds] too. *)
  let segments = if traced then 1 else cycles in
  let per_segment share = share *. float_of_int seconds /. float_of_int segments in
  let open_s = per_segment share_open in
  let closed_s = per_segment (1. -. share_open) /. if traced then 2. else 1. in
  let m0 = if traced then Some (metrics_doc g) else None in
  let m1 = ref None and replies = ref [] in
  for k = 1 to segments do
    open_loop g ~seconds:open_s;
    if traced then m1 := Some (metrics_doc g);
    if k = 1 then g.fail_id <- g.next_id + fail_at;
    replies := saturate g ~phase:2 ~seconds:closed_s :: !replies
  done;
  Pb.print_info "replies per closed phase of %.2f s: %s" closed_s
    (String.concat " " (List.rev_map string_of_int !replies));
  let closed_windows = g.closed in
  let traced_ops_per_s =
    if traced then begin
      g.trace_ctx <- true;
      float_of_int (saturate g ~phase:3 ~seconds:closed_s) /. closed_s
    end
    else 0.
  in
  let unanswered = Hashtbl.length g.pending in
  if unanswered > 0 then fail "%d requests unanswered" unanswered;
  let stale_bad =
    List.filter (fun (ch, _) -> not (Hashtbl.mem g.dropped ch)) g.stale
  in
  List.iter (fun (ch, m) -> fail "channel %d: %s" ch m) stale_bad;
  List.iter (fun m -> fail "%s" m) g.bad;
  (match call d.cs.(0) 0 Serve_proto.Stats with
  | Serve_proto.Stats_reply { live; _ } when live = g.held_n -> ()
  | r -> fail "final %s, generator holds %d" (stats_line r) g.held_n);
  let heap_mb, watched, turns = stop d in
  (try Unix.rmdir rundir with Unix.Unix_error (_, _, _) -> ());
  let own =
    List.init (Pb.Samples.count g.gaps / 2) (fun k ->
        (Pb.Samples.get g.gaps (2 * k), Pb.Samples.get g.gaps ((2 * k) + 1)))
  in
  let gaps = List.map (fun (a, b, _) -> (a, b)) watched @ own in
  let gap_note side gs =
    Printf.sprintf "%s %d (%.1f ms)" side (List.length gs)
      (Pb.us_of_ns (List.fold_left (fun acc (a, b) -> acc + b - a) 0 gs) /. 1e3)
  in
  Pb.print_info "gaps over %.1f ms with the CPU held elsewhere: %s, %s"
    (Pb.us_of_ns Pb.disturbance_ns /. 1e3)
    (gap_note "daemon's CPU" (List.map (fun (a, _, h) -> (a, a + h)) watched))
    (gap_note "generator's CPU" own);
  (* The saturation rate over the time the daemon's CPU was ours: each
     gap's held time, in proportion to its overlap with a closed phase,
     comes off that phase's length. *)
  let held_ns =
    List.fold_left
      (fun acc (a, b, h) ->
        List.fold_left
          (fun acc (s, e) ->
            let o = min b e - max a s in
            if o > 0 then acc +. (float_of_int h *. float_of_int o /. float_of_int (b - a)) else acc)
          acc closed_windows)
      0. watched
  in
  let closed_total = closed_s *. float_of_int segments in
  Pb.print_info "closed phases: %.3f s, %.1f ms of it held elsewhere" closed_total (held_ns /. 1e6);
  let ops_per_s =
    float_of_int (List.fold_left ( + ) 0 !replies) /. (closed_total -. (held_ns *. 1e-9))
  in
  let slow = slowness turns ~from:g.p1_start ~until:g.p1_end in
  Pb.print_info "host slowness %.4f (the daemon CPU's mean spinner turn over %.0f ns)" slow
    reference_turn_ns;
  let lag = Pb.Samples.sorted g.lag_ns and every = Pb.Samples.sorted g.lat_ns in
  let adm = undisturbed g [] and kept = undisturbed g gaps in
  let n_note =
    Printf.sprintf "(n=%d of %d admissions, open loop at %.0f/s)" (Array.length kept)
      (Array.length adm) rate
  in
  let pcts a ps =
    String.concat " " (List.map (fun p -> Printf.sprintf "%.0f" (Pb.Samples.percentile_us a p)) ps)
  in
  Pb.print_info "undisturbed admissions, deciles (us): %s"
    (pcts kept (List.init 9 (fun k -> float_of_int (k + 1) /. 10.)));
  Pb.print_info "undisturbed admissions, tail at 95 98 99 99.5 99.9 100%% (us): %s"
    (pcts kept [ 0.95; 0.98; 0.99; 0.995; 0.999; 1. ]);
  Pb.print_info "unscaled p50 and p99 (us): undisturbed admissions %s, every admission %s, every request %s"
    (pcts kept [ 0.5; 0.99 ]) (pcts adm [ 0.5; 0.99 ]) (pcts every [ 0.5; 0.99 ]);
  let e2e =
    [
      Pb.metric "setup_s" "s" (Pb.median !times)
        ~note:(Printf.sprintf "(median of %d daemon starts and preloads)" setups);
      Pb.scaled ~slow "ops_per_s" "1/s" ops_per_s
        ~note:(Printf.sprintf "(saturation, %d outstanding)" window);
      Pb.scaled ~slow "op_p50_us" "us" (Pb.Samples.percentile_us kept 0.5) ~note:n_note;
      Pb.scaled ~slow "op_p99_us" "us" (Pb.Samples.percentile_us kept 0.99) ~note:n_note;
      Pb.metric "heap_peak_mb" "MB" heap_mb ~note:"(daemon)";
    ]
  in
  let extra =
    [
      Pb.metric "reject_share" "share"
        (Pb.ratio (float_of_int g.rejects) (float_of_int g.admits))
        ~note:(Printf.sprintf "(%d of %d admissions)" g.rejects g.admits);
      Pb.metric "stale_channel_errors" "count" (float_of_int (List.length g.stale))
        ~note:"(teardown/chqos racing a failure drop)";
    ]
  in
  let layers =
    match (m0, !m1) with
    | Some m0, Some m1 ->
      let r = replay ~seed (List.rev g.lines) in
      let p99 name = timer m1 name "p99_s" *. 1e6 and p50 name = timer m1 name "p50_s" *. 1e6 in
      let lat_mean = Pb.Samples.mean_us g.lat_ns and lag_mean = Pb.Samples.mean_us g.lag_ns in
      let total_mean = stage_mean_us m0 m1 "req.total" in
      [
        ("flooding.primary.us_per_op", r.probe.Churn.primary_us);
        ("flooding.backup.us_per_op", r.probe.Churn.backup_us);
        ("flooding.primary.minor_words_per_op", r.probe.Churn.primary_minor);
        ("flooding.primary.major_words_per_op", r.probe.Churn.primary_major);
        ("drcomm.admit.us_per_op", r.admit_us);
        ("drcomm.admit.minor_words_per_op", r.admit_minor);
        ("drcomm.admit.major_words_per_op", r.admit_major);
        ("drcomm.terminate.us_per_op", r.teardown_us);
        ("drcomm.redistribute.us_per_op", r.redist_us);
        ("drcomm.redistribute.share", Pb.ratio r.redist_us (r.service_us +. r.redist_us));
        ("gc.minor_words_per_op", r.minor_per_req);
        ("gc.major_words_per_op", r.major_per_req);
        ("gc.major_collections_per_kop", r.major_gcs_per_kreq);
        ("gen.lag_p99_us", Pb.Samples.percentile_us lag 0.99);
        ("gen.outstanding_max", float_of_int g.outstanding_max);
        ("req.queue_p99_us", p99 "req.queue");
        ("req.parse_p50_us", p50 "req.parse");
        ("req.service_p50_us", p50 "req.service");
        ("req.redistribute_p99_us", p99 "req.redistribute");
        ("req.write_p50_us", p50 "req.write");
        ("req.total_p99_us", p99 "req.total");
        ("proto.decode.us_per_op", r.decode_us);
        ("broker.dispatch.service_us_per_op", r.service_us);
        ("broker.dispatch.redistribute_us_per_op", r.redist_us);
        ("proto.encode.us_per_op", r.encode_us);
        ("wire.residual_us_per_op", lat_mean -. total_mean -. lag_mean);
        ("unattributed_share", 1. -. Pb.ratio (lag_mean +. total_mean) lat_mean);
        ("trace_overhead", 1. -. Pb.ratio traced_ops_per_s (float_of_int (List.fold_left ( + ) 0 !replies) /. closed_total));
      ]
    | _ -> []
  in
  {
    Outcome.failures = List.rev !failures;
    attempted = g.sent;
    (* One message stands for all the unanswered requests. *)
    failed = List.length !failures + unanswered - min 1 unanswered;
    e2e;
    extra;
    layers;
  }
