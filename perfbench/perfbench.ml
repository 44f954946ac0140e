(* perfbench: the repository benchmark.  See README.md for workloads,
   metrics and the interaction map; run.py builds and runs it.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   [--expected FILE] [--rundir DIR]
     perfbench.exe --fingerprint --workload W --seed N

   The second form prints the seed's set-up state, the value recorded
   in expected.json for that seed.  broker_mix starts this executable
   twice more: as the daemon (--daemon SOCKET --cpu N) and as the idle
   spinner that watches the daemon's CPU (--watch PID FILE --cpu N). *)

(* Every per-layer metric with its unit, in report order.  A layer the
   workload does not drive did no work there, and reads 0. *)
let per_layer =
  [
    ("flooding.primary.us_per_op", "us");
    ("flooding.backup.us_per_op", "us");
    ("flooding.primary.minor_words_per_op", "words");
    ("flooding.primary.major_words_per_op", "words");
    ("drcomm.admit.us_per_op", "us");
    ("drcomm.admit.minor_words_per_op", "words");
    ("drcomm.admit.major_words_per_op", "words");
    ("drcomm.terminate.us_per_op", "us");
    ("drcomm.redistribute.us_per_op", "us");
    ("drcomm.redistribute.share", "share");
    ("gc.minor_words_per_op", "words");
    ("gc.major_words_per_op", "words");
    ("gc.major_collections_per_kop", "count");
    ("engine.self_us_per_event", "us");
    ("gen.lag_p99_us", "us");
    ("gen.outstanding_max", "count");
    ("req.queue_p99_us", "us");
    ("req.parse_p50_us", "us");
    ("req.service_p50_us", "us");
    ("req.redistribute_p99_us", "us");
    ("req.write_p50_us", "us");
    ("req.total_p99_us", "us");
    ("proto.decode.us_per_op", "us");
    ("broker.dispatch.service_us_per_op", "us");
    ("broker.dispatch.redistribute_us_per_op", "us");
    ("proto.encode.us_per_op", "us");
    ("wire.residual_us_per_op", "us");
    ("unattributed_share", "share");
    ("trace_overhead", "share");
  ]

let workloads = [ "stub_churn"; "paper_churn"; "broker_mix" ]

let churn_of = function
  | "stub_churn" -> Some Churn.stub_churn
  | "paper_churn" -> Some Churn.paper_churn
  | _ -> None

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload stub_churn|paper_churn|broker_mix --seed N \
     --seconds S --trace 0|1 [--expected FILE] [--rundir DIR]\n\
    \       perfbench.exe --fingerprint --workload W --seed N\n\
    \       perfbench.exe --daemon SOCKET [--cpu N]\n\
    \       perfbench.exe --watch PID FILE [--cpu N]";
  exit 2

type args = {
  mutable workload : string;
  mutable seed : int option;
  mutable seconds : int;
  mutable trace : bool;
  mutable expected : string option;
  mutable rundir : string;
  mutable fingerprint : bool;
  mutable daemon : string option;
  mutable cpu : int option;
  mutable watch : (int * string) option;
}

let parse argv =
  let a =
    {
      workload = "";
      seed = None;
      seconds = 10;
      trace = false;
      expected = None;
      rundir = ".perfbench_run";
      fingerprint = false;
      daemon = None;
      cpu = None;
      watch = None;
    }
  in
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a.workload <- v; go rest
    | "--seed" :: v :: rest -> a.seed <- Some (int_arg v); go rest
    | "--seconds" :: v :: rest -> a.seconds <- int_arg v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> a.trace <- v = "1"; go rest
    | "--expected" :: v :: rest -> a.expected <- Some v; go rest
    | "--rundir" :: v :: rest -> a.rundir <- v; go rest
    | "--fingerprint" :: rest -> a.fingerprint <- true; go rest
    | "--daemon" :: v :: rest -> a.daemon <- Some v; go rest
    | "--cpu" :: v :: rest -> a.cpu <- Some (int_arg v); go rest
    | "--watch" :: pid :: file :: rest -> a.watch <- Some (int_arg pid, file); go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  a

(* The set-up state recorded for [seed], when expected.json has one. *)
let recorded ~file ~workload ~seed =
  match file with
  | None -> None
  | Some path ->
    let doc = In_channel.with_open_text path In_channel.input_all |> Jsonx.of_string in
    Option.bind (Jsonx.member workload doc) (fun w ->
        Option.bind (Jsonx.member (string_of_int seed) w) Jsonx.to_str)

let () =
  let a = parse Sys.argv in
  (match a.watch with
  | Some (pid, file) ->
    ignore (Pb.pin a.cpu);
    let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    exit (if Pb.idle_watch pid fd Pb.disturbance_ns then 0 else 1)
  | None -> ());
  match a.daemon with
  | Some socket -> Broker_mix.daemon ?cpu:a.cpu socket
  | None -> (
    let seed = match a.seed with Some s -> s | None -> usage () in
    if not (List.mem a.workload workloads) || a.seconds < 1 then usage ();
    if a.fingerprint then
      print_endline
        (match churn_of a.workload with
        | Some w -> Churn.fingerprint w (Churn.setup w ~seed)
        | None -> Broker_mix.fingerprint ~seed)
    else begin
      Pb.stamp ~workload:a.workload ~seed ~seconds:a.seconds
        ~trace:(if a.trace then 1 else 0)
        ~transport:(if a.workload = "broker_mix" then "unix-socket-loopback" else "in-process");
      (* The benchmark process keeps the first CPU; the broker daemon
         takes the second. *)
      Pb.print_info "benchmark pinned to its own CPU: %b" (Pb.pin Pb.bench_cpu);
      let expected = recorded ~file:a.expected ~workload:a.workload ~seed in
      let o =
        match churn_of a.workload with
        | Some w -> Churn.run w ~seed ~seconds:a.seconds ~traced:a.trace ~expected
        | None ->
          Broker_mix.run ~seed ~seconds:a.seconds ~traced:a.trace ~expected
            ~rundir:a.rundir
      in
      List.iter (fun m -> Printf.printf "CHECK FAILED: %s\n" m) o.Outcome.failures;
      let reported =
        if a.trace then
          List.map
            (fun (name, unit_) ->
              Pb.metric name unit_
                (Option.value (List.assoc_opt name o.Outcome.layers) ~default:0.))
            per_layer
        else o.Outcome.e2e
      in
      let extra = if a.trace then o.Outcome.e2e @ o.Outcome.extra else o.Outcome.extra in
      let correct = o.Outcome.failures = [] && o.Outcome.failed = 0 in
      Pb.finish ~correct ~attempted:(max 1 o.Outcome.attempted) ~failed:o.Outcome.failed
        ~reported ~extra;
      exit (if correct then 0 else 1)
    end)
