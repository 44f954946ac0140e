(* The two closed-loop churn workloads, driven in one domain through
   Engine exactly as the simulator drives them.

   - stub_churn: the 1056-node transit-stub topology of bench/scale.ml,
     stub-local pairs, 63/64 inelastic 10 Kbps flows on 400 Mbps links,
     loaded to a live plateau, then strictly alternating admit and
     terminate on the batched path (no reports).
   - paper_churn: the paper's Fig. 2 network loaded to the saturated end
     of Fig. 2 (5000 offered), then lambda = mu churn with reports and
     indirect sets on, as Scenario measures.

   A run sets up [setups] times (set-up time is their median, and every
   set-up must land on the same state), then times one window.  Window
   inputs are drawn from the seed before the window opens and packed
   into an off-heap array, so the timed loop allocates nothing of its
   own.  The traced run adds, in order: Flooding probes and two
   fixed-length GC-counting phases on the freshly set-up state (so
   their word counts repeat exactly), the untraced window, and a traced
   window that times every layer boundary. *)

type load = Live of int | Offered of int

type workload = {
  name : string;
  network : unit -> Net_state.t * (Prng.t -> int * int);
      (** fresh network state plus the pair sampler over its nodes. *)
  config : Drcomm.Config.t;
  palette : Qos.t array;
  draw_qos : Prng.t -> int;  (** index into [palette]. *)
  load : load;
  warmup : int;  (** churn ops run as part of set-up. *)
  alternate : bool;  (** strict admit/terminate alternation, else a fair coin. *)
  reports : bool;  (** reports and indirect sets on admit and terminate. *)
  count_ops : int;  (** ops in each GC-counting phase of the traced run. *)
  probes : int;  (** Flooding probe pairs in the traced run. *)
}

let setups = 5

(* -- stub_churn ----------------------------------------------------- *)

let stub_network () =
  let info =
    Transit_stub.generate (Prng.create 7)
      (Transit_stub.spec ~transit_domains:4 ~transit_size:8
         ~stubs_per_transit_node:4 ~stub_size:8 ())
  in
  let stub_of = info.Transit_stub.stub_of_node in
  let members = Array.make (1 + Array.fold_left max (-1) stub_of) [] in
  for v = Array.length stub_of - 1 downto 0 do
    let s = stub_of.(v) in
    if s >= 0 then members.(s) <- v :: members.(s)
  done;
  let stubs = Array.map Array.of_list members in
  let pair rng =
    let stub = stubs.(Prng.int rng (Array.length stubs)) in
    let i, j = Pb.distinct_pair rng (Array.length stub) in
    (stub.(i), stub.(j))
  in
  (Net_state.create ~capacity:(Bandwidth.mbps 400) info.Transit_stub.graph, pair)

let stub_churn =
  {
    name = "stub_churn";
    network = stub_network;
    config = Drcomm.Config.make ~hop_bound:6 ~require_backup:false ();
    palette =
      [| Qos.single_value 10; Qos.make ~b_min:10 ~b_max:50 ~increment:10 () |];
    draw_qos = (fun rng -> if Prng.int rng 64 = 0 then 1 else 0);
    load = Live 10_000;
    warmup = 1_000;
    alternate = true;
    reports = false;
    count_ops = 2_000;
    probes = 2_000;
  }

(* -- paper_churn ---------------------------------------------------- *)

let paper_network () =
  let g = Pb.paper_graph () in
  let n = Graph.node_count g in
  (Net_state.create g, fun rng -> Pb.distinct_pair rng n)

let paper_churn =
  {
    name = "paper_churn";
    network = paper_network;
    config = Drcomm.Config.default;
    palette = [| Pb.paper_qos |];
    draw_qos = (fun _ -> 0);
    load = Offered 5_000;
    warmup = 50;
    alternate = false;
    reports = true;
    count_ops = 100;
    probes = 2_000;
  }

(* -- state ---------------------------------------------------------- *)

type state = {
  service : Drcomm.t;
  pair : Prng.t -> int * int;
  load_rejected : int;
  warm_rejected : int;
}

(* Everything a set-up decides, as one comparable line. *)
let fingerprint w st =
  let s = st.service in
  let levels =
    Array.fold_left (fun acc q -> max acc (Qos.levels q)) 1 w.palette
  in
  Printf.sprintf "carried=%d rejected=%d warm_rejected=%d reserved=%d levels=%s"
    (Drcomm.count s) st.load_rejected st.warm_rejected (Drcomm.total_reserved s)
    (String.concat ","
       (Array.to_list
          (Array.map string_of_int (Drcomm.level_histogram s ~max_levels:levels))))

(* -- window inputs -------------------------------------------------- *)

(* One op per int: src (11 bits) | dst (11) | qos index (3) | admit (1)
   | victim draw (30, a uniform fraction of the live count). *)
let victim_bits = 30

let pack ~src ~dst ~qos ~admit ~victim =
  src lor (dst lsl 11) lor (qos lsl 22) lor ((if admit then 1 else 0) lsl 25)
  lor (victim lsl 26)

let gen_inputs w st rng capacity =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout capacity in
  for i = 0 to capacity - 1 do
    let src, dst = st.pair rng in
    let qos = w.draw_qos rng in
    let admit = if w.alternate then i land 1 = 0 else Prng.bool rng in
    a.{i} <- pack ~src ~dst ~qos ~admit ~victim:(Prng.int rng (1 lsl victim_bits))
  done;
  a

(* -- windows -------------------------------------------------------- *)

type window = {
  mutable ops : int;
  mutable admits : int;
  mutable rejects : int;
  mutable terminates : int;
  mutable errors : int;
  admit_ns : Pb.Samples.t;  (** per admit call, flush included. *)
  term_ns : Pb.Samples.t;
  mutable elapsed_ns : int;
  per_second : int array;  (** ops completed in each second of the window. *)
  walk_s : float array;  (** each second's calibration walk, when asked for. *)
  mutable paused_ns : int;  (** walks and the ops right after them. *)
  mutable skip : bool;  (** the next op follows a walk. *)
  mutable skipped : int;
  mutable mark_ns : int;  (** wall clock at the previous op's end... *)
  mutable mark_cpu_ns : int;  (** ...and this thread's CPU time then. *)
  mutable disturbed : int;  (** ops left out of the percentiles. *)
  mutable held_ns : int;  (** time others held the CPU during those. *)
  (* traced only *)
  lag_ns : Pb.Samples.t;  (** previous op's end to this op's start. *)
  mutable handler_ns : int;
  mutable admit_self_ns : int;
  mutable term_self_ns : int;
  mutable redist_ns : int;
  mutable call_ns : int;
}

let new_window ?(seconds = 0) capacity ~traced =
  let traced_cap = if traced then capacity else 0 in
  {
    ops = 0;
    admits = 0;
    rejects = 0;
    terminates = 0;
    errors = 0;
    admit_ns = Pb.Samples.create capacity;
    term_ns = Pb.Samples.create capacity;
    elapsed_ns = 0;
    per_second = Array.make (seconds + 1) 0;
    walk_s = Array.make (seconds + 1) 0.;
    paused_ns = 0;
    skip = false;
    skipped = 0;
    mark_ns = 0;
    mark_cpu_ns = 0;
    disturbed = 0;
    held_ns = 0;
    lag_ns = Pb.Samples.create traced_cap;
    handler_ns = 0;
    admit_self_ns = 0;
    term_self_ns = 0;
    redist_ns = 0;
    call_ns = 0;
  }

(* Apply input [x]: true when it was an admission.  Optional arguments
   are literals at each call site, so the call allocates nothing here. *)
let apply w st win x =
  let s = st.service in
  if (x lsr 25) land 1 = 1 then begin
    let src = x land 0x7ff and dst = (x lsr 11) land 0x7ff in
    let qos = w.palette.((x lsr 22) land 7) in
    (match
       if w.reports then Drcomm.admit ~want_indirect:true ~want_report:true s ~src ~dst ~qos
       else Drcomm.admit ~want_indirect:false ~want_report:false s ~src ~dst ~qos
     with
    | Drcomm.Admitted _ -> ()
    | Drcomm.Rejected _ -> win.rejects <- win.rejects + 1);
    win.admits <- win.admits + 1;
    true
  end
  else begin
    let n = Drcomm.count s in
    if n > 0 then begin
      let h = Drcomm.nth_channel s (((x lsr 26) * n) lsr victim_bits) in
      if w.reports then ignore (Drcomm.terminate ~report:true s h)
      else ignore (Drcomm.terminate ~report:false s h);
      win.terminates <- win.terminates + 1
    end;
    false
  end

(* -- set-up --------------------------------------------------------- *)

let setup w ~seed =
  let net, pair = w.network () in
  let service = Drcomm.create ~config:w.config net in
  let rng = Prng.create seed in
  let load_rejected = ref 0 in
  let attempt () =
    let src, dst = pair rng in
    match
      Drcomm.admit ~want_indirect:false ~want_report:false service ~src ~dst
        ~qos:w.palette.(w.draw_qos rng)
    with
    | Drcomm.Admitted _ -> ()
    | Drcomm.Rejected _ -> incr load_rejected
  in
  Drcomm.set_auto_redistribute service false;
  (match w.load with
  | Offered n -> for _ = 1 to n do attempt () done
  | Live target ->
    let budget = ref (3 * target) in
    while Drcomm.count service < target && !budget > 0 do
      decr budget;
      attempt ()
    done);
  Drcomm.redistribute_pending service;
  Drcomm.set_auto_redistribute service true;
  let st = { service; pair; load_rejected = !load_rejected; warm_rejected = 0 } in
  let warm = new_window 0 ~traced:false in
  let inputs = gen_inputs w st rng w.warmup in
  for i = 0 to w.warmup - 1 do
    ignore (apply w st warm inputs.{i})
  done;
  { st with warm_rejected = warm.rejects }

(* -- the timed loop ------------------------------------------------- *)

(* One window of at most [seconds] over inputs [from..], one engine
   event per op, into [win] and through [engine], both made by the
   caller so that the window allocates nothing before its first op.
   Untraced: two clock reads per op, stored raw, and a read of the
   thread's CPU time after it; with [walk], a calibration walk after
   the first op of every second.  The walk evicts the op's working set
   from the caches, so it and the op right after it are left out of the
   window: neither is timed, and that op is not counted.  An op whose
   wall time since the previous op's end exceeds the thread's CPU time
   over it by more than [Pb.disturbance_ns] (the host or another task
   held the CPU: see Broker_mix) is counted but left out of the
   percentiles.  Traced: handler entry/exit, the redistribution
   accumulator around each call, and the gap since the previous op. *)
let run_window ?(walk = false) w st win engine inputs ~from ~seconds ~traced =
  let cap = Bigarray.Array1.dim inputs - from in
  let s = st.service in
  Drcomm.set_time_redistribution s traced;
  let start = Pb.now_ns () in
  let deadline = start + (seconds * 1_000_000_000) in
  let last_second = Array.length win.per_second - 1 in
  let count_second t1 =
    let b = min last_second ((t1 - win.paused_ns - start) / 1_000_000_000) in
    win.per_second.(b) <- win.per_second.(b) + 1;
    b
  in
  let last_end = ref 0 in
  let rec handler eng =
    let i = win.ops in
    let x = Bigarray.Array1.unsafe_get inputs (from + i) in
    if traced then begin
      let h0 = Pb.now_ns () in
      if !last_end > 0 then Pb.Samples.add win.lag_ns (h0 - !last_end);
      let r0 = Drcomm.redistribution_seconds s in
      let t0 = Pb.now_ns () in
      let was_admit = (try apply w st win x with _ -> win.errors <- win.errors + 1; false) in
      let t1 = Pb.now_ns () in
      let r = int_of_float ((Drcomm.redistribution_seconds s -. r0) *. 1e9) in
      let self = t1 - t0 - r in
      win.redist_ns <- win.redist_ns + r;
      win.call_ns <- win.call_ns + (t1 - t0);
      if was_admit then begin
        Pb.Samples.add win.admit_ns (t1 - t0);
        win.admit_self_ns <- win.admit_self_ns + self
      end
      else begin
        Pb.Samples.add win.term_ns (t1 - t0);
        win.term_self_ns <- win.term_self_ns + self
      end;
      win.ops <- i + 1;
      ignore (count_second t1 : int);
      if t1 < deadline && i + 1 < cap then ignore (Engine.schedule eng ~delay:1. handler);
      let h1 = Pb.now_ns () in
      win.handler_ns <- win.handler_ns + (h1 - h0);
      last_end := t1
    end
    else begin
      let t0 = Pb.now_ns () in
      let was_admit = (try apply w st win x with _ -> win.errors <- win.errors + 1; false) in
      let t1 = Pb.now_ns () in
      let c1 = Pb.thread_cpu_ns () in
      let held = t1 - win.mark_ns - (c1 - win.mark_cpu_ns) in
      win.mark_ns <- t1;
      win.mark_cpu_ns <- c1;
      win.ops <- i + 1;
      if win.skip then begin
        win.skip <- false;
        win.skipped <- win.skipped + 1;
        win.paused_ns <- win.paused_ns + (t1 - t0)
      end
      else begin
        if held > Pb.disturbance_ns then begin
          win.disturbed <- win.disturbed + 1;
          win.held_ns <- win.held_ns + held
        end
        else Pb.Samples.add (if was_admit then win.admit_ns else win.term_ns) (t1 - t0);
        let b = count_second t1 in
        if walk && win.walk_s.(b) = 0. then begin
          let w0 = Pb.now_ns () in
          win.walk_s.(b) <- Pb.calibrate ();
          win.paused_ns <- win.paused_ns + (Pb.now_ns () - w0);
          win.skip <- true
        end
      end;
      if t1 - win.paused_ns < deadline && i + 1 < cap then
        ignore (Engine.schedule eng ~delay:1. handler)
    end
  in
  ignore (Engine.schedule engine ~delay:1. handler);
  let t0 = Pb.now_ns () in
  win.mark_ns <- t0;
  win.mark_cpu_ns <- Pb.thread_cpu_ns ();
  ignore (Engine.run engine);
  win.elapsed_ns <- Pb.now_ns () - t0 - win.paused_ns;
  Drcomm.set_time_redistribution s false;
  win

(* -- traced-only probes --------------------------------------------- *)

type probe = {
  primary_us : float;
  backup_us : float;
  primary_minor : float;
  primary_major : float;
}

(* Read-only route searches on sampled pairs against the live network
   state: timed one by one, with words read around each primary
   search (quick_stat before the minor read and after it, so the
   minor delta is exact). *)
let flooding_probes w ~net ~pair ~seed =
  let rng = Prng.create (seed + 1_000_003) in
  let hop_bound = Drcomm.Config.hop_bound w.config in
  let p_ns = ref 0 and b_ns = ref 0 and b_n = ref 0 in
  let minor = ref 0. and major = ref 0. in
  for _ = 1 to w.probes do
    let src, dst = pair rng in
    let floor = w.palette.(w.draw_qos rng).Qos.b_min in
    let req = Flooding.request ~hop_bound ~src ~dst ~floor () in
    let q0 = Gc.quick_stat () in
    let m0 = Gc.minor_words () in
    let t0 = Pb.now_ns () in
    let primary = Flooding.primary_route net req in
    let t1 = Pb.now_ns () in
    let m1 = Gc.minor_words () in
    let q1 = Gc.quick_stat () in
    p_ns := !p_ns + (t1 - t0);
    minor := !minor +. (m1 -. m0);
    major := !major +. (q1.Gc.major_words -. q0.Gc.major_words);
    match primary with
    | None -> ()
    | Some p ->
      let t2 = Pb.now_ns () in
      ignore (Flooding.backup_route net req ~primary_edges:p.Paths.edges);
      b_ns := !b_ns + (Pb.now_ns () - t2);
      incr b_n
  done;
  let n = float_of_int w.probes in
  {
    primary_us = Pb.us_of_ns !p_ns /. n;
    backup_us = Pb.ratio (Pb.us_of_ns !b_ns) (float_of_int !b_n);
    primary_minor = !minor /. n;
    primary_major = !major /. n;
  }

type counts = {
  minor_per_op : float;
  major_per_op : float;
  major_gcs_per_kop : float;
  admit_minor : float;
  admit_major : float;
}

(* Two fixed-length phases on the set-up state, through the same engine
   loop: whole-phase GC deltas only (the workload's words per op), then
   words read around each admit call. *)
let gc_counts w st rng =
  let whole = gen_inputs w st rng w.count_ops in
  let win = new_window w.count_ops ~traced:false and engine = Engine.create ~capacity:4 () in
  let g0 = Pb.gc_now () in
  ignore (run_window w st win engine whole ~from:0 ~seconds:3600 ~traced:false);
  let g1 = Pb.gc_now () in
  let inputs = gen_inputs w st rng w.count_ops in
  let admits = ref 0 and minor = ref 0. and major = ref 0. in
  let scratch = new_window 1 ~traced:false in
  let engine = Engine.create ~capacity:4 () in
  let rec handler eng =
    let x = Bigarray.Array1.get inputs scratch.ops in
    let q0 = Gc.quick_stat () in
    let m0 = Gc.minor_words () in
    let was_admit = apply w st scratch x in
    let m1 = Gc.minor_words () in
    let q1 = Gc.quick_stat () in
    if was_admit then begin
      incr admits;
      minor := !minor +. (m1 -. m0);
      major := !major +. (q1.Gc.major_words -. q0.Gc.major_words)
    end;
    scratch.ops <- scratch.ops + 1;
    if scratch.ops < w.count_ops then ignore (Engine.schedule eng ~delay:1. handler)
  in
  ignore (Engine.schedule engine ~delay:1. handler);
  ignore (Engine.run engine);
  let ops = float_of_int w.count_ops in
  {
    minor_per_op = (g1.Pb.minor -. g0.Pb.minor) /. ops;
    major_per_op = (g1.Pb.major -. g0.Pb.major) /. ops;
    major_gcs_per_kop = float_of_int (g1.Pb.major_gcs - g0.Pb.major_gcs) *. 1000. /. ops;
    admit_minor = Pb.ratio !minor (float_of_int !admits);
    admit_major = Pb.ratio !major (float_of_int !admits);
  }

(* -- one run -------------------------------------------------------- *)

(* Ops per second the window inputs are sized for; a window that uses
   them all ends early and says so. *)
let max_rate w = if w.reports then 5_000 else 50_000

let run w ~seed ~seconds ~traced ~expected =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let walks = ref [] and times = ref [] and prints = ref [] and last = ref None in
  for _ = 1 to setups do
    last := None;
    Gc.full_major ();
    walks := Pb.calibrate () :: !walks;
    let t0 = Pb.now_ns () in
    let st = setup w ~seed in
    times := Pb.seconds_of_ns (Pb.now_ns () - t0) :: !times;
    prints := fingerprint w st :: !prints;
    last := Some st
  done;
  let st = Option.get !last in
  let print = List.hd !prints in
  if List.exists (fun p -> p <> print) !prints then
    fail "set-ups disagree: %s" (String.concat " | " !prints);
  (match expected with
  | Some e when e <> print -> fail "set-up state %s, recorded for this seed: %s" print e
  | Some _ | None -> ());
  Pb.print_info "set-up state: %s" print;
  let probe, counts =
    if traced then begin
      let p = flooding_probes w ~net:(Drcomm.net st.service) ~pair:st.pair ~seed in
      let c = gc_counts w st (Prng.create (seed lxor 0x2545f491)) in
      (Some p, Some c)
    end
    else (None, None)
  in
  let inputs = gen_inputs w st (Prng.create (seed lxor 0x5bd1e995)) (seconds * max_rate w) in
  let live0 = Drcomm.count st.service in
  (* The traced run splits the window into an untraced and a traced
     half, so it measures for [seconds] too. *)
  let window_s = if traced then max 1 (seconds / 2) else seconds in
  let window ~from ~traced =
    let win = new_window ~seconds:window_s (Bigarray.Array1.dim inputs - from) ~traced in
    run_window ~walk:(not traced) w st win (Engine.create ~capacity:4 ()) inputs ~from
      ~seconds:window_s ~traced
  in
  let win = window ~from:0 ~traced:false in
  let heap_mb = Pb.heap_peak_mb () in
  let expect_live = live0 + win.admits - win.rejects - win.terminates in
  if Drcomm.count st.service <> expect_live then
    fail "live count %d after the window, expected %d" (Drcomm.count st.service) expect_live;
  let twin =
    if traced then Some (window ~from:win.ops ~traced:true)
    else None
  in
  (match Drcomm.check_invariants st.service with
  | () -> ()
  | exception Failure m -> fail "invariants: %s" m);
  (* The median over the window's whole seconds: a burst of host noise
     costs one second, not the run. *)
  let ops_per_s win =
    let full = int_of_float (Pb.seconds_of_ns win.elapsed_ns) in
    if full < 1 then float_of_int (win.ops - win.skipped) /. Pb.seconds_of_ns win.elapsed_ns
    else Pb.median (List.init full (fun b -> float_of_int win.per_second.(b)))
  in
  Pb.print_info "ops per second of the window: %s"
    (String.concat " " (Array.to_list (Array.map string_of_int win.per_second)));
  let walks = List.filter (fun s -> s > 0.) (Array.to_list win.walk_s) @ !walks in
  let slow = Pb.slowness walks in
  Pb.print_info "host slowness %.4f (median of %d calibration walks)" slow (List.length walks);
  if win.ops = Bigarray.Array1.dim inputs then
    Pb.print_info "window used all %d prepared inputs before %d s" win.ops window_s;
  Pb.print_info "ops left out of the percentiles: %d, the CPU held elsewhere for %.1f ms of them"
    win.disturbed (Pb.us_of_ns win.held_ns /. 1e3);
  let term_sorted = Pb.Samples.sorted win.term_ns in
  let n_note s = Printf.sprintf "(n=%d)" (Array.length s) in
  let admit_sorted = Pb.Samples.sorted win.admit_ns in
  let admit_note = Printf.sprintf "(n=%d undisturbed admissions)" (Array.length admit_sorted) in
  let e2e =
    [
      Pb.scaled ~slow "setup_s" "s" (Pb.median !times)
        ~note:(Printf.sprintf "(median of %d set-ups)" setups);
      Pb.scaled ~slow "ops_per_s" "1/s" (ops_per_s win)
        ~note:
          (Printf.sprintf "(median of whole seconds; %d ops in %.3f s, %d after a walk left out)"
             (win.ops - win.skipped) (Pb.seconds_of_ns win.elapsed_ns) win.skipped);
      Pb.scaled ~slow "op_p50_us" "us" (Pb.Samples.percentile_us admit_sorted 0.5)
        ~note:admit_note;
      Pb.scaled ~slow "op_p99_us" "us" (Pb.Samples.percentile_us admit_sorted 0.99)
        ~note:admit_note;
      Pb.metric "heap_peak_mb" "MB" heap_mb;
    ]
  in
  let extra =
    [
      Pb.metric "reject_share" "share"
        (Pb.ratio (float_of_int win.rejects) (float_of_int win.admits))
        ~note:(Printf.sprintf "(%d of %d admissions)" win.rejects win.admits);
      Pb.metric "terminate_p50_us" "us" (Pb.Samples.percentile_us term_sorted 0.5) ~note:(n_note term_sorted);
      Pb.metric "terminate_p99_us" "us" (Pb.Samples.percentile_us term_sorted 0.99) ~note:(n_note term_sorted);
    ]
  in
  let layers =
    match (probe, counts, twin) with
    | Some p, Some c, Some t ->
      let ops = float_of_int t.ops in
      let per_op ns = Pb.us_of_ns ns /. ops in
      let engine_self = t.elapsed_ns - t.handler_ns in
      let lag = Pb.Samples.sorted t.lag_ns in
      [
        ("flooding.primary.us_per_op", p.primary_us);
        ("flooding.backup.us_per_op", p.backup_us);
        ("flooding.primary.minor_words_per_op", p.primary_minor);
        ("flooding.primary.major_words_per_op", p.primary_major);
        ("drcomm.admit.us_per_op", Pb.ratio (Pb.us_of_ns t.admit_self_ns) (float_of_int t.admits));
        ("drcomm.admit.minor_words_per_op", c.admit_minor);
        ("drcomm.admit.major_words_per_op", c.admit_major);
        ("drcomm.terminate.us_per_op", Pb.ratio (Pb.us_of_ns t.term_self_ns) (float_of_int t.terminates));
        ("drcomm.redistribute.us_per_op", per_op t.redist_ns);
        ("drcomm.redistribute.share", Pb.ratio (float_of_int t.redist_ns) (float_of_int t.call_ns));
        ("gc.minor_words_per_op", c.minor_per_op);
        ("gc.major_words_per_op", c.major_per_op);
        ("gc.major_collections_per_kop", c.major_gcs_per_kop);
        ("engine.self_us_per_event", per_op engine_self);
        ("gen.lag_p99_us", Pb.Samples.percentile_us lag 0.99);
        ("gen.outstanding_max", 1.);
        ( "unattributed_share",
          1.
          -. float_of_int (t.admit_self_ns + t.term_self_ns + t.redist_ns + engine_self)
             /. float_of_int t.elapsed_ns );
        ("trace_overhead", 1. -. Pb.ratio (ops_per_s t) (ops_per_s win));
      ]
    | _ -> []
  in
  let attempted = win.ops + (match twin with Some t -> t.ops | None -> 0) in
  let errors = win.errors + (match twin with Some t -> t.errors | None -> 0) in
  {
    Outcome.failures = List.rev !failures;
    attempted;
    failed = errors + List.length !failures;
    e2e;
    extra;
    layers;
  }
