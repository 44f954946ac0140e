(* Shared harness pieces: an allocation-free clock, raw-sample buffers,
   a host-speed calibration walk, GC readings, the paper's network, and
   the result printer. *)

external now_ns : unit -> (int[@untagged]) = "pb_now_ns_byte" "pb_now_ns"
[@@noalloc]

external nth_cpu : int -> int = "pb_nth_cpu"
(** The n-th CPU this process may run on, or -1. *)

external pin_cpu : int -> bool = "pb_pin_cpu"

(* The benchmark process and the broker daemon get one CPU each when
   there are two; read before the benchmark pins itself. *)
let bench_cpu, daemon_cpu =
  let a = nth_cpu 0 and b = nth_cpu 1 in
  if a >= 0 && b >= 0 then (Some a, Some b) else (None, None)

let pin = function Some cpu -> pin_cpu cpu | None -> false

(* A gap: more than this much wall time in which the host or another
   task held the CPU a workload runs on (see Broker_mix). *)
let disturbance_ns = 200_000

external thread_cpu_ns : unit -> (int[@untagged])
  = "pb_thread_cpu_ns_byte" "pb_thread_cpu_ns"
[@@noalloc]
(** The calling thread's CPU time, without the time the host took the
    CPU away. *)

external idle_watch : int -> Unix.file_descr -> int -> bool = "pb_idle_watch"
(** [idle_watch pid fd thresh_ns] spins at idle priority and writes to
    [fd] every gap longer than [thresh_ns] in which neither it nor
    process [pid] held the CPU, and every 50 ms the time its own
    uninterrupted turns took (see pb_stubs.c); [false] if the priority
    or [pid]'s CPU clock is refused. *)

let seconds_of_ns ns = float_of_int ns *. 1e-9
let us_of_ns ns = float_of_int ns *. 1e-3

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Raw latency samples in nanoseconds, kept off the OCaml heap so the
   buffers neither show in the heap figures nor cost anything per
   recorded sample. *)
module Samples = struct
  type t = {
    data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
    mutable n : int;
  }

  let create capacity =
    { data = Bigarray.Array1.create Bigarray.int Bigarray.c_layout capacity; n = 0 }

  let add t v =
    if t.n < Bigarray.Array1.dim t.data then begin
      Bigarray.Array1.unsafe_set t.data t.n v;
      t.n <- t.n + 1
    end

  let count t = t.n
  let get t i = if i < t.n then Bigarray.Array1.get t.data i else invalid_arg "Samples.get"

  let sorted t =
    let a = Array.init t.n (Bigarray.Array1.get t.data) in
    Array.sort compare a;
    a

  (* Nearest-rank percentile of the raw samples, in microseconds. *)
  let percentile_us sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.
    else
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      us_of_ns sorted.(max 0 (min (n - 1) (rank - 1)))

  let mean_us t =
    if t.n = 0 then 0.
    else begin
      let s = ref 0 in
      for i = 0 to t.n - 1 do
        s := !s + Bigarray.Array1.unsafe_get t.data i
      done;
      us_of_ns !s /. float_of_int t.n
    end
end

(* -- host speed ------------------------------------------------------ *)

(* The churn workloads' speed drifts by up to half again between runs
   minutes apart, with how much of the shared last-level cache other
   tenants leave them, and a dependent walk through a 32 MiB table
   taken between their operations sees the same share.  [calibrate]
   times a fixed walk of [cal_hops] steps through that off-heap table
   -- benchmark code, none of the repository's -- and their timed
   end-to-end figures are scaled by the run's median walk time over
   [reference_s]: they read as on a host whose walk takes 6 ms.  (The
   broker workload has a slowness of its own; see Broker_mix.) *)
let reference_s = 0.006
let cal_hops = 25_000

let cal_table =
  lazy
    (let n = 1 lsl 23 in
     let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
     for i = 0 to n - 1 do
       (* a full-period LCG over the indices: one cycle through all *)
       Bigarray.Array1.unsafe_set a i (Int32.of_int (((i * 1_103_515_245) + 12_345) land (n - 1)))
     done;
     a)

let calibrate () =
  let table = Lazy.force cal_table in
  let t0 = now_ns () in
  let x = ref 1 in
  for _ = 1 to cal_hops do
    x := Int32.to_int (Bigarray.Array1.unsafe_get table !x)
  done;
  ignore (Sys.opaque_identity !x);
  seconds_of_ns (now_ns () - t0)

(* Host slowness (1 = the reference host): the median of a run's walks. *)
let slowness walks = median walks /. reference_s

(* Whole-process GC counters, read only outside untraced timed windows
   (quick_stat allocates its record). *)
type gc_reading = { minor : float; major : float; major_gcs : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; major = s.Gc.major_words; major_gcs = s.Gc.major_collections }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let ratio a b = if b > 0. then a /. b else 0.

(* The paper's Fig. 2 network: the calibrated 100-node Waxman instance
   that Scenario.default builds for seed 1, with 10 Mbps links.  The
   topology is fixed; the benchmark seed only draws the workload. *)
let paper_graph () = Waxman.generate (Prng.create 1) (Waxman.paper_spec ~nodes:100)

(* The paper's QoS: 100..500 Kbps in steps of 50. *)
let paper_qos = Qos.paper_spec ~increment:(Bandwidth.kbps 50)

(* A distinct ordered pair in [0, n) from one draw each, like
   Prng.sample_distinct_pair. *)
let distinct_pair rng n =
  let a = Prng.int rng n in
  let b = Prng.int rng (n - 1) in
  (a, if b >= a then b + 1 else b)

(* ------------------------------------------------------------------ *)
(* Result printing                                                     *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

(* A timed end-to-end figure scaled to the reference host: durations
   divide by the run's slowness, rates multiply by it.  The raw value
   stays in the note. *)
let scaled ~slow ?(note = "") name unit_ raw =
  let value = if unit_ = "1/s" then raw *. slow else raw /. slow in
  metric name unit_ value ~note:(Printf.sprintf "%s (unscaled %.6g)" note raw)

let stamp ~workload ~seed ~seconds ~trace ~transport =
  Printf.printf
    "# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d ocaml=%s \
     OCAMLRUNPARAM=%s transport=%s\n"
    workload seed seconds trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"(unset)")
    transport

let print_info fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

(* Human-readable lines for every metric, then the one-line JSON result
   that must close standard output. *)
let finish ~correct ~attempted ~failed ~(reported : metric list)
    ~(extra : metric list) =
  let line m =
    Printf.printf "%-44s %16.6g %-6s %s\n" m.name m.value m.unit_ m.note
  in
  List.iter line reported;
  if extra <> [] then begin
    print_endline "  (not bounded metrics: for reading only)";
    List.iter line extra
  end;
  Printf.printf "%-44s %16.6g share  (%d of %d failed)\n" "fail_share"
    (ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  let json =
    Jsonx.Obj
      [
        ("correct", Jsonx.Bool correct);
        ("attempted", Jsonx.Int attempted);
        ("failed", Jsonx.Int failed);
        ( "metrics",
          Jsonx.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Jsonx.Obj
                     [ ("value", Jsonx.Float m.value); ("unit", Jsonx.String m.unit_) ]
                 ))
               reported) );
      ]
  in
  print_endline (Jsonx.to_string json)
