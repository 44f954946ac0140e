(* Tests for CTMC/DTMC solvers against closed-form oracles. *)

let approx = Alcotest.float 1e-9
let loose = Alcotest.float 1e-6

let test_two_state_stationary () =
  let c = Ctmc.create 2 in
  Ctmc.add_rate c ~src:0 ~dst:1 1.;
  Ctmc.add_rate c ~src:1 ~dst:0 3.;
  let pi = Ctmc.stationary c in
  Alcotest.check approx "pi0" 0.75 pi.(0);
  Alcotest.check approx "pi1" 0.25 pi.(1)

let test_rates_accumulate () =
  let c = Ctmc.create 2 in
  Ctmc.add_rate c ~src:0 ~dst:1 1.;
  Ctmc.add_rate c ~src:0 ~dst:1 2.;
  Alcotest.check approx "accumulated" 3. (Ctmc.rate c ~src:0 ~dst:1)

let test_self_rate_rejected () =
  let c = Ctmc.create 2 in
  Alcotest.check_raises "self" (Invalid_argument "Ctmc.add_rate: src = dst") (fun () ->
      Ctmc.add_rate c ~src:1 ~dst:1 1.)

let test_negative_rate_rejected () =
  let c = Ctmc.create 2 in
  Alcotest.check_raises "negative" (Invalid_argument "Ctmc.add_rate: negative rate")
    (fun () -> Ctmc.add_rate c ~src:0 ~dst:1 (-1.))

let test_generator_rows_sum_to_zero () =
  let c = Ctmc.create 3 in
  Ctmc.add_rate c ~src:0 ~dst:1 2.;
  Ctmc.add_rate c ~src:1 ~dst:2 1.;
  Ctmc.add_rate c ~src:2 ~dst:0 4.;
  Ctmc.add_rate c ~src:0 ~dst:2 0.5;
  let sums = Matrix.row_sums (Ctmc.generator c) in
  Array.iter (fun s -> Alcotest.check approx "row sum" 0. s) sums

let test_reducible_raises () =
  let c = Ctmc.create 3 in
  Ctmc.add_rate c ~src:0 ~dst:1 1.;
  (* state 2 unreachable and absorbing-ish: chain reducible *)
  Alcotest.check_raises "reducible" Linsolve.Singular (fun () ->
      ignore (Ctmc.stationary c))

let test_mean_reward () =
  let c = Ctmc.create 2 in
  Ctmc.add_rate c ~src:0 ~dst:1 1.;
  Ctmc.add_rate c ~src:1 ~dst:0 1.;
  Alcotest.check approx "mean of levels" 0.5
    (Ctmc.mean_reward c float_of_int);
  Alcotest.check approx "mean of bandwidths" 150.
    (Ctmc.mean_reward c (fun i -> if i = 0 then 100. else 200.))

let test_holding_time () =
  let c = Ctmc.create 3 in
  Ctmc.add_rate c ~src:0 ~dst:1 2.;
  Ctmc.add_rate c ~src:0 ~dst:2 2.;
  Alcotest.check approx "1/(2+2)" 0.25 (Ctmc.holding_time c 0);
  Alcotest.(check bool) "absorbing" true (Ctmc.holding_time c 2 = infinity)

let test_embedded_dtmc () =
  let c = Ctmc.create 3 in
  Ctmc.add_rate c ~src:0 ~dst:1 1.;
  Ctmc.add_rate c ~src:0 ~dst:2 3.;
  Ctmc.add_rate c ~src:1 ~dst:0 5.;
  let p = Ctmc.embedded_dtmc c in
  Alcotest.check approx "p01" 0.25 (Matrix.get p 0 1);
  Alcotest.check approx "p02" 0.75 (Matrix.get p 0 2);
  Alcotest.check approx "p10" 1. (Matrix.get p 1 0);
  Alcotest.check approx "absorbing self-loop" 1. (Matrix.get p 2 2)

let test_transient_converges_to_stationary () =
  let c = Ctmc.create 3 in
  Ctmc.add_rate c ~src:0 ~dst:1 1.;
  Ctmc.add_rate c ~src:1 ~dst:2 2.;
  Ctmc.add_rate c ~src:2 ~dst:0 3.;
  Ctmc.add_rate c ~src:1 ~dst:0 1.;
  let pi = Ctmc.stationary c in
  let pt = Ctmc.transient c ~p0:[| 1.; 0.; 0. |] ~horizon:200. () in
  Array.iteri (fun i p -> Alcotest.check loose "converged" pi.(i) p) pt

let test_transient_zero_horizon () =
  let c = Ctmc.create 2 in
  Ctmc.add_rate c ~src:0 ~dst:1 1.;
  let p = Ctmc.transient c ~p0:[| 0.3; 0.7 |] ~horizon:0. () in
  Alcotest.(check (array approx)) "unchanged" [| 0.3; 0.7 |] p

let test_transient_mass_conserved () =
  let c = Ctmc.create 4 in
  Ctmc.add_rate c ~src:0 ~dst:1 0.7;
  Ctmc.add_rate c ~src:1 ~dst:2 1.3;
  Ctmc.add_rate c ~src:2 ~dst:3 0.2;
  Ctmc.add_rate c ~src:3 ~dst:0 2.;
  let p = Ctmc.transient c ~p0:[| 1.; 0.; 0.; 0. |] ~horizon:5. () in
  Alcotest.check loose "sums to 1" 1. (Array.fold_left ( +. ) 0. p);
  Array.iter (fun x -> Alcotest.(check bool) "non-negative" true (x >= 0.)) p

(* --- First passage / hitting --- *)

let test_first_passage_two_state () =
  let c = Ctmc.create 2 in
  Ctmc.add_rate c ~src:0 ~dst:1 4.;
  Ctmc.add_rate c ~src:1 ~dst:0 1.;
  let h = Ctmc.mean_first_passage c ~targets:[ 1 ] in
  Alcotest.check approx "1/rate" 0.25 h.(0);
  Alcotest.check approx "target is 0" 0. h.(1)

let test_first_passage_birth_death () =
  (* Levels 0..2, up rate lambda = 1, down rate mu = 2.  Closed forms:
     h1 = (lambda + mu) / mu^2 = 3/4, h2 = 1/mu + h1 = 5/4. *)
  let c = Birth_death.to_ctmc ~birth:[| 1.; 1. |] ~death:[| 2.; 2. |] in
  let h = Ctmc.mean_first_passage c ~targets:[ 0 ] in
  Alcotest.check approx "h1" 0.75 h.(1);
  Alcotest.check approx "h2" 1.25 h.(2)

let test_first_passage_unreachable () =
  let c = Ctmc.create 3 in
  Ctmc.add_rate c ~src:0 ~dst:1 1.;
  Ctmc.add_rate c ~src:1 ~dst:0 1.;
  (* state 2 is isolated; target {2} unreachable from 0 and 1. *)
  Alcotest.check_raises "unreachable" Linsolve.Singular (fun () ->
      ignore (Ctmc.mean_first_passage c ~targets:[ 2 ]))

let test_first_passage_validation () =
  let c = Ctmc.create 2 in
  Alcotest.check_raises "empty" (Invalid_argument "Ctmc.mean_first_passage: empty state list")
    (fun () -> ignore (Ctmc.mean_first_passage c ~targets:[]))

let test_hitting_probability_symmetric_walk () =
  (* Symmetric walk on 0..2: from the middle, hitting 2 before 0 has
     probability 1/2. *)
  let c = Birth_death.to_ctmc ~birth:[| 1.; 1. |] ~death:[| 1.; 1. |] in
  let p = Ctmc.hitting_probability c ~targets:[ 2 ] ~avoid:[ 0 ] in
  Alcotest.check approx "middle" 0.5 p.(1);
  Alcotest.check approx "target" 1. p.(2);
  Alcotest.check approx "avoid" 0. p.(0)

let test_hitting_probability_biased () =
  (* Up rate 2, down rate 1 on 0..2: from 1, P(2 before 0) = 2/3. *)
  let c = Birth_death.to_ctmc ~birth:[| 2.; 2. |] ~death:[| 1.; 1. |] in
  let p = Ctmc.hitting_probability c ~targets:[ 2 ] ~avoid:[ 0 ] in
  Alcotest.check approx "biased" (2. /. 3.) p.(1)

let test_hitting_probability_overlap_rejected () =
  let c = Ctmc.create 3 in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Ctmc.hitting_probability: targets and avoid overlap") (fun () ->
      ignore (Ctmc.hitting_probability c ~targets:[ 1 ] ~avoid:[ 1; 2 ]))

(* --- Birth-death oracles --- *)

let test_birth_death_matches_ctmc () =
  let birth = [| 1.; 2.; 0.5 |] and death = [| 3.; 1.; 2. |] in
  let closed = Birth_death.stationary ~birth ~death in
  let solved = Ctmc.stationary (Birth_death.to_ctmc ~birth ~death) in
  Array.iteri (fun i p -> Alcotest.check loose "same" p solved.(i)) closed

let test_mm1k_known () =
  (* M/M/1/2 with lambda = mu: uniform over 3 levels. *)
  let pi = Birth_death.mm1k ~lambda:1. ~mu:1. ~k:2 in
  Array.iter (fun p -> Alcotest.check approx "uniform" (1. /. 3.) p) pi

let test_mm1k_light_load () =
  (* rho = 0.1: pi_i proportional to rho^i. *)
  let pi = Birth_death.mm1k ~lambda:0.1 ~mu:1. ~k:2 in
  Alcotest.check loose "ratio 1" 0.1 (pi.(1) /. pi.(0));
  Alcotest.check loose "ratio 2" 0.1 (pi.(2) /. pi.(1))

let test_mean_level () =
  Alcotest.check approx "mean" 1. (Birth_death.mean_level [| 0.25; 0.5; 0.25 |])

let test_birth_death_validation () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Birth_death.stationary: birth/death length mismatch") (fun () ->
      ignore (Birth_death.stationary ~birth:[| 1. |] ~death:[| 1.; 2. |]))

(* --- DTMC --- *)

let test_dtmc_stationary () =
  let p = Matrix.of_arrays [| [| 0.9; 0.1 |]; [| 0.3; 0.7 |] |] in
  let pi = Dtmc.stationary p in
  Alcotest.check approx "pi0" 0.75 pi.(0);
  Alcotest.check approx "pi1" 0.25 pi.(1)

let test_dtmc_validate_rejects () =
  Alcotest.check_raises "bad row" (Invalid_argument "Dtmc.validate: row 0 sums to 0.8")
    (fun () -> Dtmc.validate (Matrix.of_arrays [| [| 0.8 |] |]))

let test_power_iteration_agrees () =
  let p =
    Matrix.of_arrays
      [| [| 0.5; 0.25; 0.25 |]; [| 0.2; 0.6; 0.2 |]; [| 0.1; 0.3; 0.6 |] |]
  in
  let direct = Dtmc.stationary p in
  let power = Dtmc.power_iteration ~iters:2000 p [| 1.; 0.; 0. |] in
  Array.iteri (fun i x -> Alcotest.check loose "agree" x power.(i)) direct

let test_expected_jump () =
  let p = Matrix.of_arrays [| [| 0.5; 0.5 |]; [| 0.; 1. |] |] in
  Alcotest.check approx "from 0" 0.5 (Dtmc.expected_jump p float_of_int 0);
  Alcotest.check approx "from 1" 1. (Dtmc.expected_jump p float_of_int 1)

(* Gillespie cross-check: simulate the chain's trajectory with the
   stochastic simulation algorithm (exponential holding times, jump by
   embedded probabilities) and compare the time-weighted state occupancy
   against the solved stationary vector — validates Ctmc, Prng and the
   statistics stack together. *)
let test_gillespie_matches_stationary () =
  let c = Ctmc.create 4 in
  Ctmc.add_rate c ~src:0 ~dst:1 2.;
  Ctmc.add_rate c ~src:1 ~dst:2 1.5;
  Ctmc.add_rate c ~src:2 ~dst:3 1.;
  Ctmc.add_rate c ~src:3 ~dst:0 2.5;
  Ctmc.add_rate c ~src:1 ~dst:0 0.5;
  Ctmc.add_rate c ~src:2 ~dst:0 0.25;
  let pi = Ctmc.stationary c in
  let rng = Prng.create 99 in
  let occupancy = Array.make 4 0. in
  let state = ref 0 in
  let total = ref 0. in
  for _ = 1 to 200_000 do
    let exit_rate =
      List.fold_left (fun acc j -> acc +. Ctmc.rate c ~src:!state ~dst:j) 0.
        (List.filter (fun j -> j <> !state) [ 0; 1; 2; 3 ])
    in
    let dwell = Prng.exponential rng exit_rate in
    occupancy.(!state) <- occupancy.(!state) +. dwell;
    total := !total +. dwell;
    (* Jump proportionally to the outgoing rates. *)
    let u = ref (Prng.float rng exit_rate) in
    let next = ref !state in
    List.iter
      (fun j ->
        if j <> !state && !next = !state then begin
          let r = Ctmc.rate c ~src:!state ~dst:j in
          if !u < r then next := j else u := !u -. r
        end)
      [ 0; 1; 2; 3 ];
    state := !next
  done;
  Array.iteri
    (fun i p ->
      let empirical = occupancy.(i) /. !total in
      Alcotest.(check bool)
        (Printf.sprintf "state %d: %.4f vs %.4f" i p empirical)
        true
        (Float.abs (p -. empirical) < 0.01))
    pi

(* Property: for random irreducible birth-death chains, the generic CTMC
   solver agrees with the closed form. *)
let qcheck_bd_oracle =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 7 in
      let* birth = array_size (return n) (float_range 0.1 5.) in
      let* death = array_size (return n) (float_range 0.1 5.) in
      return (birth, death))
  in
  QCheck.Test.make ~name:"ctmc solver matches birth-death closed form" ~count:200
    (QCheck.make gen)
    (fun (birth, death) ->
      let closed = Birth_death.stationary ~birth ~death in
      let solved = Ctmc.stationary (Birth_death.to_ctmc ~birth ~death) in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-8) closed solved)

(* Property: the stationary vector is invariant under the transient
   operator. *)
let qcheck_stationary_fixed_point =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 6 in
      let* rates = array_size (return (n * n)) (float_range 0.05 3.) in
      return (n, rates))
  in
  QCheck.Test.make ~name:"stationary is a fixed point of transient" ~count:100
    (QCheck.make gen)
    (fun (n, rates) ->
      let c = Ctmc.create n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then Ctmc.add_rate c ~src:i ~dst:j rates.((i * n) + j)
        done
      done;
      let pi = Ctmc.stationary c in
      let pt = Ctmc.transient c ~p0:pi ~horizon:3. () in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) pi pt)

let () =
  Alcotest.run "markov"
    [
      ( "ctmc",
        [
          Alcotest.test_case "two-state stationary" `Quick test_two_state_stationary;
          Alcotest.test_case "rates accumulate" `Quick test_rates_accumulate;
          Alcotest.test_case "self rate rejected" `Quick test_self_rate_rejected;
          Alcotest.test_case "negative rate rejected" `Quick test_negative_rate_rejected;
          Alcotest.test_case "generator rows" `Quick test_generator_rows_sum_to_zero;
          Alcotest.test_case "reducible raises" `Quick test_reducible_raises;
          Alcotest.test_case "mean reward" `Quick test_mean_reward;
          Alcotest.test_case "holding time" `Quick test_holding_time;
          Alcotest.test_case "embedded dtmc" `Quick test_embedded_dtmc;
        ] );
      ( "gillespie",
        [
          Alcotest.test_case "SSA matches stationary" `Quick
            test_gillespie_matches_stationary;
        ] );
      ( "transient",
        [
          Alcotest.test_case "converges to stationary" `Quick
            test_transient_converges_to_stationary;
          Alcotest.test_case "zero horizon" `Quick test_transient_zero_horizon;
          Alcotest.test_case "mass conserved" `Quick test_transient_mass_conserved;
        ] );
      ( "first-passage",
        [
          Alcotest.test_case "two-state" `Quick test_first_passage_two_state;
          Alcotest.test_case "birth-death closed form" `Quick
            test_first_passage_birth_death;
          Alcotest.test_case "unreachable" `Quick test_first_passage_unreachable;
          Alcotest.test_case "validation" `Quick test_first_passage_validation;
          Alcotest.test_case "symmetric walk hitting" `Quick
            test_hitting_probability_symmetric_walk;
          Alcotest.test_case "biased walk hitting" `Quick test_hitting_probability_biased;
          Alcotest.test_case "overlap rejected" `Quick
            test_hitting_probability_overlap_rejected;
        ] );
      ( "birth-death",
        [
          Alcotest.test_case "matches ctmc" `Quick test_birth_death_matches_ctmc;
          Alcotest.test_case "mm1k symmetric" `Quick test_mm1k_known;
          Alcotest.test_case "mm1k light load" `Quick test_mm1k_light_load;
          Alcotest.test_case "mean level" `Quick test_mean_level;
          Alcotest.test_case "validation" `Quick test_birth_death_validation;
        ] );
      ( "dtmc",
        [
          Alcotest.test_case "stationary" `Quick test_dtmc_stationary;
          Alcotest.test_case "validation" `Quick test_dtmc_validate_rejects;
          Alcotest.test_case "power iteration" `Quick test_power_iteration_agrees;
          Alcotest.test_case "expected jump" `Quick test_expected_jump;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_bd_oracle; qcheck_stationary_fixed_point ] );
    ]
