(* Tests for the network domain layer: bandwidth, QoS specs, directed
   links, per-link reservation state, policies, and the run-time
   substrate (interval QoS). *)

let approx = Alcotest.float 1e-9

(* --- Bandwidth --- *)

let test_bandwidth_units () =
  Alcotest.(check int) "mbps" 10_000 (Bandwidth.mbps 10);
  Alcotest.check approx "to float" 0.5 (Bandwidth.to_float_mbps 500);
  Alcotest.(check int) "paper capacity" 10_000 Bandwidth.paper_link_capacity

let test_bandwidth_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Bandwidth.kbps: negative")
    (fun () -> ignore (Bandwidth.kbps (-1)))

let test_bandwidth_pp () =
  Alcotest.(check string) "kbps" "350Kbps" (Format.asprintf "%a" Bandwidth.pp 350);
  Alcotest.(check string) "mbps" "10Mbps" (Format.asprintf "%a" Bandwidth.pp 10_000)

(* --- Qos --- *)

let paper50 = Qos.paper_spec ~increment:50
let paper100 = Qos.paper_spec ~increment:100

let test_qos_levels () =
  Alcotest.(check int) "9 states at 50K" 9 (Qos.levels paper50);
  Alcotest.(check int) "5 states at 100K" 5 (Qos.levels paper100)

let test_qos_level_bandwidth_roundtrip () =
  for i = 0 to 8 do
    let bw = Qos.bandwidth_of_level paper50 i in
    Alcotest.(check int) "grid" (100 + (i * 50)) bw;
    Alcotest.(check int) "roundtrip" i (Qos.level_of_bandwidth paper50 bw)
  done

let test_qos_off_grid () =
  Alcotest.check_raises "off grid"
    (Invalid_argument "Qos.level_of_bandwidth: 130 not on grid") (fun () ->
      ignore (Qos.level_of_bandwidth paper50 130))

let test_qos_validation () =
  Alcotest.check_raises "range not multiple"
    (Invalid_argument "Qos.make: range must be an integral number of increments")
    (fun () -> ignore (Qos.make ~b_min:100 ~b_max:250 ~increment:100 ()));
  Alcotest.check_raises "b_max < b_min" (Invalid_argument "Qos.make: b_max < b_min")
    (fun () -> ignore (Qos.make ~b_min:200 ~b_max:100 ~increment:50 ()))

let test_qos_single_value () =
  let q = Qos.single_value 300 in
  Alcotest.(check int) "one level" 1 (Qos.levels q);
  Alcotest.(check bool) "not elastic" false (Qos.is_elastic q);
  Alcotest.(check bool) "paper spec is elastic" true (Qos.is_elastic paper50)

(* --- Dirlink --- *)

let line_graph () =
  (* 0 - 1 - 2 - 3 *)
  let g = Graph.create 4 in
  let e0 = Graph.add_edge g 0 1 in
  let e1 = Graph.add_edge g 1 2 in
  let e2 = Graph.add_edge g 2 3 in
  (g, e0, e1, e2)

let test_dirlink_ids () =
  let g, e0, _, _ = line_graph () in
  Alcotest.(check int) "count" 6 (Dirlink.count g);
  let fwd = Dirlink.of_edge g ~edge:e0 ~src:0 in
  let bwd = Dirlink.of_edge g ~edge:e0 ~src:1 in
  Alcotest.(check int) "forward" 0 fwd;
  Alcotest.(check int) "backward" 1 bwd;
  Alcotest.(check int) "reverse involution" fwd (Dirlink.reverse bwd);
  Alcotest.(check int) "edge recovery" e0 (Dirlink.edge bwd);
  Alcotest.(check (pair int int)) "endpoints fwd" (0, 1) (Dirlink.endpoints g fwd);
  Alcotest.(check (pair int int)) "endpoints bwd" (1, 0) (Dirlink.endpoints g bwd)

let test_dirlink_of_path () =
  let g, _, _, _ = line_graph () in
  let p = Option.get (Paths.shortest_path g 3 0) in
  let dls = Dirlink.of_path g p in
  Alcotest.(check int) "three links" 3 (List.length dls);
  List.iter2
    (fun dl (src, dst) ->
      Alcotest.(check (pair int int)) "direction" (src, dst) (Dirlink.endpoints g dl))
    dls
    [ (3, 2); (2, 1); (1, 0) ]

let test_dirlink_shares_edge () =
  let g, e0, e1, _ = line_graph () in
  let fwd = [ Dirlink.of_edge g ~edge:e0 ~src:0 ] in
  let bwd = [ Dirlink.of_edge g ~edge:e0 ~src:1 ] in
  let other = [ Dirlink.of_edge g ~edge:e1 ~src:1 ] in
  Alcotest.(check bool) "opposite directions share" true (Dirlink.shares_edge fwd bwd);
  Alcotest.(check bool) "distinct edges do not" false (Dirlink.shares_edge fwd other)

(* --- Link_state --- *)

let test_link_reserve_release () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.reserve_primary l ~channel:1 ~b_min:100;
  Link_state.reserve_primary l ~channel:2 ~b_min:200;
  Alcotest.(check int) "total" 300 (Link_state.primary_total l);
  Alcotest.(check int) "min total" 300 (Link_state.primary_min_total l);
  Alcotest.(check int) "spare" 700 (Link_state.spare l);
  Link_state.release_primary l ~channel:1;
  Alcotest.(check int) "after release" 200 (Link_state.primary_total l);
  Alcotest.(check (option int)) "gone" None (Link_state.primary_reservation l ~channel:1);
  Link_state.check_invariant l

let test_link_double_reserve_rejected () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.reserve_primary l ~channel:1 ~b_min:100;
  Alcotest.check_raises "double"
    (Invalid_argument "Link_state.reserve_primary: channel already reserved here")
    (fun () -> Link_state.reserve_primary l ~channel:1 ~b_min:100)

let test_link_admission_uses_floors () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.reserve_primary l ~channel:1 ~b_min:300;
  (* Extras fill the link physically... *)
  Link_state.set_primary l ~channel:1 1000;
  Alcotest.(check int) "no spare" 0 (Link_state.spare l);
  (* ...but admission sees the reclaimable floor. *)
  Alcotest.(check bool) "admissible despite extras" true
    (Link_state.admissible_primary l ~b_min:700);
  Alcotest.(check bool) "but not beyond floors" false
    (Link_state.admissible_primary l ~b_min:701);
  (* Reserving without reclaiming extras must fail loudly. *)
  Alcotest.check_raises "reclaim first"
    (Invalid_argument "Link_state.reserve_primary: reclaim extras first") (fun () ->
      Link_state.reserve_primary l ~channel:2 ~b_min:700)

let test_link_set_primary_constraints () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.reserve_primary l ~channel:1 ~b_min:100;
  Link_state.set_primary l ~channel:1 900;
  Alcotest.(check (option int)) "upgraded" (Some 900)
    (Link_state.primary_reservation l ~channel:1);
  Alcotest.check_raises "below floor"
    (Invalid_argument "Link_state.set_primary: below floor") (fun () ->
      Link_state.set_primary l ~channel:1 50);
  Alcotest.check_raises "beyond capacity"
    (Invalid_argument "Link_state.set_primary: would exceed link capacity") (fun () ->
      Link_state.set_primary l ~channel:1 1001);
  Link_state.check_invariant l

let test_link_release_unknown () =
  let l = Link_state.create ~capacity:1000 () in
  Alcotest.check_raises "unknown" Not_found (fun () ->
      Link_state.release_primary l ~channel:9)

(* Backup multiplexing: two backups whose primaries are edge-disjoint
   share the pool; a third whose primary overlaps adds to it. *)
let test_backup_multiplexing () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.register_backup l ~channel:1 ~b_min:100 ~primary_edges:[ 7; 8 ];
  Alcotest.(check int) "one backup" 100 (Link_state.backup_pool l);
  (* Disjoint primary: multiplexes for free. *)
  Link_state.register_backup l ~channel:2 ~b_min:100 ~primary_edges:[ 9; 10 ];
  Alcotest.(check int) "still 100" 100 (Link_state.backup_pool l);
  (* Overlapping primary (edge 8): must add. *)
  Link_state.register_backup l ~channel:3 ~b_min:100 ~primary_edges:[ 8; 11 ];
  Alcotest.(check int) "grows to 200" 200 (Link_state.backup_pool l);
  Link_state.unregister_backup l ~channel:3;
  Alcotest.(check int) "shrinks back" 100 (Link_state.backup_pool l);
  Link_state.check_invariant l

let test_backup_pool_with_is_pure () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.register_backup l ~channel:1 ~b_min:100 ~primary_edges:[ 1 ];
  let predicted = Link_state.backup_pool_with l ~b_min:150 ~primary_edges:[ 1 ] in
  Alcotest.(check int) "prediction" 250 predicted;
  Alcotest.(check int) "state unchanged" 100 (Link_state.backup_pool l);
  Link_state.register_backup l ~channel:2 ~b_min:150 ~primary_edges:[ 1 ];
  Alcotest.(check int) "prediction was right" predicted (Link_state.backup_pool l)

let test_backup_no_multiplexing_mode () =
  let l = Link_state.create ~multiplexing:false ~capacity:1000 () in
  Link_state.register_backup l ~channel:1 ~b_min:100 ~primary_edges:[ 7 ];
  Link_state.register_backup l ~channel:2 ~b_min:100 ~primary_edges:[ 9 ];
  (* Disjoint primaries, but without multiplexing the pool is the sum. *)
  Alcotest.(check int) "plain sum" 200 (Link_state.backup_pool l)

let test_backup_blocks_admission () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.register_backup l ~channel:1 ~b_min:400 ~primary_edges:[ 1 ];
  Alcotest.(check int) "headroom" 600 (Link_state.reclaimable_headroom l);
  Alcotest.(check bool) "600 fits" true (Link_state.admissible_primary l ~b_min:600);
  Alcotest.(check bool) "601 does not" false (Link_state.admissible_primary l ~b_min:601)

let test_backup_pool_overflow_rejected () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.reserve_primary l ~channel:1 ~b_min:800;
  Alcotest.check_raises "pool too big"
    (Invalid_argument "Link_state.register_backup: pool does not fit") (fun () ->
      Link_state.register_backup l ~channel:2 ~b_min:300 ~primary_edges:[ 1 ])

let test_extras_borrow_backup_pool () =
  (* The paper's §2.2 point: inactive backup bandwidth is usable as
     extras. *)
  let l = Link_state.create ~capacity:1000 () in
  Link_state.register_backup l ~channel:9 ~b_min:500 ~primary_edges:[ 3 ];
  Link_state.reserve_primary l ~channel:1 ~b_min:100;
  Link_state.set_primary l ~channel:1 1000;
  (* 1000 reserved while the pool still guarantees 500: fine... *)
  Link_state.check_invariant l;
  Alcotest.(check bool) "guarantee holds" true (Link_state.guarantee_holds l);
  (* ...because the extras are reclaimable down to the floor. *)
  Alcotest.(check int) "headroom" 400 (Link_state.reclaimable_headroom l)

let test_force_reserve_for_activation () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.register_backup l ~channel:9 ~b_min:500 ~primary_edges:[ 3 ];
  Link_state.reserve_primary l ~channel:1 ~b_min:500;
  (* Normal admission is blocked by the pool... *)
  Alcotest.(check bool) "normal blocked" false
    (Link_state.admissible_primary l ~b_min:500);
  (* ...but activating the backup itself uses force (its bandwidth is the
     pool's). *)
  Link_state.unregister_backup l ~channel:9;
  Link_state.reserve_primary ~force:true l ~channel:9 ~b_min:500;
  Link_state.check_invariant l;
  Alcotest.(check int) "full" 1000 (Link_state.primary_total l)

let test_iter_and_counts () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.reserve_primary l ~channel:1 ~b_min:100;
  Link_state.reserve_primary l ~channel:2 ~b_min:150;
  Alcotest.(check int) "count" 2 (Link_state.primary_count l);
  let sum = ref 0 in
  Link_state.iter_primary_channels (fun _ bw -> sum := !sum + bw) l;
  Alcotest.(check int) "iter sums" 250 !sum;
  Alcotest.(check int) "list length" 2 (List.length (Link_state.primary_channels l))

(* Model-based soak for Link_state: apply random operations, mirroring
   them in a naive reference model, and compare every observable after
   each step.  The reference recomputes the multiplexed pool from scratch
   (max over failure edges of summed floors), which is the definition the
   incremental pool table must match. *)
let qcheck_link_state_model =
  QCheck.Test.make ~name:"link state matches naive reference model" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let capacity = 2000 in
      let l = Link_state.create ~capacity () in
      (* Reference state. *)
      let primaries = Hashtbl.create 8 (* ch -> (reserved, floor) *) in
      let backups = Hashtbl.create 8 (* ch -> (b_min, edges) *) in
      let ref_pool () =
        let by_edge = Hashtbl.create 8 in
        Hashtbl.iter
          (fun _ (b_min, edges) ->
            List.iter
              (fun e ->
                Hashtbl.replace by_edge e
                  (b_min + Option.value ~default:0 (Hashtbl.find_opt by_edge e)))
              edges)
          backups;
        Hashtbl.fold (fun _ v acc -> max v acc) by_edge 0
      in
      let ref_min_total () = Hashtbl.fold (fun _ (_, f) acc -> acc + f) primaries 0 in
      let ref_total () = Hashtbl.fold (fun _ (r, _) acc -> acc + r) primaries 0 in
      let ok = ref true in
      for step = 1 to 120 do
        let ch = Prng.int rng 6 in
        (match Prng.int rng 5 with
        | 0 ->
          (* reserve *)
          let b_min = 100 * (1 + Prng.int rng 4) in
          let fits =
            (not (Hashtbl.mem primaries ch))
            && ref_min_total () + ref_pool () + b_min <= capacity
            && ref_total () + b_min <= capacity
          in
          (match Link_state.reserve_primary l ~channel:ch ~b_min with
          | () ->
            if not fits then ok := false
            else Hashtbl.replace primaries ch (b_min, b_min)
          | exception Invalid_argument _ -> if fits then ok := false)
        | 1 -> (
          (* release *)
          match Link_state.release_primary l ~channel:ch with
          | () ->
            if not (Hashtbl.mem primaries ch) then ok := false
            else Hashtbl.remove primaries ch
          | exception Not_found -> if Hashtbl.mem primaries ch then ok := false)
        | 2 -> (
          (* set reservation *)
          let bw = 100 * (1 + Prng.int rng 8) in
          match Hashtbl.find_opt primaries ch with
          | None -> (
            match Link_state.set_primary l ~channel:ch bw with
            | () -> ok := false
            | exception Invalid_argument _ -> ())
          | Some (r, f) -> (
            let fits = bw >= f && ref_total () - r + bw <= capacity in
            match Link_state.set_primary l ~channel:ch bw with
            | () -> if fits then Hashtbl.replace primaries ch (bw, f) else ok := false
            | exception Invalid_argument _ -> if fits then ok := false))
        | 3 ->
          (* register backup *)
          let b_min = 100 * (1 + Prng.int rng 2) in
          let edges = List.init (1 + Prng.int rng 3) (fun _ -> Prng.int rng 5) in
          let edges = List.sort_uniq compare edges in
          let would =
            let by_edge = Hashtbl.create 8 in
            Hashtbl.iter
              (fun _ (b, es) ->
                List.iter
                  (fun e ->
                    Hashtbl.replace by_edge e
                      (b + Option.value ~default:0 (Hashtbl.find_opt by_edge e)))
                  es)
              backups;
            List.iter
              (fun e ->
                Hashtbl.replace by_edge e
                  (b_min + Option.value ~default:0 (Hashtbl.find_opt by_edge e)))
              edges;
            Hashtbl.fold (fun _ v acc -> max v acc) by_edge 0
          in
          let fits =
            (not (Hashtbl.mem backups ch)) && ref_min_total () + would <= capacity
          in
          (match Link_state.register_backup l ~channel:ch ~b_min ~primary_edges:edges with
          | () ->
            if not fits then ok := false else Hashtbl.replace backups ch (b_min, edges)
          | exception Invalid_argument _ -> if fits then ok := false)
        | _ -> (
          (* unregister backup *)
          match Link_state.unregister_backup l ~channel:ch with
          | () ->
            if not (Hashtbl.mem backups ch) then ok := false
            else Hashtbl.remove backups ch
          | exception Not_found -> if Hashtbl.mem backups ch then ok := false));
        (* Observables must agree after every step. *)
        if
          Link_state.primary_total l <> ref_total ()
          || Link_state.primary_min_total l <> ref_min_total ()
          || Link_state.backup_pool l <> ref_pool ()
        then ok := false;
        (match Link_state.check_invariant l with
        | () -> ()
        | exception Failure _ -> ok := false);
        ignore step
      done;
      !ok)

(* --- Net_state --- *)

let test_net_state_basics () =
  let g, _, _, _ = line_graph () in
  let net = Net_state.create ~capacity:500 g in
  Alcotest.(check int) "links" 6 (Net_state.link_count net);
  Alcotest.(check int) "capacity" 500 (Link_state.capacity (Net_state.link net 0));
  Alcotest.(check bool) "multiplexing default" true (Net_state.multiplexing net)

let test_net_state_failures () =
  let g, e0, _, _ = line_graph () in
  let net = Net_state.create g in
  Alcotest.(check bool) "usable" true (Net_state.usable_edge net e0);
  Net_state.fail_edge net e0;
  Alcotest.(check bool) "failed" true (Net_state.edge_failed net e0);
  Alcotest.(check (list int)) "failed list" [ e0 ] (Net_state.failed_edges net);
  Net_state.fail_edge net e0;
  Alcotest.(check (list int)) "idempotent" [ e0 ] (Net_state.failed_edges net);
  Net_state.repair_edge net e0;
  Alcotest.(check bool) "repaired" true (Net_state.usable_edge net e0)

let test_net_state_totals () =
  let g, _, _, _ = line_graph () in
  let net = Net_state.create ~capacity:1000 g in
  Link_state.reserve_primary (Net_state.link net 0) ~channel:1 ~b_min:100;
  Link_state.reserve_primary (Net_state.link net 2) ~channel:1 ~b_min:100;
  Alcotest.(check int) "total primary" 200 (Net_state.total_primary_reserved net);
  Alcotest.check approx "utilisation" (200. /. 6000.) (Net_state.utilisation net);
  Net_state.check_invariants net

let test_multiplexing_gain () =
  let g, e0, _, _ = line_graph () in
  ignore e0;
  let net = Net_state.create ~capacity:1000 g in
  Alcotest.check approx "no backups" 1. (Net_state.multiplexing_gain net);
  (* Two disjoint-primary backups on link 0: dedicated 200, pooled 100. *)
  let l = Net_state.link net 0 in
  Link_state.register_backup l ~channel:1 ~b_min:100 ~primary_edges:[ 50 ];
  Link_state.register_backup l ~channel:2 ~b_min:100 ~primary_edges:[ 51 ];
  Alcotest.check approx "gain 2" 2. (Net_state.multiplexing_gain net);
  Alcotest.(check int) "dedicated demand" 200 (Link_state.backup_dedicated_demand l);
  Alcotest.(check int) "pool" 100 (Link_state.backup_pool l)

let test_net_state_heterogeneous () =
  let g, _, _, _ = line_graph () in
  let net = Net_state.create_heterogeneous ~capacity_of:(fun dl -> 100 * (dl + 1)) g in
  Alcotest.(check int) "link 0" 100 (Link_state.capacity (Net_state.link net 0));
  Alcotest.(check int) "link 5" 600 (Link_state.capacity (Net_state.link net 5))

(* --- Policy --- *)

let claim u e = { Policy.utility = u; extras_granted = e }

let test_policy_equal_share () =
  let c = Policy.compare_claims Policy.equal_share in
  Alcotest.(check bool) "fewer extras first" true (c (claim 1. 0) (claim 1. 3) < 0);
  Alcotest.(check int) "tie" 0 (c (claim 1. 2) (claim 5. 2))

let test_policy_proportional () =
  let c = Policy.compare_claims Policy.proportional in
  (* 2 extras at utility 4 = 0.5 per utility beats 1 extra at utility 1. *)
  Alcotest.(check bool) "utility-weighted" true (c (claim 4. 2) (claim 1. 1) < 0)

let test_policy_max_utility () =
  let c = Policy.compare_claims Policy.max_utility in
  Alcotest.(check bool) "higher utility first" true (c (claim 5. 9) (claim 1. 0) < 0)

let test_policy_strings () =
  List.iter
    (fun p ->
      let s = Format.asprintf "%a" Policy.pp p in
      Alcotest.(check (option bool)) ("roundtrip " ^ s) (Some true)
        (Option.map (fun p' -> Policy.equal p' p) (Policy.of_string s)))
    Policy.all;
  Alcotest.(check bool) "unknown" true (Policy.of_string "bogus" = None);
  (* Historical aliases still resolve. *)
  List.iter
    (fun (alias, p) ->
      Alcotest.(check (option bool)) ("alias " ^ alias) (Some true)
        (Option.map (Policy.equal p) (Policy.of_string alias)))
    [
      ("equal", Policy.equal_share);
      ("coefficient", Policy.proportional);
      ("max", Policy.max_utility);
    ]

(* Policies are first-class values: a custom one plugs in through
   {!Policy.make} and drives the same water-filling core. *)
let test_policy_first_class () =
  (* Reverse priority: most extras granted first (a deliberately unfair
     discipline) — still terminates and still reaches a fixed point. *)
  let greedy =
    Policy.make ~name:"greedy-rich"
      ~order:(fun a b ->
        compare b.Policy.extras_granted a.Policy.extras_granted)
      ~style:`Rounds
  in
  Alcotest.(check string) "name" "greedy-rich" (Policy.name greedy);
  Alcotest.(check bool) "distinct from builtins" true
    (not (List.exists (Policy.equal greedy) Policy.all));
  let g = Graph.create 2 in
  ignore (Graph.add_edge g 0 1);
  let cfg =
    Drcomm.Config.make ~policy:greedy ~with_backups:false ~require_backup:false
      ()
  in
  let t = Drcomm.create ~config:cfg (Net_state.create ~capacity:600 g) in
  let qos = Qos.make ~b_min:100 ~b_max:500 ~increment:100 () in
  let admit () =
    match Drcomm.admit t ~src:0 ~dst:1 ~qos with
    | Drcomm.Admitted (id, _) -> id
    | Drcomm.Rejected _ -> Alcotest.fail "expected admission"
  in
  let a = admit () in
  let b = admit () in
  (* Fixed point: all 600 granted, floors respected. *)
  Alcotest.(check int) "all capacity granted" 600
    (Drcomm.reserved_bandwidth t a + Drcomm.reserved_bandwidth t b);
  Alcotest.(check bool) "floors respected" true
    (Drcomm.reserved_bandwidth t a >= 100 && Drcomm.reserved_bandwidth t b >= 100);
  Drcomm.check_invariants t

(* --- Policy grant styles against the naive reference --- *)

(* The reference spec: the grant styles as first written — re-sort every
   candidate each round, re-filter and re-sort before every exact grant —
   with no reliance on [can_upgrade] being monotone.  [reordered] records
   whether some [`Rounds] round ranked the candidates differently from
   the round before. *)
module Reference = struct
  let by order env a b =
    match order (env.Policy.claim a) (env.Policy.claim b) with
    | 0 -> env.Policy.tie a b
    | c -> c

  let reordered = ref false

  let run_rounds order env candidates =
    let progress = ref true and previous = ref None in
    while !progress do
      progress := false;
      let ordered = List.sort (by order env) candidates in
      if !previous <> None && !previous <> Some ordered then reordered := true;
      previous := Some ordered;
      List.iter
        (fun ch ->
          if env.Policy.can_upgrade ch then begin
            env.Policy.grant ch;
            progress := true
          end)
        ordered
    done

  let run_exact order env candidates =
    let continue = ref true in
    while !continue do
      let eligible = List.filter env.Policy.can_upgrade candidates in
      match List.sort (by order env) eligible with
      | [] -> continue := false
      | best :: _ -> env.Policy.grant best
    done

  let run_drain order env candidates =
    let ordered = List.sort (by order env) candidates in
    List.iter
      (fun ch ->
        while env.Policy.can_upgrade ch do
          env.Policy.grant ch
        done)
      ordered

  let run style order =
    match style with
    | `Rounds -> run_rounds order
    | `Exact -> run_exact order
    | `Drain -> run_drain order
end

(* A monotone [can_upgrade] fixture: candidates draw on shared capacity
   pools and stop at their own ceilings, so grants only shrink what is
   left, as link spare does in a flush. *)
type cand = {
  cid : int;
  utility : float;
  mutable extras : int;
  ceiling : int;
  increment : int;
  pools : int list;
}

let random_instance seed =
  let rng = Random.State.make [| seed |] in
  let n_pools = 1 + Random.State.int rng 6 in
  let pools = Array.init n_pools (fun _ -> Random.State.int rng 40) in
  let n = Random.State.int rng 40 in
  let ids = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- x
  done;
  let cands =
    Array.map
      (fun cid ->
        let ceiling = Random.State.int rng 7 in
        {
          cid;
          utility = [| 0.5; 1.; 2.; 3. |].(Random.State.int rng 4);
          extras = Random.State.int rng (ceiling + 1);
          ceiling;
          increment = 1 + Random.State.int rng 3;
          pools =
            List.filter (fun _ -> Random.State.int rng 3 = 0) (List.init n_pools Fun.id);
        })
      ids
  in
  (pools, cands)

(* Water-fill a fresh copy of instance [seed]; the grants in order. *)
let grant_log seed run =
  let pools, cands = random_instance seed in
  let log = ref [] in
  let live c =
    if c.cid < 0 then Alcotest.fail "policy touched a slot past the candidates";
    c
  in
  let env =
    {
      Policy.claim =
        (fun c -> { Policy.utility = (live c).utility; extras_granted = c.extras });
      can_upgrade =
        (fun c ->
          (live c).extras < c.ceiling
          && List.for_all (fun p -> pools.(p) >= c.increment) c.pools);
      grant =
        (fun c ->
          c.extras <- c.extras + 1;
          List.iter (fun p -> pools.(p) <- pools.(p) - c.increment) c.pools;
          log := c.cid :: !log);
      tie = (fun a b -> Int.compare a.cid b.cid);
    }
  in
  run env cands;
  List.rev !log

let extras_per_utility a b =
  Float.compare
    (float_of_int a.Policy.extras_granted /. a.Policy.utility)
    (float_of_int b.Policy.extras_granted /. b.Policy.utility)

let test_policy_matches_reference () =
  let poison =
    { cid = -1; utility = 1.; extras = 0; ceiling = 0; increment = 1; pools = [] }
  in
  let styles =
    [
      (Policy.equal_share, `Rounds);
      (Policy.proportional, `Exact);
      (Policy.max_utility, `Drain);
      (Policy.make ~name:"extras-per-utility" ~order:extras_per_utility ~style:`Rounds, `Rounds);
      ( Policy.make ~name:"greedy-rich"
          ~order:(fun a b -> compare b.Policy.extras_granted a.Policy.extras_granted)
          ~style:`Rounds,
        `Rounds );
      ( Policy.make ~name:"halves"
          ~order:(fun a b ->
            compare (a.Policy.extras_granted / 2) (b.Policy.extras_granted / 2))
          ~style:`Exact,
        `Exact );
    ]
  in
  List.iter
    (fun (policy, style) ->
      Reference.reordered := false;
      let grants = ref 0 in
      for seed = 1 to 300 do
        let expected =
          grant_log seed (fun env cands ->
              Reference.run style (Policy.compare_claims policy) env (Array.to_list cands))
        in
        let got =
          grant_log seed (fun env cands ->
              let n = Array.length cands in
              let a = Array.append cands [| poison; poison |] in
              policy.Policy.run env a n)
        in
        grants := !grants + List.length got;
        Alcotest.(check (list int))
          (Printf.sprintf "%s, seed %d" (Policy.name policy) seed)
          expected got
      done;
      Alcotest.(check bool) (Policy.name policy ^ " grants") true (!grants > 1000);
      if Policy.name policy = "extras-per-utility" then
        Alcotest.(check bool) "survivors reordered" true !Reference.reordered)
    styles

(* --- Interval QoS --- *)

let test_interval_spec_validation () =
  Alcotest.check_raises "k > m" (Invalid_argument "Interval_qos.spec: need 1 <= k <= m")
    (fun () -> ignore (Interval_qos.spec ~k:5 ~m:3))

let test_interval_fresh_window () =
  let mon = Interval_qos.create (Interval_qos.spec ~k:3 ~m:5) in
  Alcotest.(check bool) "clean start" true (Interval_qos.satisfied mon);
  Alcotest.(check int) "all delivered" 5 (Interval_qos.delivered_in_window mon);
  Alcotest.(check int) "can lose m - k" 2 (Interval_qos.distance_to_failure mon)

let test_interval_sliding () =
  let mon = Interval_qos.create (Interval_qos.spec ~k:2 ~m:3) in
  Interval_qos.record mon ~delivered:false;
  Alcotest.(check bool) "2/3 ok" true (Interval_qos.satisfied mon);
  Alcotest.(check int) "critical" 0 (Interval_qos.distance_to_failure mon);
  Alcotest.(check bool) "cannot skip" false (Interval_qos.can_skip mon);
  Interval_qos.record mon ~delivered:true;
  Interval_qos.record mon ~delivered:true;
  (* Window now T T with one stale loss about to slide out. *)
  Interval_qos.record mon ~delivered:true;
  Alcotest.(check int) "recovered" 1 (Interval_qos.distance_to_failure mon);
  Alcotest.(check bool) "may skip again" true (Interval_qos.can_skip mon)

let test_interval_violation_count () =
  let mon = Interval_qos.create (Interval_qos.spec ~k:2 ~m:2) in
  Interval_qos.record mon ~delivered:false;
  Alcotest.(check bool) "violated" false (Interval_qos.satisfied mon);
  Alcotest.(check int) "counted" 1 (Interval_qos.violations mon);
  Alcotest.(check int) "distance 0 when violated" 0 (Interval_qos.distance_to_failure mon)

let test_interval_skip_guided_stream () =
  (* Skipping exactly when allowed must never violate the contract. *)
  let mon = Interval_qos.create (Interval_qos.spec ~k:3 ~m:5) in
  for _ = 1 to 200 do
    let skip = Interval_qos.can_skip mon in
    Interval_qos.record mon ~delivered:(not skip);
    Alcotest.(check bool) "never violated" true (Interval_qos.satisfied mon)
  done;
  Alcotest.(check int) "zero violations" 0 (Interval_qos.violations mon)

let qcheck_interval_dbp_consistent =
  QCheck.Test.make ~name:"DBP skips never violate the window" ~count:100
    QCheck.(pair (int_range 1 6) (int_range 0 5))
    (fun (k, extra) ->
      let m = k + extra in
      let mon = Interval_qos.create (Interval_qos.spec ~k ~m) in
      let ok = ref true in
      for _ = 1 to 100 do
        let skip = Interval_qos.can_skip mon in
        Interval_qos.record mon ~delivered:(not skip);
        if not (Interval_qos.satisfied mon) then ok := false
      done;
      !ok)

let () =
  Alcotest.run "net"
    [
      ( "bandwidth",
        [
          Alcotest.test_case "units" `Quick test_bandwidth_units;
          Alcotest.test_case "negative" `Quick test_bandwidth_negative;
          Alcotest.test_case "printing" `Quick test_bandwidth_pp;
        ] );
      ( "qos",
        [
          Alcotest.test_case "levels" `Quick test_qos_levels;
          Alcotest.test_case "level/bandwidth roundtrip" `Quick
            test_qos_level_bandwidth_roundtrip;
          Alcotest.test_case "off grid" `Quick test_qos_off_grid;
          Alcotest.test_case "validation" `Quick test_qos_validation;
          Alcotest.test_case "single value" `Quick test_qos_single_value;
        ] );
      ( "dirlink",
        [
          Alcotest.test_case "ids" `Quick test_dirlink_ids;
          Alcotest.test_case "of_path" `Quick test_dirlink_of_path;
          Alcotest.test_case "shares_edge" `Quick test_dirlink_shares_edge;
        ] );
      ( "link-state",
        [
          Alcotest.test_case "reserve/release" `Quick test_link_reserve_release;
          Alcotest.test_case "double reserve" `Quick test_link_double_reserve_rejected;
          Alcotest.test_case "admission uses floors" `Quick test_link_admission_uses_floors;
          Alcotest.test_case "set_primary constraints" `Quick
            test_link_set_primary_constraints;
          Alcotest.test_case "release unknown" `Quick test_link_release_unknown;
          Alcotest.test_case "backup multiplexing" `Quick test_backup_multiplexing;
          Alcotest.test_case "pool prediction pure" `Quick test_backup_pool_with_is_pure;
          Alcotest.test_case "no-multiplexing mode" `Quick test_backup_no_multiplexing_mode;
          Alcotest.test_case "backup blocks admission" `Quick test_backup_blocks_admission;
          Alcotest.test_case "pool overflow rejected" `Quick
            test_backup_pool_overflow_rejected;
          Alcotest.test_case "extras borrow pool" `Quick test_extras_borrow_backup_pool;
          Alcotest.test_case "forced activation reserve" `Quick
            test_force_reserve_for_activation;
          Alcotest.test_case "iteration & counts" `Quick test_iter_and_counts;
        ] );
      ( "net-state",
        [
          Alcotest.test_case "basics" `Quick test_net_state_basics;
          Alcotest.test_case "failures" `Quick test_net_state_failures;
          Alcotest.test_case "totals" `Quick test_net_state_totals;
          Alcotest.test_case "heterogeneous" `Quick test_net_state_heterogeneous;
          Alcotest.test_case "multiplexing gain" `Quick test_multiplexing_gain;
        ] );
      ( "policy",
        [
          Alcotest.test_case "equal share" `Quick test_policy_equal_share;
          Alcotest.test_case "proportional" `Quick test_policy_proportional;
          Alcotest.test_case "max utility" `Quick test_policy_max_utility;
          Alcotest.test_case "string roundtrip" `Quick test_policy_strings;
          Alcotest.test_case "first-class policy" `Quick test_policy_first_class;
          Alcotest.test_case "grant styles match the reference" `Quick
            test_policy_matches_reference;
        ] );
      ( "interval-qos",
        [
          Alcotest.test_case "spec validation" `Quick test_interval_spec_validation;
          Alcotest.test_case "fresh window" `Quick test_interval_fresh_window;
          Alcotest.test_case "sliding" `Quick test_interval_sliding;
          Alcotest.test_case "violations" `Quick test_interval_violation_count;
          Alcotest.test_case "skip-guided stream" `Quick test_interval_skip_guided_stream;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_interval_dbp_consistent;
            qcheck_link_state_model;
          ] );
    ]
