(* Tests for bounded flooding, disjoint path sets and Yen's algorithm. *)

(* Diamond with a long detour:
     0 - 1 - 3        (short: 2 hops)
     0 - 2 - 3        (short: 2 hops)
     0 - 4 - 5 - 3    (long: 3 hops)                                    *)
let diamond () =
  let g = Graph.create 6 in
  let e01 = Graph.add_edge g 0 1 in
  let e13 = Graph.add_edge g 1 3 in
  let e02 = Graph.add_edge g 0 2 in
  let e23 = Graph.add_edge g 2 3 in
  let e04 = Graph.add_edge g 0 4 in
  let e45 = Graph.add_edge g 4 5 in
  let e53 = Graph.add_edge g 5 3 in
  (g, (e01, e13, e02, e23, e04, e45, e53))

let edges_of p = p.Paths.edges

let test_primary_route_min_hop () =
  let g, _ = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  match Flooding.primary_route net req with
  | None -> Alcotest.fail "expected route"
  | Some p -> Alcotest.(check int) "two hops" 2 (Paths.hop_count p)

let test_primary_route_respects_capacity () =
  let g, (e01, e13, _, _, _, _, _) = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  (* Fill the 0-1-3 route's floor space completely. *)
  List.iter
    (fun e ->
      let dl = Dirlink.of_edge g ~edge:e ~src:(fst (Graph.endpoints g e)) in
      Link_state.reserve_primary (Net_state.link net dl) ~channel:99 ~b_min:950)
    [ e01; e13 ];
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  match Flooding.primary_route net req with
  | None -> Alcotest.fail "expected route"
  | Some p ->
    Alcotest.(check bool) "avoids full links" true
      (not (List.mem e01 (edges_of p)) && not (List.mem e13 (edges_of p)))

let test_primary_route_allowance_tiebreak () =
  let g, (e01, e13, _, _, _, _, _) = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  (* Both 2-hop routes admissible; load one partially so the other has the
     better allowance. *)
  let dl = Dirlink.of_edge g ~edge:e01 ~src:0 in
  Link_state.reserve_primary (Net_state.link net dl) ~channel:99 ~b_min:500;
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  match Flooding.primary_route net req with
  | None -> Alcotest.fail "expected route"
  | Some p ->
    Alcotest.(check bool) "prefers lighter route" true
      (not (List.mem e01 (edges_of p)) && not (List.mem e13 (edges_of p)))

let test_primary_route_hop_bound () =
  let g, (e01, e13, e02, e23, _, _, _) = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  (* Saturate both 2-hop routes: only the 3-hop detour remains. *)
  List.iter
    (fun e ->
      List.iter
        (fun dl -> Link_state.reserve_primary (Net_state.link net dl) ~channel:99 ~b_min:950)
        [ 2 * e; (2 * e) + 1 ])
    [ e01; e13; e02; e23 ];
  let bounded = Flooding.request ~hop_bound:2 ~src:0 ~dst:3 ~floor:100 () in
  Alcotest.(check bool) "bounded fails" true (Flooding.primary_route net bounded = None);
  let unbounded = Flooding.request ~hop_bound:5 ~src:0 ~dst:3 ~floor:100 () in
  match Flooding.primary_route net unbounded with
  | Some p -> Alcotest.(check int) "detour" 3 (Paths.hop_count p)
  | None -> Alcotest.fail "detour expected"

let test_primary_route_avoids_failures () =
  let g, (e01, _, e02, _, _, _, _) = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  Net_state.fail_edge net e01;
  Net_state.fail_edge net e02;
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  match Flooding.primary_route net req with
  | None -> Alcotest.fail "expected detour"
  | Some p -> Alcotest.(check int) "detour hops" 3 (Paths.hop_count p)

let test_primary_route_directional_capacity () =
  (* Fill only the 0->1 direction; the 1->0 direction must still admit. *)
  let g, (e01, _, _, _, _, _, _) = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  let fwd = Dirlink.of_edge g ~edge:e01 ~src:0 in
  Link_state.reserve_primary (Net_state.link net fwd) ~channel:99 ~b_min:950;
  let req_fwd = Flooding.request ~hop_bound:1 ~src:0 ~dst:1 ~floor:100 () in
  let req_bwd = Flooding.request ~hop_bound:1 ~src:1 ~dst:0 ~floor:100 () in
  Alcotest.(check bool) "forward full" true (Flooding.primary_route net req_fwd = None);
  Alcotest.(check bool) "reverse open" true (Flooding.primary_route net req_bwd <> None)

let test_backup_route_disjoint () =
  let g, _ = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  let primary = Option.get (Flooding.primary_route net req) in
  match Flooding.backup_route net req ~primary_edges:(edges_of primary) with
  | None -> Alcotest.fail "expected backup"
  | Some b ->
    List.iter
      (fun e ->
        Alcotest.(check bool) "disjoint" true (not (List.mem e (edges_of primary))))
      (edges_of b)

let test_backup_route_maximally_disjoint_fallback () =
  (* A bridge graph: 0-1, 1-2 with an alternative 0-3-1 for the first
     half only; every 0->2 route must cross 1-2, so the backup shares
     exactly that bridge. *)
  let g = Graph.create 4 in
  let e01 = Graph.add_edge g 0 1 in
  let e12 = Graph.add_edge g 1 2 in
  ignore (Graph.add_edge g 0 3);
  ignore (Graph.add_edge g 3 1);
  let net = Net_state.create ~capacity:1000 g in
  let req = Flooding.request ~src:0 ~dst:2 ~floor:100 () in
  let primary = Option.get (Flooding.primary_route net req) in
  Alcotest.(check (list int)) "primary direct" [ e01; e12 ] (edges_of primary);
  match Flooding.backup_route net req ~primary_edges:(edges_of primary) with
  | None -> Alcotest.fail "expected maximally disjoint backup"
  | Some b ->
    let shared = List.filter (fun e -> List.mem e (edges_of primary)) (edges_of b) in
    Alcotest.(check (list int)) "shares only the bridge" [ e12 ] shared

let test_backup_route_multiplexing_aware () =
  (* With multiplexing, a second backup over the same link is free when
     the primaries are disjoint — the backup route search must see that. *)
  let g, (_, _, e02, e23, _, _, _) = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  (* Saturate backup-capacity on the 0-2-3 route down to 100 headroom. *)
  List.iter
    (fun e ->
      List.iter
        (fun dl ->
          Link_state.reserve_primary (Net_state.link net dl) ~channel:99 ~b_min:900)
        [ 2 * e; (2 * e) + 1 ])
    [ e02; e23 ];
  (* Existing backup on 0-2-3 whose primary uses edges [100] (phantom ids
     are fine for the pool arithmetic). *)
  List.iter
    (fun e ->
      Link_state.register_backup
        (Net_state.link net (2 * e))
        ~channel:50 ~b_min:100 ~primary_edges:[ 100 ])
    [ e02; e23 ];
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  (* New primary on 0-1-3 (disjoint from the phantom), so its backup can
     multiplex with channel 50's pool on 0-2-3. *)
  let primary = Option.get (Flooding.primary_route net req) in
  match Flooding.backup_route net req ~primary_edges:(edges_of primary) with
  | None -> Alcotest.fail "multiplexing should admit the backup"
  | Some b ->
    Alcotest.(check (list int)) "rides the pooled route" [ e02; e23 ] (edges_of b)

let test_message_count () =
  let g, _ = diamond () in
  let req = Flooding.request ~hop_bound:1 ~src:0 ~dst:3 ~floor:100 () in
  (* Only node 0 is strictly inside the 1-hop region: it forwards over its
     3 links. *)
  Alcotest.(check int) "one-hop flood" 3 (Flooding.message_count g req);
  let req2 = Flooding.request ~hop_bound:16 ~src:0 ~dst:3 ~floor:100 () in
  (* Every node forwards over degree (src) or degree-1 (others):
     degrees: 0:3, 1:2, 2:2, 3:3, 4:2, 5:2 -> 3 + 1+1+2+1+1 = 9. *)
  Alcotest.(check int) "full flood" 9 (Flooding.message_count g req2)

let test_request_validation () =
  Alcotest.check_raises "src = dst" (Invalid_argument "Flooding.request: src = dst")
    (fun () -> ignore (Flooding.request ~src:1 ~dst:1 ~floor:10 ()))

(* --- Disjoint --- *)

let test_disjoint_paths () =
  let g, _ = diamond () in
  let paths = Disjoint.paths g ~src:0 ~dst:3 ~k:3 in
  Alcotest.(check int) "three disjoint" 3 (List.length paths);
  (* Pairwise edge-disjoint. *)
  let all_edges = List.concat_map edges_of paths in
  Alcotest.(check int) "no edge reused" (List.length all_edges)
    (List.length (List.sort_uniq compare all_edges));
  (* Sorted by hops. *)
  let hops = List.map Paths.hop_count paths in
  Alcotest.(check (list int)) "shortest first" [ 2; 2; 3 ] hops

let test_disjoint_exhaustion () =
  let g, _ = diamond () in
  let paths = Disjoint.paths g ~src:0 ~dst:3 ~k:10 in
  Alcotest.(check int) "only three exist" 3 (List.length paths);
  Alcotest.(check int) "estimate" 3 (Disjoint.max_disjoint_estimate g ~src:0 ~dst:3)

let test_disjoint_respects_filter () =
  let g, (e01, _, _, _, _, _, _) = diamond () in
  let paths = Disjoint.paths ~usable:(fun e -> e <> e01) g ~src:0 ~dst:3 ~k:10 in
  Alcotest.(check int) "two left" 2 (List.length paths)

(* --- Yen --- *)

let test_yen_ordering_and_distinctness () =
  let g, _ = diamond () in
  let paths = Yen.k_shortest g ~src:0 ~dst:3 ~k:10 in
  (* Simple paths from 0 to 3: two 2-hop, one 3-hop, plus longer combined
     ones through 4-5 after deviating — all must be distinct and sorted. *)
  Alcotest.(check bool) "at least 3" true (List.length paths >= 3);
  let hops = List.map Paths.hop_count paths in
  Alcotest.(check (list int)) "sorted" (List.sort compare hops) hops;
  let keys = List.map (fun p -> p.Paths.nodes) paths in
  Alcotest.(check int) "distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun p -> Alcotest.(check bool) "valid" true (Paths.is_valid g p))
    paths

let test_yen_k1_is_bfs () =
  let g, _ = diamond () in
  match (Yen.k_shortest g ~src:0 ~dst:3 ~k:1, Paths.shortest_path g 0 3) with
  | [ a ], Some b -> Alcotest.(check int) "same hops" (Paths.hop_count b) (Paths.hop_count a)
  | _ -> Alcotest.fail "expected single path"

let test_yen_disconnected () =
  let g = Graph.create 4 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 2 3);
  Alcotest.(check int) "none" 0 (List.length (Yen.k_shortest g ~src:0 ~dst:3 ~k:5))

let test_first_admissible () =
  let g, _ = diamond () in
  let candidates = Yen.k_shortest g ~src:0 ~dst:3 ~k:10 in
  let found =
    Yen.first_admissible ~candidates ~admissible:(fun p -> Paths.hop_count p >= 3)
  in
  match found with
  | Some p -> Alcotest.(check int) "first long one" 3 (Paths.hop_count p)
  | None -> Alcotest.fail "expected a candidate"

(* --- Sequential search --- *)

let test_sequential_matches_flooding_hops () =
  let g, _ = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  let f = Option.get (Flooding.primary_route net req) in
  let s = Option.get (Sequential.primary_route net req ~candidates:8) in
  Alcotest.(check int) "same hop count" (Paths.hop_count f) (Paths.hop_count s)

let test_sequential_skips_inadmissible () =
  let g, (e01, e13, _, _, _, _, _) = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  List.iter
    (fun e ->
      List.iter
        (fun dl -> Link_state.reserve_primary (Net_state.link net dl) ~channel:99 ~b_min:950)
        [ 2 * e; (2 * e) + 1 ])
    [ e01; e13 ];
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  match Sequential.primary_route net req ~candidates:8 with
  | None -> Alcotest.fail "expected another candidate"
  | Some p ->
    Alcotest.(check bool) "avoids the full route" true
      (not (List.mem e01 (edges_of p)))

let test_sequential_exhausts_candidates () =
  let g, _ = diamond () in
  let net = Net_state.create ~capacity:150 g in
  (* Floor 200 exceeds every link's capacity: no candidate admits. *)
  let req = Flooding.request ~src:0 ~dst:3 ~floor:200 () in
  Alcotest.(check bool) "none" true (Sequential.primary_route net req ~candidates:8 = None)

let test_sequential_backup_disjoint () =
  let g, _ = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  let primary = Option.get (Sequential.primary_route net req ~candidates:8) in
  match Sequential.backup_route net req ~candidates:8 ~primary_edges:(edges_of primary) with
  | None -> Alcotest.fail "expected backup"
  | Some b ->
    List.iter
      (fun e -> Alcotest.(check bool) "disjoint" true (not (List.mem e (edges_of primary))))
      (edges_of b)

let test_sequential_backup_rejects_useless () =
  (* On a line there is only one route: a "backup" identical to the
     primary must be refused. *)
  let g = Graph.create 3 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  let net = Net_state.create ~capacity:1000 g in
  let req = Flooding.request ~src:0 ~dst:2 ~floor:100 () in
  let primary = Option.get (Sequential.primary_route net req ~candidates:8) in
  Alcotest.(check bool) "no useless backup" true
    (Sequential.backup_route net req ~candidates:8 ~primary_edges:(edges_of primary)
    = None)

let test_sequential_probe_count () =
  let g, _ = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  (* First candidate (2 hops) admits immediately: 2 probes. *)
  Alcotest.(check int) "2 probes" 2 (Sequential.probe_count net req ~candidates:8);
  (* Sequential probing costs far less than flooding on this graph. *)
  Alcotest.(check bool) "cheaper than flooding" true
    (Sequential.probe_count net req ~candidates:8 < Flooding.message_count g req)

(* Properties on random graphs. *)

let random_graph seed n = Waxman.generate (Prng.create seed) (Waxman.spec ~nodes:n ~alpha:0.5 ~beta:0.3 ())

let qcheck_disjoint_really_disjoint =
  QCheck.Test.make ~name:"disjoint paths share no edge" ~count:100
    QCheck.(triple small_int (int_range 6 30) (pair small_int small_int))
    (fun (seed, n, (a, b)) ->
      let g = random_graph seed n in
      let src = a mod n and dst = b mod n in
      if src = dst then true
      else begin
        let paths = Disjoint.paths g ~src ~dst ~k:4 in
        let edges = List.concat_map edges_of paths in
        List.length edges = List.length (List.sort_uniq compare edges)
        && List.for_all (Paths.is_valid g) paths
      end)

let qcheck_yen_sorted_distinct =
  QCheck.Test.make ~name:"yen paths sorted, distinct, valid" ~count:60
    QCheck.(triple small_int (int_range 6 20) (pair small_int small_int))
    (fun (seed, n, (a, b)) ->
      let g = random_graph seed n in
      let src = a mod n and dst = b mod n in
      if src = dst then true
      else begin
        let paths = Yen.k_shortest g ~src ~dst ~k:6 in
        let hops = List.map Paths.hop_count paths in
        let keys = List.map (fun p -> p.Paths.nodes) paths in
        hops = List.sort compare hops
        && List.length keys = List.length (List.sort_uniq compare keys)
        && List.for_all (Paths.is_valid g) paths
      end)

let qcheck_flooding_route_admissible =
  QCheck.Test.make ~name:"flooded route links all admit the floor" ~count:60
    QCheck.(triple small_int (int_range 6 25) (pair small_int small_int))
    (fun (seed, n, (a, b)) ->
      let g = random_graph seed n in
      let src = a mod n and dst = b mod n in
      if src = dst then true
      else begin
        let net = Net_state.create ~capacity:1000 g in
        let req = Flooding.request ~src ~dst ~floor:250 () in
        match Flooding.primary_route net req with
        | None -> false (* connected and empty: must route *)
        | Some p ->
          Paths.is_valid g p
          && List.for_all
               (fun dl ->
                 Link_state.admissible_primary (Net_state.link net dl) ~b_min:250)
               (Dirlink.of_path g p)
      end)

(* --- Flooding against the list-based reference --- *)

(* The route search as it was before it moved onto per-domain scratch
   buffers: fresh arrays per search, [List.mem] edge tests, the backup
   fallback re-testing an edge from both endpoints, and Dijkstra's heap
   of boxed (key, node) pairs.  Kept as the executable spec the
   allocation-free search must match route for route. *)
module Reference = struct
  module Heap = struct
    type t = { mutable size : int; mutable arr : (float * int) array }

    let create () = { size = 0; arr = Array.make 64 (0., -1) }
    let is_empty h = h.size = 0

    let swap h i j =
      let tmp = h.arr.(i) in
      h.arr.(i) <- h.arr.(j);
      h.arr.(j) <- tmp

    let push h key v =
      if h.size = Array.length h.arr then begin
        let bigger = Array.make (2 * h.size) (0., -1) in
        Array.blit h.arr 0 bigger 0 h.size;
        h.arr <- bigger
      end;
      h.arr.(h.size) <- (key, v);
      let i = ref h.size in
      h.size <- h.size + 1;
      while !i > 0 && fst h.arr.((!i - 1) / 2) > fst h.arr.(!i) do
        swap h !i ((!i - 1) / 2);
        i := (!i - 1) / 2
      done

    let pop h =
      let top = h.arr.(0) in
      h.size <- h.size - 1;
      h.arr.(0) <- h.arr.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && fst h.arr.(l) < fst h.arr.(!smallest) then smallest := l;
        if r < h.size && fst h.arr.(r) < fst h.arr.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          swap h !i !smallest;
          i := !smallest
        end
      done;
      top
  end

  let rebuild via src dst =
    let rec walk v nodes edges =
      if v = src then { Paths.nodes = src :: nodes; edges }
      else
        let u, e = via.(v) in
        walk u (v :: nodes) (e :: edges)
    in
    walk dst [] []

  let dijkstra ~weight ~usable g src dst =
    let n = Graph.node_count g in
    let dist = Array.make n infinity in
    let via = Array.make n (-1, -1) in
    let settled = Array.make n false in
    let heap = Heap.create () in
    dist.(src) <- 0.;
    Heap.push heap 0. src;
    while not (Heap.is_empty heap) do
      let d, u = Heap.pop heap in
      if (not settled.(u)) && d <= dist.(u) then begin
        settled.(u) <- true;
        List.iter
          (fun (v, e) ->
            if usable e && not settled.(v) then begin
              let alt = d +. weight e in
              if alt < dist.(v) then begin
                dist.(v) <- alt;
                via.(v) <- (u, e);
                Heap.push heap alt v
              end
            end)
          (Graph.neighbors g u)
      end
    done;
    if Float.equal dist.(dst) infinity then None else Some (rebuild via src dst)

  let search_best net (req : Flooding.request) ~allowance =
    let g = Net_state.graph net in
    let n = Graph.node_count g in
    let dist = Array.make n max_int in
    let best_allow = Array.make n min_int in
    let via = Array.make n (-1, -1) in
    dist.(req.src) <- 0;
    best_allow.(req.src) <- max_int;
    let frontier = ref [ req.src ] in
    let depth = ref 0 in
    while !frontier <> [] && !depth < req.hop_bound && dist.(req.dst) = max_int do
      let next = ref [] in
      List.iter
        (fun u ->
          List.iter
            (fun (v, e) ->
              if Net_state.usable_edge net e && dist.(v) >= !depth + 1 then begin
                let a = allowance (Dirlink.of_edge g ~edge:e ~src:u) in
                if a >= 0 then begin
                  let bottleneck = min best_allow.(u) a in
                  if
                    dist.(v) > !depth + 1
                    || (dist.(v) = !depth + 1 && bottleneck > best_allow.(v))
                  then begin
                    if dist.(v) > !depth + 1 then next := v :: !next;
                    dist.(v) <- !depth + 1;
                    best_allow.(v) <- bottleneck;
                    via.(v) <- (u, e)
                  end
                end
              end)
            (Graph.neighbors g u))
        !frontier;
      frontier := !next;
      incr depth
    done;
    if dist.(req.dst) = max_int then None else Some (rebuild via req.src req.dst)

  let primary_route net (req : Flooding.request) =
    let allowance dl =
      let l = Net_state.link net dl in
      if Link_state.admissible_primary l ~b_min:req.floor then
        Link_state.reclaimable_headroom l
      else -1
    in
    search_best net req ~allowance

  (* How many searches missed a disjoint route and fell back. *)
  let fallbacks = ref 0

  let backup_route ?(banned_edges = []) net (req : Flooding.request) ~primary_edges =
    let allowance dl =
      if List.mem (Dirlink.edge dl) banned_edges then -1
      else
        let l = Net_state.link net dl in
        let pool' = Link_state.backup_pool_with l ~b_min:req.floor ~primary_edges in
        let headroom =
          Link_state.capacity l - Link_state.primary_min_total l - pool'
        in
        if headroom >= 0 then headroom else -1
    in
    let disjoint_allowance dl =
      if List.mem (Dirlink.edge dl) primary_edges then -1 else allowance dl
    in
    match search_best net req ~allowance:disjoint_allowance with
    | Some _ as found -> found
    | None -> (
      incr fallbacks;
      let g = Net_state.graph net in
      let penalty = float_of_int (Graph.node_count g * Graph.node_count g) in
      let weight e = if List.mem e primary_edges then penalty +. 1. else 1. in
      let usable e =
        Net_state.usable_edge net e
        && (not (List.mem e banned_edges))
        && allowance (2 * e) >= 0
        && allowance ((2 * e) + 1) >= 0
      in
      match dijkstra ~weight ~usable g req.src req.dst with
      | None -> None
      | Some path ->
        let protects =
          List.exists (fun e -> not (List.mem e path.Paths.edges)) primary_edges
        in
        if Paths.hop_count path > req.hop_bound || not protects then None
        else Some path)
end

let route = Alcotest.(option (pair (list int) (list int)))
let route_of = Option.map (fun p -> (p.Paths.nodes, p.Paths.edges))

(* A small single-gateway transit-stub, a Waxman graph or a torus. *)
let family_graph rng = function
  | 0 ->
    (Transit_stub.generate rng
       (Transit_stub.spec ~transit_domains:2 ~transit_size:3
          ~stubs_per_transit_node:2 ~stub_size:4 ()))
      .Transit_stub.graph
  | 1 ->
    Waxman.generate rng
      (Waxman.spec ~nodes:(10 + Prng.int rng 25) ~alpha:0.5 ~beta:0.3 ())
  | _ -> Torus.generate ~rows:(3 + Prng.int rng 3) ~cols:(3 + Prng.int rng 3)

let random_edges rng g k =
  List.init k (fun _ -> Prng.int rng (Graph.edge_count g)) |> List.sort_uniq compare

(* Random primaries (some forced past the guarantee), backups over random
   primary edges, unregistrations that leave pools stale, and failed
   edges, on a network of tight links. *)
let loaded_net rng g =
  let net = Net_state.create ~multiplexing:(Prng.bool rng) ~capacity:1000 g in
  let links = Dirlink.count g in
  for ch = 0 to 2 * links do
    let l = Net_state.link net (Prng.int rng links) in
    let b_min = 50 * (1 + Prng.int rng 6) in
    try
      match Prng.int rng 5 with
      | 0 | 1 ->
        Link_state.reserve_primary ~force:(Prng.int rng 6 = 0) l ~channel:ch ~b_min
      | 2 | 3 ->
        Link_state.register_backup l ~channel:ch ~b_min
          ~primary_edges:(random_edges rng g (1 + Prng.int rng 4))
      | _ -> (
        match Link_state.backup_channels l with
        | [] -> ()
        | chans -> Link_state.unregister_backup l ~channel:(Prng.pick_list rng chans))
    with Invalid_argument _ -> ()
  done;
  for _ = 1 to Prng.int rng 3 do
    Net_state.fail_edge net (Prng.int rng (Graph.edge_count g))
  done;
  net

(* Requests against one loaded instance, each answered by both searches:
   the primary, then a backup (sometimes with banned edges) for the
   reference's primary or, when there is none, the hop-shortest route. *)
let compare_instance ~label rng g net =
  let n = Graph.node_count g in
  for q = 1 to 8 do
    let src, dst = Prng.sample_distinct_pair rng n in
    let hop_bound = if Prng.int rng 4 = 0 then 1 + Prng.int rng 4 else 16 in
    let floor = 50 * (1 + Prng.int rng 6) in
    let req = Flooding.request ~hop_bound ~src ~dst ~floor () in
    let where = Printf.sprintf "%s query %d" label q in
    let expected = Reference.primary_route net req in
    Alcotest.check route (where ^ " primary") (route_of expected)
      (route_of (Flooding.primary_route net req));
    let primary_edges =
      match expected with
      | Some p -> p.Paths.edges
      | None -> (
        match Paths.shortest_path g src dst with Some p -> p.Paths.edges | None -> [])
    in
    let banned_edges =
      if Prng.bool rng then [] else random_edges rng g (1 + Prng.int rng 3)
    in
    Alcotest.check route (where ^ " backup")
      (route_of (Reference.backup_route ~banned_edges net req ~primary_edges))
      (route_of (Flooding.backup_route ~banned_edges net req ~primary_edges))
  done

let test_flooding_matches_reference () =
  Reference.fallbacks := 0;
  let multiplexed = ref 0 in
  for i = 0 to 299 do
    let rng = Prng.create (1000 + i) in
    let g = family_graph rng (i mod 3) in
    let net = loaded_net rng g in
    if Net_state.multiplexing net then incr multiplexed;
    compare_instance ~label:(Printf.sprintf "instance %d" i) rng g net
  done;
  Alcotest.(check bool) "both multiplexing modes" true
    (!multiplexed > 50 && !multiplexed < 250);
  Alcotest.(check bool) "disjoint misses exercised the fallback" true
    (!Reference.fallbacks > 300)

(* [backup_admits] settles most links from the pool bounds; it must agree
   with the exact test on every branch, including right after an
   unregistration left the cached pool stale. *)
let test_backup_admits_exact () =
  let accept = ref 0 and reject = ref 0 and probed = ref 0 in
  for seed = 0 to 199 do
    let rng = Prng.create seed in
    let capacity = 1000 in
    let l = Link_state.create ~multiplexing:(seed mod 4 <> 0) ~capacity () in
    for ch = 0 to 79 do
      let b_min = 50 * (1 + Prng.int rng 6) in
      let edges () = List.init (1 + Prng.int rng 3) (fun _ -> Prng.int rng 8) in
      (try
         match Prng.int rng 6 with
         | 0 -> Link_state.reserve_primary ~force:(Prng.bool rng) l ~channel:ch ~b_min
         | 1 -> (
           match Link_state.primary_channels l with
           | [] -> ()
           | chans -> Link_state.release_primary l ~channel:(fst (Prng.pick_list rng chans)))
         | 2 | 3 ->
           Link_state.register_backup l ~channel:ch ~b_min
             ~primary_edges:(List.sort_uniq compare (edges ()))
         | _ -> (
           match Link_state.backup_channels l with
           | [] -> ()
           | chans -> Link_state.unregister_backup l ~channel:(Prng.pick_list rng chans))
       with Invalid_argument _ -> ());
      let primary_edges = List.sort_uniq compare (edges ()) in
      (* Asked first, so a stale pool reaches [backup_admits] unrefreshed. *)
      let admits = Link_state.backup_admits l ~b_min ~primary_edges in
      let base = Link_state.primary_min_total l + Link_state.backup_pool l in
      let exact =
        Link_state.primary_min_total l + Link_state.backup_pool_with l ~b_min ~primary_edges
        <= capacity
      in
      if base + b_min <= capacity then incr accept
      else if base > capacity then incr reject
      else incr probed;
      if admits <> exact then
        Alcotest.failf "seed %d step %d: backup_admits %b, exact test %b" seed ch admits exact
    done
  done;
  Alcotest.(check bool) "every branch exercised" true
    (!accept > 100 && !reject > 100 && !probed > 100)

(* The 1056-node transit-stub of the scale bench and the benchmark. *)
let scale_stub () =
  Transit_stub.generate (Prng.create 7)
    (Transit_stub.spec ~transit_domains:4 ~transit_size:8 ~stubs_per_transit_node:4
       ~stub_size:8 ())

(* Pairs in different stubs: every route crosses both stubs' single
   gateway edges, so a backup always misses a disjoint route and takes
   the maximally-disjoint fallback. *)
let cross_stub_pair rng (info : Transit_stub.info) =
  let n = Graph.node_count info.graph in
  let rec pick () =
    let src, dst = Prng.sample_distinct_pair rng n in
    let s = info.stub_of_node in
    if s.(src) >= 0 && s.(dst) >= 0 && s.(src) <> s.(dst) then (src, dst) else pick ()
  in
  pick ()

let test_route_search_allocation () =
  let info = scale_stub () in
  let g = info.Transit_stub.graph in
  let net = Net_state.create ~capacity:(Bandwidth.mbps 400) g in
  let rng = Prng.create 11 in
  (* A backup sharing an edge with its primary came out of the fallback;
     the rest found none (every primary edge a bridge, or over the hop
     bound) after running it. *)
  let shared = ref 0 in
  let search () =
    let src, dst = cross_stub_pair rng info in
    let req = Flooding.request ~src ~dst ~floor:(Bandwidth.kbps 10) () in
    match Flooding.primary_route net req with
    | None -> Alcotest.fail "unloaded network must route"
    | Some p -> (
      match Flooding.backup_route net req ~primary_edges:p.Paths.edges with
      | Some b when List.exists (fun e -> List.mem e p.Paths.edges) b.Paths.edges ->
        incr shared
      | Some _ -> Alcotest.fail "cross-stub backup cannot avoid the gateways"
      | None -> ())
  in
  search ();
  (* Promote the network now, so the count below is the searches' own. *)
  Gc.minor ();
  let calls = 1000 in
  let before = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to calls do
    search ()
  done;
  let after = (Gc.quick_stat ()).Gc.major_words in
  let per_call = (after -. before) /. float_of_int (2 * calls) in
  if per_call >= 64. then
    Alcotest.failf "route search allocates %.1f major words per call (>= 64)" per_call;
  Alcotest.(check bool) "fallbacks found backups" true (!shared > calls / 2)

(* Searches running in two domains at once, each on its own network, must
   answer exactly as the same searches run one after another: each domain
   searches with its own scratch buffers. *)
let test_route_search_domains () =
  let answers _obs seed =
    let rng = Prng.create seed in
    let g = family_graph rng (seed mod 3) in
    let net = loaded_net rng g in
    List.init 200 (fun _ ->
        let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
        let req = Flooding.request ~src ~dst ~floor:(50 * (1 + Prng.int rng 6)) () in
        let primary = Flooding.primary_route net req in
        let primary_edges = match primary with Some p -> p.Paths.edges | None -> [] in
        (route_of primary, route_of (Flooding.backup_route net req ~primary_edges)))
  in
  let seeds = List.init 16 (fun i -> 500 + i) in
  let sequential = Sweep.map ~jobs:1 answers seeds in
  let parallel = Sweep.map ~jobs:2 answers seeds in
  Alcotest.(check (list (list (pair route route)))) "jobs 2 = jobs 1" sequential parallel

let () =
  Alcotest.run "routing"
    [
      ( "flooding",
        [
          Alcotest.test_case "min hop" `Quick test_primary_route_min_hop;
          Alcotest.test_case "capacity respected" `Quick test_primary_route_respects_capacity;
          Alcotest.test_case "allowance tiebreak" `Quick
            test_primary_route_allowance_tiebreak;
          Alcotest.test_case "hop bound" `Quick test_primary_route_hop_bound;
          Alcotest.test_case "failures avoided" `Quick test_primary_route_avoids_failures;
          Alcotest.test_case "directional capacity" `Quick
            test_primary_route_directional_capacity;
          Alcotest.test_case "backup disjoint" `Quick test_backup_route_disjoint;
          Alcotest.test_case "maximally disjoint fallback" `Quick
            test_backup_route_maximally_disjoint_fallback;
          Alcotest.test_case "multiplexing aware" `Quick test_backup_route_multiplexing_aware;
          Alcotest.test_case "message count" `Quick test_message_count;
          Alcotest.test_case "request validation" `Quick test_request_validation;
          Alcotest.test_case "matches the reference search" `Quick
            test_flooding_matches_reference;
          Alcotest.test_case "backup_admits is exact" `Quick test_backup_admits_exact;
          Alcotest.test_case "no major-heap garbage" `Quick test_route_search_allocation;
          Alcotest.test_case "domain-local scratch" `Quick test_route_search_domains;
        ] );
      ( "disjoint",
        [
          Alcotest.test_case "three paths" `Quick test_disjoint_paths;
          Alcotest.test_case "exhaustion" `Quick test_disjoint_exhaustion;
          Alcotest.test_case "filter" `Quick test_disjoint_respects_filter;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "matches flooding hops" `Quick
            test_sequential_matches_flooding_hops;
          Alcotest.test_case "skips inadmissible" `Quick test_sequential_skips_inadmissible;
          Alcotest.test_case "exhausts candidates" `Quick test_sequential_exhausts_candidates;
          Alcotest.test_case "backup disjoint" `Quick test_sequential_backup_disjoint;
          Alcotest.test_case "rejects useless backup" `Quick
            test_sequential_backup_rejects_useless;
          Alcotest.test_case "probe count" `Quick test_sequential_probe_count;
        ] );
      ( "yen",
        [
          Alcotest.test_case "ordering & distinctness" `Quick
            test_yen_ordering_and_distinctness;
          Alcotest.test_case "k=1 is bfs" `Quick test_yen_k1_is_bfs;
          Alcotest.test_case "disconnected" `Quick test_yen_disconnected;
          Alcotest.test_case "first admissible" `Quick test_first_admissible;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_disjoint_really_disjoint;
            qcheck_yen_sorted_distinct;
            qcheck_flooding_route_admissible;
          ] );
    ]
