type request = { src : int; dst : int; floor : Bandwidth.t; hop_bound : int }

let request ?(hop_bound = 16) ~src ~dst ~floor () =
  if src = dst then invalid_arg "Flooding.request: src = dst";
  if floor <= 0 then invalid_arg "Flooding.request: floor must be positive";
  if hop_bound < 1 then invalid_arg "Flooding.request: hop_bound >= 1";
  { src; dst; floor; hop_bound }

(* Search buffers, one set per domain ([Domain.DLS], as [Obs]'s default
   context), so concurrent searches from [Sweep.map] workers never share
   them.  The node-indexed arrays grow to the largest graph searched.
   [order] lists the nodes a search reached, in discovery order; the
   next search first resets just those labels.  [edge_tag.(e)] holds
   edge [e]'s flags for the current backup request above the request's
   [stamp]; a tag under an older stamp reads as no flags, so bumping
   [stamp] clears every edge at once. *)
type scratch = {
  mutable dist : int array;
  mutable best_allow : int array;
  mutable via_node : int array;
  mutable via_edge : int array;
  mutable order : int array;
  mutable reached : int;
  mutable edge_tag : int array;
  mutable stamp : int;
  dijkstra : Paths.scratch;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        dist = [||];
        best_allow = [||];
        via_node = [||];
        via_edge = [||];
        order = [||];
        reached = 0;
        edge_tag = [||];
        stamp = 0;
        dijkstra = Paths.scratch ();
      })

let node_scratch g =
  let s = Domain.DLS.get scratch_key in
  let n = Graph.node_count g in
  if Array.length s.dist < n then begin
    s.dist <- Array.make n max_int;
    s.best_allow <- Array.make n min_int;
    s.via_node <- Array.make n (-1);
    s.via_edge <- Array.make n (-1);
    s.order <- Array.make n (-1);
    s.reached <- 0
  end;
  s

(* Edge flags: on the request's primary, banned, and — once the
   fallback has decided the edge — whether it may carry the backup. *)
let on_primary = 1
let banned = 2
let decided = 4
let admitted = 8
let flag_bits = 4

let flags s e =
  let tag = s.edge_tag.(e) in
  if tag lsr flag_bits = s.stamp then tag land ((1 lsl flag_bits) - 1) else 0

let add_flag s e flag = s.edge_tag.(e) <- (s.stamp lsl flag_bits) lor flags s e lor flag

(* Fresh stamp for one backup request, with [primary_edges] and
   [banned_edges] flagged under it. *)
let edge_scratch g ~primary_edges ~banned_edges =
  let s = node_scratch g in
  let m = Graph.edge_count g in
  if Array.length s.edge_tag < m then s.edge_tag <- Array.make m 0;
  s.stamp <- s.stamp + 1;
  (* Ids outside the graph can never be searched, so they need no flag. *)
  let mark flag e = if e >= 0 && e < m then add_flag s e flag in
  List.iter (mark on_primary) primary_edges;
  List.iter (mark banned) banned_edges;
  s

(* Hop-bounded BFS over directed links.  [allowance dl] returns the
   bandwidth this directed link could still give the request, or a
   negative number when the link cannot admit it at all.  Among routes of
   equal (minimal) hop count the one with the larger bottleneck allowance
   wins — that is the copy the destination would have confirmed.  Each
   level is a run of [order], walked newest-first (the order a prepended
   list gives), so ties go to the same route as they always have. *)
let search_best s net req ~allowance =
  let g = Net_state.graph net in
  let dist = s.dist and best_allow = s.best_allow and order = s.order in
  for i = 0 to s.reached - 1 do
    dist.(order.(i)) <- max_int;
    best_allow.(order.(i)) <- min_int
  done;
  s.reached <- 0;
  let reach v =
    order.(s.reached) <- v;
    s.reached <- s.reached + 1
  in
  dist.(req.src) <- 0;
  best_allow.(req.src) <- max_int;
  reach req.src;
  let first = ref 0 in
  let depth = ref 0 in
  while !first < s.reached && !depth < req.hop_bound && dist.(req.dst) = max_int do
    let level = !depth + 1 in
    let last = s.reached - 1 in
    (* Relax the whole level before moving on so the same-depth
       allowance tie-break is order-independent. *)
    for i = last downto !first do
      let u = order.(i) in
      List.iter
        (fun (v, e) ->
          if Net_state.usable_edge net e && dist.(v) >= level then begin
            let dl = Dirlink.of_edge g ~edge:e ~src:u in
            let a = allowance dl in
            if a >= 0 then begin
              let bottleneck = min best_allow.(u) a in
              if dist.(v) > level || bottleneck > best_allow.(v) then begin
                if dist.(v) > level then reach v;
                dist.(v) <- level;
                best_allow.(v) <- bottleneck;
                s.via_node.(v) <- u;
                s.via_edge.(v) <- e
              end
            end
          end)
        (Graph.neighbors g u)
    done;
    first := last + 1;
    incr depth
  done;
  if dist.(req.dst) = max_int then None
  else Some (Paths.rebuild_path ~via_node:s.via_node ~via_edge:s.via_edge req.src req.dst)

let primary_route net req =
  let allowance dl =
    let l = Net_state.link net dl in
    if Link_state.admissible_primary l ~b_min:req.floor then
      Link_state.reclaimable_headroom l
    else -1
  in
  search_best (node_scratch (Net_state.graph net)) net req ~allowance

(* Backup admissibility on a directed link: the pool after adding this
   backup must fit beside the primary floors. *)
let backup_allowance net ~floor ~primary_edges dl =
  let l = Net_state.link net dl in
  let pool' = Link_state.backup_pool_with l ~b_min:floor ~primary_edges in
  let headroom = Link_state.capacity l - Link_state.primary_min_total l - pool' in
  if headroom >= 0 then headroom else -1

let backup_route ?(banned_edges = []) net req ~primary_edges =
  let g = Net_state.graph net in
  let s = edge_scratch g ~primary_edges ~banned_edges in
  (* First try: fully link-disjoint. *)
  let disjoint_allowance dl =
    let e = Dirlink.edge dl in
    if flags s e land (on_primary lor banned) <> 0 then -1
    else backup_allowance net ~floor:req.floor ~primary_edges dl
  in
  match search_best s net req ~allowance:disjoint_allowance with
  | Some _ as found -> found
  | None ->
    (* Maximally disjoint: Dijkstra minimising (shared edges, hops) via a
       large per-shared-edge penalty, over links that pass the backup
       admission test. *)
    let penalty = float_of_int (Graph.node_count g * Graph.node_count g) in
    let weight e = if flags s e land on_primary <> 0 then penalty +. 1. else 1. in
    let admits dl =
      Link_state.backup_admits (Net_state.link net dl) ~b_min:req.floor ~primary_edges
    in
    (* Dijkstra asks about an edge from both endpoints; the verdict is
       computed once per search and kept in the edge's flags. *)
    let usable e =
      let f = flags s e in
      if f land decided <> 0 then f land admitted <> 0
      else begin
        let ok =
          Net_state.usable_edge net e
          && f land banned = 0
          &&
          (* Both directions might be used by Dijkstra; the admission test
             is directional, so accept the edge only if at least one
             direction admits — the final path is re-checked by the caller
             via reservation, which raises on the bad direction.  To stay
             exact we conservatively require both directions to admit. *)
          admits (2 * e)
          && admits ((2 * e) + 1)
        in
        add_flag s e (if ok then decided lor admitted else decided);
        ok
      end
    in
    (match Paths.dijkstra ~scratch:s.dijkstra ~weight ~usable g req.src req.dst with
    | None -> None
    | Some (path, _) ->
      (* A backup covering none of the primary's edges' failures is
         useless: if every primary edge also lies on the backup, any
         primary failure kills the backup too — report no backup. *)
      let protects =
        List.exists (fun e -> not (List.mem e path.Paths.edges)) primary_edges
      in
      if Paths.hop_count path > req.hop_bound || not protects then None
      else Some path)

let message_count g req =
  (* One transmission per directed link whose tail is strictly inside the
     flooding region (hop distance < hop_bound) — every such node forwards
     the request once over each outgoing link except back where it came
     from; we charge the full out-degree as an upper-bound model and
     subtract the return link. *)
  let dist = Paths.hops_from g req.src in
  let total = ref 0 in
  for u = 0 to Graph.node_count g - 1 do
    if dist.(u) >= 0 && dist.(u) < req.hop_bound then begin
      let d = Graph.degree g u in
      let forwards = if u = req.src then d else max 0 (d - 1) in
      total := !total + forwards
    end
  done;
  !total
