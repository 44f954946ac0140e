type path = { nodes : int list; edges : int list }

let hop_count p = List.length p.edges

let is_valid g p =
  match p.nodes with
  | [] -> false
  | first :: rest ->
    let distinct = List.sort_uniq compare p.nodes in
    List.length distinct = List.length p.nodes
    && List.length p.nodes = List.length p.edges + 1
    &&
    let rec walk u nodes edges =
      match (nodes, edges) with
      | [], [] -> true
      | v :: nodes', e :: edges' -> (
        match Graph.find_edge g u v with
        | Some e' when e' = e -> walk v nodes' edges'
        | _ -> false)
      | _ -> false
    in
    walk first rest p.edges

let all_usable _ = true

(* BFS recording, for each reached node, the parent and edge it was
   reached through; shared by [hops_from] and [shortest_path]. *)
let bfs ?(usable = all_usable) g src =
  let n = Graph.node_count g in
  let dist = Array.make n (-1) in
  let via_node = Array.make n (-1) and via_edge = Array.make n (-1) in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (v, e) ->
        if usable e && dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          via_node.(v) <- u;
          via_edge.(v) <- e;
          Queue.push v q
        end)
      (Graph.neighbors g u)
  done;
  (dist, via_node, via_edge)

let hops_from ?usable g src =
  let dist, _, _ = bfs ?usable g src in
  dist

let rebuild_path ~via_node ~via_edge src dst =
  let rec walk v nodes edges =
    if v = src then { nodes = src :: nodes; edges }
    else walk via_node.(v) (v :: nodes) (via_edge.(v) :: edges)
  in
  walk dst [] []

let shortest_path ?usable g src dst =
  let dist, via_node, via_edge = bfs ?usable g src in
  if dist.(dst) < 0 then None else Some (rebuild_path ~via_node ~via_edge src dst)

(* Dijkstra's buffers: the per-node labels and a binary min-heap over
   (key, node) kept as two parallel arrays, so a search stores no boxed
   pair.  They grow to the largest graph searched and are reset at the
   start of each search, so reusing one across searches changes
   nothing but the allocation. *)
type scratch = {
  mutable dist : float array;
  mutable via_node : int array;
  mutable via_edge : int array;
  mutable settled : bool array;
  mutable keys : float array;
  mutable heap_nodes : int array;
  mutable size : int;
}

let scratch () =
  {
    dist = [||];
    via_node = [||];
    via_edge = [||];
    settled = [||];
    keys = Array.make 64 0.;
    heap_nodes = Array.make 64 (-1);
    size = 0;
  }

(* Sifts move a hole instead of swapping pairs; every comparison is the
   one a swapping sift would make, so the arrangement is the same. *)
let heap_push s key v =
  if s.size = Array.length s.keys then begin
    let keys = Array.make (2 * s.size) 0. and nodes = Array.make (2 * s.size) (-1) in
    Array.blit s.keys 0 keys 0 s.size;
    Array.blit s.heap_nodes 0 nodes 0 s.size;
    s.keys <- keys;
    s.heap_nodes <- nodes
  end;
  let keys = s.keys and nodes = s.heap_nodes in
  let i = ref s.size in
  s.size <- s.size + 1;
  while !i > 0 && keys.((!i - 1) / 2) > key do
    let parent = (!i - 1) / 2 in
    keys.(!i) <- keys.(parent);
    nodes.(!i) <- nodes.(parent);
    i := parent
  done;
  keys.(!i) <- key;
  nodes.(!i) <- v

(* Drop the minimum; the caller reads it from slot 0 first.  The last
   entry sinks from the root. *)
let heap_pop s =
  let keys = s.keys and nodes = s.heap_nodes in
  let size = s.size - 1 in
  s.size <- size;
  let key = keys.(size) and v = nodes.(size) in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let c = if l < size && keys.(l) < key then l else !i in
    let c = if r < size && keys.(r) < (if c = !i then key else keys.(c)) then r else c in
    if c = !i then continue := false
    else begin
      keys.(!i) <- keys.(c);
      nodes.(!i) <- nodes.(c);
      i := c
    end
  done;
  keys.(!i) <- key;
  nodes.(!i) <- v

let dijkstra ?(scratch = scratch ()) ~weight ?(usable = all_usable) g src dst =
  let s = scratch in
  let n = Graph.node_count g in
  if Array.length s.dist < n then begin
    s.dist <- Array.make n infinity;
    s.via_node <- Array.make n (-1);
    s.via_edge <- Array.make n (-1);
    s.settled <- Array.make n false
  end;
  let dist = s.dist and settled = s.settled in
  Array.fill dist 0 n infinity;
  Array.fill settled 0 n false;
  s.size <- 0;
  dist.(src) <- 0.;
  heap_push s 0. src;
  (* Once [dst] is settled its distance and its chain of parents are
     final, so the rest of the graph need not be explored. *)
  while s.size > 0 && not settled.(dst) do
    let d = s.keys.(0) and u = s.heap_nodes.(0) in
    heap_pop s;
    if not settled.(u) && d <= dist.(u) then begin
      settled.(u) <- true;
      List.iter
        (fun (v, e) ->
          if usable e && not settled.(v) then begin
            let w = weight e in
            if w < 0. then invalid_arg "Paths.dijkstra: negative weight";
            let alt = d +. w in
            if alt < dist.(v) then begin
              dist.(v) <- alt;
              s.via_node.(v) <- u;
              s.via_edge.(v) <- e;
              heap_push s alt v
            end
          end)
        (Graph.neighbors g u)
    end
  done;
  if Float.equal dist.(dst) infinity then None
  else Some (rebuild_path ~via_node:s.via_node ~via_edge:s.via_edge src dst, dist.(dst))

let widest_path ~width g src dst =
  let n = Graph.node_count g in
  (* Maximise the bottleneck; among equal bottlenecks prefer fewer hops.
     Label = (-bottleneck, hops) ordered lexicographically, packed into the
     float key via a second pass: we instead run a modified Dijkstra keeping
     both components explicitly. *)
  let bottleneck = Array.make n neg_infinity in
  let hops = Array.make n max_int in
  let via_node = Array.make n (-1) and via_edge = Array.make n (-1) in
  let settled = Array.make n false in
  let better v b h = b > bottleneck.(v) || (Float.equal b bottleneck.(v) && h < hops.(v)) in
  bottleneck.(src) <- infinity;
  hops.(src) <- 0;
  let rec pick_next () =
    (* Linear scan is fine at n <= a few hundred. *)
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if (not settled.(v)) && bottleneck.(v) > neg_infinity then
        if !best < 0
           || bottleneck.(v) > bottleneck.(!best)
           || (Float.equal bottleneck.(v) bottleneck.(!best) && hops.(v) < hops.(!best))
        then best := v
    done;
    if !best < 0 then ()
    else begin
      let u = !best in
      settled.(u) <- true;
      if u <> dst then begin
        List.iter
          (fun (v, e) ->
            if not settled.(v) then begin
              let b = Float.min bottleneck.(u) (width e) in
              let h = hops.(u) + 1 in
              if better v b h then begin
                bottleneck.(v) <- b;
                hops.(v) <- h;
                via_node.(v) <- u;
                via_edge.(v) <- e
              end
            end)
          (Graph.neighbors g u);
        pick_next ()
      end
    end
  in
  pick_next ();
  if Float.equal bottleneck.(dst) neg_infinity then None
  else Some (rebuild_path ~via_node ~via_edge src dst, bottleneck.(dst))

let eccentricity g u =
  let dist = hops_from g u in
  Array.fold_left (fun acc d -> if d > acc then d else acc) 0 dist

let diameter g =
  let worst = ref 0 in
  for u = 0 to Graph.node_count g - 1 do
    let e = eccentricity g u in
    if e > !worst then worst := e
  done;
  !worst

let average_hops g =
  let total = ref 0 and pairs = ref 0 in
  for u = 0 to Graph.node_count g - 1 do
    let dist = hops_from g u in
    Array.iteri
      (fun v d ->
        if v <> u && d > 0 then begin
          total := !total + d;
          incr pairs
        end)
      dist
  done;
  if !pairs = 0 then 0. else float_of_int !total /. float_of_int !pairs
