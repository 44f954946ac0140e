(** Shortest-path queries over {!Graph}.

    A [path] records both the node sequence and the edge-id sequence; the
    network layer reserves bandwidth by edge id, so the edge list is the
    authoritative part. *)

type path = { nodes : int list; edges : int list }
(** [nodes] has one more element than [edges]; [List.nth nodes k] and
    [List.nth nodes (k+1)] are the endpoints of [List.nth edges k]. *)

val hop_count : path -> int
(** Number of edges. *)

val is_valid : Graph.t -> path -> bool
(** Structural check: consecutive nodes joined by the listed edges, no
    repeated node (simple path). *)

val hops_from : ?usable:(int -> bool) -> Graph.t -> int -> int array
(** [hops_from g src] gives BFS hop distances from [src]; [-1] marks
    unreachable nodes.  [usable] filters edges (default: all usable). *)

val shortest_path : ?usable:(int -> bool) -> Graph.t -> int -> int -> path option
(** Minimum-hop path from [src] to [dst] among edges satisfying [usable].
    [None] when disconnected.  [Some {nodes = [src]; edges = []}] when
    [src = dst]. *)

val rebuild_path : via_node:int array -> via_edge:int array -> int -> int -> path
(** [rebuild_path ~via_node ~via_edge src dst] walks a search tree back
    from [dst]: node [v] was reached from [via_node.(v)] over edge
    [via_edge.(v)].  Every node on the walk must have been reached. *)

type scratch
(** Reusable buffers for {!dijkstra}, grown to the largest graph searched
    with them.  Not safe to share between concurrent searches. *)

val scratch : unit -> scratch

val dijkstra :
  ?scratch:scratch ->
  weight:(int -> float) -> ?usable:(int -> bool) -> Graph.t -> int -> int ->
  (path * float) option
(** Least-total-weight path; [weight e] must be >= 0 for every edge.
    [scratch] (default: fresh buffers) lets repeated searches reuse one
    set of n-sized arrays and heap instead of allocating them; the result
    does not depend on it.  [weight] and [usable] must not search with
    the same [scratch]. *)

val widest_path :
  width:(int -> float) -> Graph.t -> int -> int -> (path * float) option
(** Maximum-bottleneck path: maximises [min over edges of width e]; ties
    broken toward fewer hops.  Used to model the flooding variant that
    prefers the best bandwidth allowance. *)

val eccentricity : Graph.t -> int -> int
(** Greatest hop distance from a node to any reachable node. *)

val diameter : Graph.t -> int
(** Max eccentricity over nodes; 0 for empty/one-node graphs.  Only
    meaningful on connected graphs (unreachable pairs are ignored). *)

val average_hops : Graph.t -> float
(** Mean hop distance over all ordered connected pairs; 0 if none. *)
