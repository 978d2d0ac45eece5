(** Graph traversals: BFS distances, bounded neighborhoods, components,
    DFS orders.  These back both the algorithms (k-hop knowledge,
    DFS token order) and the test oracles (independence distances). *)

val bfs_distances : Graph.t -> int -> int array
(** Hop distance from the source; [max_int] for unreachable nodes. *)

val distance : Graph.t -> int -> int -> int
(** Pairwise hop distance ([max_int] if disconnected). *)

val within : Graph.t -> int -> int -> int list
(** [within g v r] lists nodes at hop distance in [1..r] from [v],
    ascending — the [N^r(v)] neighborhood of the paper minus [v].  A
    call costs O(size of the ball), not O(n). *)

val components : Graph.t -> int array * int
(** [components g] labels every node with a component id in
    [0 .. k-1] and returns [k]. *)

val is_connected : Graph.t -> bool

val dfs_preorder : Graph.t -> int -> next:(int -> int list -> int option) -> int list
(** [dfs_preorder g root ~next] runs a depth-first traversal of the
    component of [root], where [next v candidates] picks which unvisited
    neighbor of [v] to descend into ([candidates] is non-empty, ascending).
    Returns nodes in first-visit order.  This mirrors Algorithm 2's token
    walk, whose tie-break (max degree) is a [next] policy. *)

val eccentricity : Graph.t -> int -> int
(** Greatest finite hop distance from the node. *)

val diameter : Graph.t -> int
(** Largest eccentricity over all nodes, ignoring unreachable pairs;
    0 for the empty graph. *)
