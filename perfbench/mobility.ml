(* Seeded churn generator for the serve loop, with its own link model.

   Mobile sensors ([Disk]): every node has a position; a move is a
   random-walk step of at most one radius and re-homes the node onto
   every live node in range, a join places a fresh id or revives a ghost
   at a uniform position, a leave removes a live node, a degrade removes
   one existing link.  General graphs ([Uniform]) have no geometry: joins
   and moves link to [degree] uniformly drawn live nodes, which keeps a
   dense graph dense.  The event mix is Service.synth's 25/15/40/20
   join/leave/move/degrade.

   Events are generated against the model alone (nothing here calls into
   the service), so the generator costs the same whatever the program
   does with them.  Within one batch every event is independent of the
   others, which makes the service's batch semantics (coalescing, union
   of neighbour lists, degrades subsumed by node ops) coincide with
   applying the events one by one to the model:
   - a node is the subject of at most one join/leave/move per batch, and
     never after another event of the batch named it as a neighbour;
   - a degrade never touches a subject of the batch, so the link it
     removes existed before the batch. *)

open Fdlsp_graph
open Fdlsp_core

type neighbourhood =
  | Disk of { side : float; radius : float }
  | Uniform of { degree : int }

(* A set of node ids with O(1) random draw and removal. *)
type bag = { mutable items : int array; mutable size : int; mutable slot : int array }

let bag_create () = { items = [||]; size = 0; slot = [||] }

let grow a len fill =
  if Array.length a >= len then a
  else
    let b = Array.make (max len (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

let bag_add b v =
  b.items <- grow b.items (b.size + 1) 0;
  b.slot <- grow b.slot (v + 1) (-1);
  b.items.(b.size) <- v;
  b.slot.(v) <- b.size;
  b.size <- b.size + 1

let bag_mem b v = v < Array.length b.slot && b.slot.(v) >= 0

let bag_remove b v =
  let i = b.slot.(v) in
  let last = b.items.(b.size - 1) in
  b.items.(i) <- last;
  b.slot.(last) <- i;
  b.slot.(v) <- -1;
  b.size <- b.size - 1

type t = {
  rng : Random.State.t;
  hood : neighbourhood;
  mutable n : int;
  mutable pos : Geometry.point array;
  mutable adj : (int, unit) Hashtbl.t array;
  mutable degraded : (int, unit) Hashtbl.t array;
      (** per node: partners of degraded links still in range *)
  live : bag;
  ghosts : bag;
  cols : int;
  cells : int list array;  (** Disk: live nodes per radius-sized cell *)
}

let origin = { Geometry.x = 0.; y = 0. }

let cell t p =
  match t.hood with
  | Disk { radius; _ } ->
      let c x = min (t.cols - 1) (int_of_float (Float.floor (x /. radius))) in
      (c p.Geometry.y * t.cols) + c p.x
  | Uniform _ -> 0

let place t v =
  match t.hood with
  | Disk _ ->
      let c = cell t t.pos.(v) in
      t.cells.(c) <- v :: t.cells.(c)
  | Uniform _ -> ()

let unplace t v =
  match t.hood with
  | Disk _ ->
      let c = cell t t.pos.(v) in
      t.cells.(c) <- List.filter (fun w -> w <> v) t.cells.(c)
  | Uniform _ -> ()

let create ~seed ~hood ?points g =
  let n = Graph.n g in
  let pos =
    match (hood, points) with
    | Disk _, Some p when Array.length p = n -> Array.copy p
    | Disk _, _ -> invalid_arg "Mobility.create: Disk needs one point per node"
    | Uniform _, _ -> Array.make n origin
  in
  let cols =
    match hood with
    | Disk { side; radius } -> int_of_float (Float.floor (side /. radius)) + 1
    | Uniform _ -> 1
  in
  let t =
    {
      rng = Random.State.make [| 0x6d6f62; seed |];
      hood;
      n;
      pos;
      adj = Array.init n (fun _ -> Hashtbl.create 8);
      degraded = Array.init n (fun _ -> Hashtbl.create 1);
      live = bag_create ();
      ghosts = bag_create ();
      cols;
      cells = Array.make (cols * cols) [];
    }
  in
  Graph.iter_edges g (fun _ u v ->
      Hashtbl.replace t.adj.(u) v ();
      Hashtbl.replace t.adj.(v) u ());
  for v = 0 to n - 1 do
    bag_add t.live v;
    place t v
  done;
  t

let nodes t = t.n

let sorted_keys h = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) h [])

(* Live nodes in range of [p] (Disk) in ascending id order. *)
let in_range t p =
  match t.hood with
  | Uniform _ -> []
  | Disk { radius; _ } ->
      let r2 = radius *. radius in
      let cx = min (t.cols - 1) (int_of_float (Float.floor (p.Geometry.x /. radius))) in
      let cy = min (t.cols - 1) (int_of_float (Float.floor (p.y /. radius))) in
      let acc = ref [] in
      for y = max 0 (cy - 1) to min (t.cols - 1) (cy + 1) do
        for x = max 0 (cx - 1) to min (t.cols - 1) (cx + 1) do
          List.iter
            (fun w -> if Geometry.dist2 p t.pos.(w) <= r2 then acc := w :: !acc)
            t.cells.((y * t.cols) + x)
        done
      done;
      List.sort compare !acc

let random_point t =
  match t.hood with
  | Disk { side; _ } ->
      { Geometry.x = Random.State.float t.rng side; y = Random.State.float t.rng side }
  | Uniform _ -> origin

let step_point t p =
  match t.hood with
  | Disk { side; radius } ->
      let a = Random.State.float t.rng (2. *. Float.pi) in
      let r = radius *. sqrt (Random.State.float t.rng 1.) in
      let clamp x = Float.min side (Float.max 0. x) in
      { Geometry.x = clamp (p.Geometry.x +. (r *. cos a)); y = clamp (p.y +. (r *. sin a)) }
  | Uniform _ -> origin

(* [degree] distinct live nodes other than [v], ascending. *)
let draw_uniform t v degree =
  let want = min degree (t.live.size - if bag_mem t.live v then 1 else 0) in
  let chosen = Hashtbl.create (2 * want + 1) in
  while Hashtbl.length chosen < want do
    let w = t.live.items.(Random.State.int t.rng t.live.size) in
    if w <> v then Hashtbl.replace chosen w ()
  done;
  sorted_keys chosen

let neighbours_at t v p =
  match t.hood with
  | Disk _ -> List.filter (fun w -> w <> v) (in_range t p)
  | Uniform { degree } -> draw_uniform t v degree

let clear_degraded t v =
  Hashtbl.iter (fun w () -> Hashtbl.remove t.degraded.(w) v) t.degraded.(v);
  Hashtbl.reset t.degraded.(v)

let unlink_all t v =
  Hashtbl.iter (fun w () -> Hashtbl.remove t.adj.(w) v) t.adj.(v);
  Hashtbl.reset t.adj.(v);
  clear_degraded t v

let link_all t v nbrs =
  List.iter
    (fun w ->
      Hashtbl.replace t.adj.(v) w ();
      Hashtbl.replace t.adj.(w) v ())
    nbrs

let fresh_id t =
  let v = t.n in
  t.n <- v + 1;
  if v >= Array.length t.adj then begin
    let cap = max 16 (2 * v) in
    let extend a fresh = Array.init cap (fun i -> if i < Array.length a then a.(i) else fresh ()) in
    t.adj <- extend t.adj (fun () -> Hashtbl.create 8);
    t.degraded <- extend t.degraded (fun () -> Hashtbl.create 1);
    t.pos <- grow t.pos cap origin
  end;
  v

let next_batch t ~size =
  let subjects = Hashtbl.create 32 and named = Hashtbl.create 256 in
  let free v = not (Hashtbl.mem subjects v || Hashtbl.mem named v) in
  let draw bag ok =
    let rec go k =
      if k = 0 || bag.size = 0 then None
      else
        let v = bag.items.(Random.State.int t.rng bag.size) in
        if ok v then Some v else go (k - 1)
    in
    go 8
  in
  let subject v nbrs =
    Hashtbl.replace subjects v ();
    List.iter (fun w -> Hashtbl.replace named w ()) nbrs
  in
  let join () =
    let ghost =
      if t.ghosts.size > 0 && Random.State.bool t.rng then
        draw t.ghosts (fun v -> not (Hashtbl.mem subjects v))
      else None
    in
    let v =
      match ghost with
      | Some v ->
          bag_remove t.ghosts v;
          v
      | None -> fresh_id t
    in
    t.pos.(v) <- random_point t;
    let nbrs = neighbours_at t v t.pos.(v) in
    bag_add t.live v;
    place t v;
    link_all t v nbrs;
    subject v nbrs;
    Some (Service.Join { node = v; neighbors = nbrs })
  in
  let leave () =
    if t.live.size <= 2 then None
    else
      match draw t.live free with
      | None -> None
      | Some v ->
          unlink_all t v;
          unplace t v;
          bag_remove t.live v;
          bag_add t.ghosts v;
          subject v [];
          Some (Service.Leave v)
  in
  let move () =
    match draw t.live free with
    | None -> None
    | Some v ->
        unlink_all t v;
        unplace t v;
        t.pos.(v) <- step_point t t.pos.(v);
        let nbrs = neighbours_at t v t.pos.(v) in
        place t v;
        link_all t v nbrs;
        subject v nbrs;
        Some (Service.Move { node = v; neighbors = nbrs })
  in
  let degrade () =
    let ok u = (not (Hashtbl.mem subjects u)) && Hashtbl.length t.adj.(u) > 0 in
    match draw t.live ok with
    | None -> None
    | Some u -> (
        let cands = List.filter (fun w -> not (Hashtbl.mem subjects w)) (sorted_keys t.adj.(u)) in
        match cands with
        | [] -> None
        | _ ->
            let v = List.nth cands (Random.State.int t.rng (List.length cands)) in
            Hashtbl.remove t.adj.(u) v;
            Hashtbl.remove t.adj.(v) u;
            Hashtbl.replace t.degraded.(u) v ();
            Hashtbl.replace t.degraded.(v) u ();
            Some (Service.Degrade { u; v }))
  in
  let events = ref [] and made = ref 0 and tries = ref 0 in
  while !made < size && !tries < 4 * size do
    incr tries;
    let roll = Random.State.int t.rng 100 in
    let ev =
      if roll < 25 then join ()
      else if roll < 40 then leave ()
      else if roll < 80 then move ()
      else degrade ()
    in
    Option.iter
      (fun e ->
        events := e :: !events;
        incr made)
      ev
  done;
  List.rev !events

let edges_of adj_of n =
  let acc = ref [] in
  for u = n - 1 downto 0 do
    List.iter (fun v -> if u < v then acc := (u, v) :: !acc) (adj_of u)
  done;
  !acc

(* The model's link graph over the whole id space (ghosts isolated). *)
let graph t = Graph.create ~n:t.n (edges_of (fun u -> sorted_keys t.adj.(u)) t.n)

(* Disk: the live unit-disk graph minus degraded links, recomputed from
   positions — what [graph] must equal. *)
let disk_graph t =
  let adj_of u =
    if not (bag_mem t.live u) then []
    else List.filter (fun w -> w <> u && not (Hashtbl.mem t.degraded.(u) w)) (in_range t t.pos.(u))
  in
  Graph.create ~n:t.n (edges_of adj_of t.n)
