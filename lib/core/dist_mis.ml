open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim

let src = Logs.Src.create "fdlsp.dist_mis" ~doc:"DistMIS (Algorithm 1)"

module Log = (val Logs.src_log src : Logs.LOG)

type variant = Gbg | General

type result = {
  schedule : Schedule.t;
  stats : Stats.t;
  outer_iters : int;
  inner_iters : int;
}

let hop_distance = function Gbg -> 3 | General -> 2

(* Virtual competition graph of the secondary MIS: nodes are the current
   [S]-members, joined when within [dist] hops in the communication
   graph (finished nodes still relay).  Returns the virtual graph and
   the member array mapping virtual ids to real ids. *)
let virtual_graph g members ~dist =
  let index = Array.make (Graph.n g) (-1) in
  let count = ref 0 in
  Array.iteri
    (fun v m ->
      if m then begin
        index.(v) <- !count;
        incr count
      end)
    members;
  let back = Array.make !count 0 in
  Array.iteri (fun v i -> if i >= 0 then back.(i) <- v) index;
  let edges = ref [] in
  Array.iteri
    (fun i v ->
      List.iter
        (fun w ->
          let j = index.(w) in
          if j > i then edges := (i, j) :: !edges)
        (Traversal.within g v dist))
    back;
  (Graph.create ~n:!count !edges, back)

(* --- the 3-round gather/color phase ------------------------------- *)

(* A color table: (arc, slot) entries.  Payloads are lists, not arrays:
   an array over 256 words is allocated straight into the major heap. *)
type table = (Arc.id * int) list

type phase_state = {
  own : table; (* this node's colored incident arcs *)
  mutable gathered : table list; (* a winner's round-2 tables, kept for round 3 *)
  mutable assigned : table; (* a winner's new colors, in arc order *)
}

(* Every node starts a phase in this shared state: halo nodes build
   their own in round 1, the only round all of them step, so init is
   O(1) per node; nodes beyond the winners' 2-hop halo are never
   stepped and keep it. *)
let idle = { own = []; gathered = []; assigned = [] }

(* The colour kernel's working set: a flat arc-indexed color table whose
   entries count only while stamped with the current generation [gen]
   (bumping it empties the table in O(1)), a stamped forbidden-slot set
   for first-fit, and the conflict enumeration's scratch.  Each is
   single-use at a time and the parallel engine steps nodes on several
   domains at once, so there is one kernel per domain.  The tables grow
   to the largest graph seen and serve every graph, so a phase allocates
   nothing; the conflict scratch is bound to one graph (by physical
   equality — one cached entry, not a leak-prone table). *)
type kernel = {
  mutable mark : int array; (* arc -> generation that last wrote [color] *)
  mutable color : int array;
  mutable gen : int;
  mutable forbidden : int array; (* slot -> [fgen] that forbade it *)
  mutable fgen : int;
  mutable conflict : (Graph.t * Conflict.scratch) option;
}

let kernel_key =
  Domain.DLS.new_key (fun () ->
      { mark = [||]; color = [||]; gen = 0; forbidden = [||]; fgen = 0; conflict = None })

let domain_kernel g =
  let k = Domain.DLS.get kernel_key in
  let arcs = Arc.count g in
  if Array.length k.mark < arcs then begin
    k.mark <- Array.make arcs 0;
    k.color <- Array.make arcs 0;
    k.gen <- 0;
    (* first-fit never passes the number of conflicting arcs *)
    k.forbidden <- Array.make (arcs + 1) 0;
    k.fgen <- 0
  end;
  k

let conflict_scratch k g =
  match k.conflict with
  | Some (g', s) when g' == g -> s
  | _ ->
      let s = Conflict.scratch g in
      k.conflict <- Some (g, s);
      s

(* the next generation for [stamps]; the wrap refills them *)
let bump stamps gen =
  if gen = max_int then begin
    Array.fill stamps 0 (Array.length stamps) 0;
    1
  end
  else gen + 1

(* Loads the de-duplicated union of [tables] into the kernel's table
   under a fresh generation, calling [f] on each arc's first entry. *)
let union k tables f =
  k.gen <- bump k.mark k.gen;
  let gen = k.gen in
  List.iter
    (List.iter (fun ((a, c) as entry) ->
         if k.mark.(a) <> gen then begin
           k.mark.(a) <- gen;
           k.color.(a) <- c;
           f entry
         end))
    tables

(* Colors the arcs [iter_targets] visits first-fit against the loaded
   table, entering each pick so a node's own simultaneous picks stay
   consistent; arcs already in the table are skipped. *)
let greedy_assign k g iter_targets =
  let gen = k.gen and mark = k.mark and color = k.color and forbidden = k.forbidden in
  let slots = Array.length forbidden and scratch = conflict_scratch k g in
  let assigned = ref [] in
  iter_targets (fun a ->
      if mark.(a) <> gen then begin
        k.fgen <- bump forbidden k.fgen;
        let fgen = k.fgen in
        Conflict.iter_conflicting ~scratch g a (fun b ->
            if mark.(b) = gen && color.(b) < slots then forbidden.(color.(b)) <- fgen);
        let rec first c = if c < slots && forbidden.(c) = fgen then first (c + 1) else c in
        let c = first 0 in
        mark.(a) <- gen;
        color.(a) <- c;
        assigned := (a, c) :: !assigned
      end);
  List.rev !assigned

(* Hop distance (0, 1, 2 or 3=far) to the nearest chosen node, by
   multi-source BFS.  Non-chosen nodes learn their distance to the
   nearest secondary-MIS winner for free during the competition relay,
   so scoping the gather to the 2-hop halo of the winners is local
   knowledge, not an oracle. *)
let halo g chosen =
  let dist = Array.make (Graph.n g) 3 in
  let q = Queue.create () in
  Array.iteri
    (fun v c ->
      if c then begin
        dist.(v) <- 0;
        Queue.add v q
      end)
    chosen;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    if dist.(v) < 2 then
      Graph.iter_neighbors g v (fun w ->
          if dist.(w) = 3 then begin
            dist.(w) <- dist.(v) + 1;
            Queue.add w q
          end)
  done;
  dist

let color_phase ~engine ?(trace = Trace.null) ?(metrics = Metrics.null) g sched ~chosen
    ~outgoing_only =
  let dist = halo g chosen in
  let init v = (idle, dist.(v) <= 2) in
  let send_to g v payload ~keep =
    Graph.fold_neighbors g v (fun acc w -> if keep w then (w, payload) :: acc else acc) []
  in
  let step ~round v state inbox =
    match round with
    | 1 ->
        let own = ref [] in
        Arc.iter_incident g v (fun a ->
            let c = Schedule.get sched a in
            if c >= 0 then own := (a, c) :: !own);
        let state = { own = !own; gathered = []; assigned = [] } in
        (* halo nodes push their tables toward the winners' neighbors *)
        (state, Sync.Continue (send_to g v state.own ~keep:(fun w -> dist.(w) <= 1)))
    | 2 ->
        let tables = List.map snd inbox in
        if chosen.(v) then state.gathered <- tables;
        (* winners' neighbors forward their merged 2-hop table *)
        let winners =
          Graph.fold_neighbors g v (fun acc w -> if chosen.(w) then w :: acc else acc) []
        in
        if winners = [] then (state, Sync.Continue [])
        else begin
          let merged = ref [] in
          union (domain_kernel g) (state.own :: tables) (fun e -> merged := e :: !merged);
          (state, Sync.Continue (List.map (fun w -> (w, !merged)) winners))
        end
    | _ ->
        if chosen.(v) then begin
          let k = domain_kernel g in
          let tables = List.rev_append (List.map snd inbox) state.gathered in
          union k (state.own :: tables) ignore;
          let iter_targets = if outgoing_only then Arc.iter_out g v else Arc.iter_incident g v in
          state.assigned <- greedy_assign k g iter_targets;
          (* the announce broadcast of the assignment *)
          (state, Sync.Halt (send_to g v state.assigned ~keep:(fun _ -> true)))
        end
        else (state, Sync.Halt [])
  in
  let states, stats = engine.Reliable.run ~weight:List.length ~metrics g ~init ~step in
  let t_done = float_of_int stats.Stats.rounds in
  let colored = ref 0 in
  Array.iteri
    (fun v s ->
      List.iter
        (fun (a, c) ->
          if Schedule.is_colored sched a then
            invalid_arg "Dist_mis: simultaneous recoloring detected";
          Schedule.set sched a c;
          incr colored;
          Trace.emit trace ~t:t_done (Trace.Color { node = v; arc = a; slot = c }))
        s.assigned)
    states;
  Metrics.inc ~by:!colored metrics Metrics.Name.colors;
  stats

(* --- the full algorithm ------------------------------------------- *)

let run ?faults ?reliable ?engine ?(trace = Trace.null) ?(metrics = Metrics.null)
    ?(spans = Span.null) ~mis ~variant g =
  let engine =
    match engine with
    | Some e -> e
    | None -> Reliable.runner ?faults ?config:reliable ~trace ~spans ()
  in
  let metrics =
    Metrics.with_label
      (Metrics.with_label metrics "algo" "distmis")
      "variant"
      (match variant with Gbg -> "gbg" | General -> "general")
  in
  let traced = Trace.enabled trace in
  let phase label scale = if traced then Trace.emit trace ~t:0. (Trace.Phase { label; scale }) in
  let n = Graph.n g in
  let dist = hop_distance variant in
  let outgoing_only = variant = General in
  let sched = Schedule.make g in
  let stats = ref Stats.zero in
  let outer = ref 0 and inner = ref 0 in
  let active = Array.make n true in
  let any arr = Array.exists Fun.id arr in
  (* one sink per phase label: the engine stamps each run's counters
     with it, so the registry carries the same per-phase breakdown the
     trace summary derives after the fact *)
  let m_mis = Metrics.with_label metrics "phase" "mis" in
  let m_sec = Metrics.with_scale dist (Metrics.with_label metrics "phase" "secondary-mis") in
  let m_color = Metrics.with_label metrics "phase" "color" in
  Span.span spans "distmis" @@ fun () ->
  while any active do
    incr outer;
    phase "mis" 1;
    let s, mis_stats =
      Span.span spans "distmis.mis" (fun () ->
          Mis.compute ~engine ~metrics:m_mis ~algo:mis g ~active)
    in
    Log.debug (fun m ->
        m "outer %d: |S| = %d (%d rounds)" !outer
          (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 s)
          mis_stats.Stats.rounds);
    if traced then
      Array.iteri
        (fun v m ->
          if m then
            Trace.emit trace ~t:(float_of_int mis_stats.Stats.rounds) (Trace.Mis_join v))
        s;
    if Metrics.enabled metrics then
      Metrics.inc
        ~by:(Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 s)
        m_mis Metrics.Name.mis_joins;
    stats := Stats.add !stats mis_stats;
    let remaining = Array.copy s in
    while any remaining do
      incr inner;
      let vg, back = virtual_graph g remaining ~dist in
      let vactive = Array.make (Graph.n vg) true in
      phase "secondary-mis" dist;
      let s_virtual, sec_stats =
        Span.span spans "distmis.secondary-mis" (fun () ->
            Mis.compute ~engine ~metrics:m_sec ~algo:mis vg ~active:vactive)
      in
      stats := Stats.add !stats (Stats.scale_rounds dist sec_stats);
      let chosen = Array.make n false in
      Array.iteri (fun i v -> if s_virtual.(i) then chosen.(v) <- true) back;
      phase "color" 1;
      let phase_stats =
        Span.span spans "distmis.color" (fun () ->
            color_phase ~engine ~trace ~metrics:m_color g sched ~chosen ~outgoing_only)
      in
      Log.debug (fun m ->
          m "inner %d: %d winners colored" !inner
            (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 chosen));
      stats := Stats.add !stats phase_stats;
      Array.iteri (fun v c -> if c then remaining.(v) <- false) chosen
    done;
    Array.iteri (fun v in_s -> if in_s then active.(v) <- false) s
  done;
  (* Safety net for modelling gaps rather than a code path we expect to
     take: every arc must be colored once each node has passed through a
     secondary MIS. *)
  assert (Schedule.is_complete sched || Graph.m g = 0);
  if Metrics.enabled metrics then begin
    Metrics.inc ~by:!outer metrics Metrics.Name.outer_iters;
    Metrics.inc ~by:!inner metrics Metrics.Name.inner_iters;
    Metrics.gauge metrics Metrics.Name.slots (float_of_int (Schedule.num_slots sched))
  end;
  { schedule = sched; stats = !stats; outer_iters = !outer; inner_iters = !inner }
