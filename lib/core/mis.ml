open Fdlsp_graph
open Fdlsp_sim

type algo = Luby of Random.State.t | Hashed of int | Local_min | Gps

(* SplitMix64-style finalizer over the (seed, node, draw-index) triple:
   each undecided node's phase priority is a pure function of what it is
   drawing for, never of the order the engine steps nodes in — so Hashed
   runs are identical on the sequential and domain-parallel engines. *)
let hashed_draw ~seed v ctr =
  let mix z =
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let z =
    mix
      (Int64.add
         (Int64.mul (Int64.of_int (seed + 1)) 0x9e3779b97f4a7c15L)
         (Int64.of_int v))
  in
  let z = mix (Int64.add z (Int64.of_int ctr)) in
  (* top 53 bits -> [0, 1) at double precision *)
  Int64.to_float (Int64.shift_right_logical z 11) *. (1. /. 9007199254740992.)

type status = Undecided | In_mis | Dominated

type node_state = {
  status : status;
  priority : float;
  undecided_nbrs : int list; (* neighbors still competing *)
}

type msg =
  | Value of float  (** this phase's priority *)
  | Joined  (** sender entered the MIS *)
  | Retired  (** sender became dominated *)

(* One phase is two engine rounds:
     value round  — each undecided node broadcasts a priority to its
                    undecided neighbors (or [Retired] and halts, if a
                    neighbor announced [Joined] last phase);
     status round — a node beating every remaining undecided neighbor
                    joins, announces [Joined] and halts; [Retired]
                    announcements received here prune the competitor
                    lists before comparing. *)
let compute_priority_based ~engine ~metrics ~draw g ~active =
  let beats (p1, v1) (p2, v2) = p1 < p2 || (p1 = p2 && v1 < v2) in
  (* every participant steps in round 1 and builds its competitor list
     there, so init is O(1) per node and non-participants cost nothing *)
  let fresh = { status = Undecided; priority = 0.; undecided_nbrs = [] } in
  let init v = (fresh, active.(v)) in
  let send_all targets payload = List.map (fun w -> (w, payload)) targets in
  let prune state inbox =
    let gone =
      List.filter_map (function w, (Joined | Retired) -> Some w | _, Value _ -> None) inbox
    in
    if gone = [] then state
    else
      { state with
        undecided_nbrs = List.filter (fun w -> not (List.mem w gone)) state.undecided_nbrs }
  in
  let step ~round v state inbox =
    let state =
      if round > 1 then state
      else
        { state with
          undecided_nbrs =
            Graph.fold_neighbors g v (fun acc w -> if active.(w) then w :: acc else acc) [] }
    in
    let state = prune state inbox in
    if (round - 1) mod 2 = 0 then begin
      (* value round *)
      let dominated = List.exists (function _, Joined -> true | _ -> false) inbox in
      if dominated then
        ( { state with status = Dominated },
          Sync.Halt (send_all state.undecided_nbrs Retired) )
      else
        let priority = draw v in
        ({ state with priority }, Sync.Continue (send_all state.undecided_nbrs (Value priority)))
    end
    else begin
      (* status round: compare against the values of still-undecided
         competitors *)
      let wins =
        List.for_all
          (function
            | w, Value p ->
                (not (List.mem w state.undecided_nbrs)) || beats (state.priority, v) (p, w)
            | _, (Joined | Retired) -> true)
          inbox
      in
      if wins then
        ({ state with status = In_mis }, Sync.Halt (send_all state.undecided_nbrs Joined))
      else (state, Sync.Continue [])
    end
  in
  let states, stats = engine.Reliable.run ~metrics g ~init ~step in
  (Array.map (fun s -> s.status = In_mis) states, stats)

let compute ?(engine = Reliable.raw_runner) ?(metrics = Metrics.null) ~algo g ~active =
  match algo with
  | Luby rng ->
      compute_priority_based ~engine ~metrics
        ~draw:(fun _v -> Random.State.float rng 1.)
        g ~active
  | Hashed seed ->
      (* per-node draw counters: slot v is touched only inside node v's
         step, so the only mutation is owner-shard-local under the
         parallel engine *)
      let draws = Array.make (Graph.n g) 0 in
      compute_priority_based ~engine ~metrics
        ~draw:(fun v ->
          let c = draws.(v) in
          draws.(v) <- c + 1;
          hashed_draw ~seed v c)
        g ~active
  | Local_min -> compute_priority_based ~engine ~metrics ~draw:(fun _v -> 0.) g ~active
  | Gps ->
      if engine.Reliable.faulty then
        invalid_arg "Mis.compute: the GPS pipeline does not support fault injection";
      let mis, stats = Gps.mis g ~active in
      (* the pipeline's stats are a cost model, not engine counters, so
         record them directly to keep the registry an exact view *)
      Metrics.add_stats (Metrics.with_label metrics "engine" "model") stats;
      (mis, stats)

let is_independent g mis =
  let ok = ref true in
  Graph.iter_edges g (fun _ u v -> if mis.(u) && mis.(v) then ok := false);
  !ok

let is_maximal g ~active mis =
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    if active.(v) && not mis.(v) then begin
      let dominated = Graph.fold_neighbors g v (fun acc w -> acc || mis.(w)) false in
      if not dominated then ok := false
    end
  done;
  !ok
