open Fdlsp_graph

type 'msg outcome = Continue of (int * 'msg) list | Halt of (int * 'msg) list

type ('state, 'msg) step =
  round:int -> int -> 'state -> (int * 'msg) list -> 'state * 'msg outcome

exception Did_not_terminate of int

(* Raw inboxes are built by consing, so reversing restores arrival order;
   the stable sort on the sender alone then keeps each sender's send order. *)
let sort_inbox = function
  | ([] | [ _ ]) as inbox -> inbox
  | raw -> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (List.rev raw)

(* What a shard's step pass leaves for the coordinator's delivery pass
   when delivery is replayed.  Owner shards rewrite every own slot each
   round, so no stale entry survives a rotation. *)
type 'msg stepped =
  | Idle  (* not live at round start *)
  | Crashed  (* inside a crash window: the coordinator drops its raw inbox *)
  | Stepped of (int * 'msg) list * (int * 'msg) list  (* sorted inbox, sends *)

let run ?max_rounds ?(weight = fun _ -> 1) ?faults ?corrupt ?blip ?(trace = Trace.null)
    ?(metrics = Metrics.null) ?(spans = Span.null) ?(domains = 1) ?partition ?points g
    ~init ~step =
  if domains < 1 then invalid_arg "Sync.run: domains must be >= 1";
  let n = Graph.n g in
  let prt =
    match partition with
    | Some p ->
        Partition.check g p;
        Some p
    | None when domains > 1 && n > 1 ->
        Some (Partition.of_graph ?points g ~parts:(min domains n))
    | None -> None
  in
  (* k = 1 is the sequential engine: all nodes in shard 0, ascending, on
     the calling domain, with the [sync.*] spans and [engine=sync] label *)
  let k = match prt with Some p -> p.Partition.parts | None -> 1 in
  let sharded = k > 1 in
  let engine = if sharded then "parallel" else "sync" in
  (* the run span covers the whole execution: set-up, the protocol's
     init callbacks, the rounds and the final accounting *)
  Span.span spans (engine ^ ".run") @@ fun () ->
  let owner = match prt with Some p -> p.Partition.part | None -> Array.make n 0 in
  let shard_nodes =
    match prt with Some p -> Partition.shards p | None -> [| Array.init n Fun.id |]
  in
  let metrics = Metrics.with_label metrics "engine" engine in
  let mtr = Metrics.enabled metrics in
  let max_rounds = match max_rounds with Some r -> r | None -> 10_000 + (100 * n) in
  let session =
    match faults with
    | Some p when not (Fault.is_none p) -> Some (Fault.start p)
    | _ -> None
  in
  let traced = Trace.enabled trace in
  (* Whenever delivery order is observable — fault verdicts draw from one
     PRNG in transmission order, trace events form a total order, crashed
     nodes drop their raw-order inboxes — shards only step, and the
     coordinator delivers afterwards in node order.  Otherwise each shard
     routes its own sends. *)
  let replayed = session <> None || traced in
  (* crash/recovery boundaries from the plan, emitted (at plan time) once
     the round clock crosses them; ascending so alternation is preserved *)
  let boundaries =
    if not traced then ref []
    else
      match faults with
      | Some p ->
          let evs =
            List.concat_map
              (fun c ->
                let crash = (c.Fault.at, Trace.Crash c.Fault.node) in
                match c.Fault.until with
                | None -> [ crash ]
                | Some u -> [ crash; (u, Trace.Recover c.Fault.node) ])
              (Fault.crashes p)
          in
          ref (List.sort Trace.compare_boundary evs)
      | None -> ref []
  in
  let emit_boundaries now =
    let rec loop () =
      match !boundaries with
      | (t, ev) :: rest when t <= now ->
          Trace.emit trace ~t ev;
          boundaries := rest;
          loop ()
      | _ -> ()
    in
    loop ()
  in
  let live = Array.make n false in
  let states =
    Array.init n (fun v ->
        let state, alive = init v in
        live.(v) <- alive;
        state)
  in
  let live_count = Array.make k 0 in
  Array.iteri
    (fun v alive -> if alive then live_count.(owner.(v)) <- live_count.(owner.(v)) + 1)
    live;
  (* state blips from the plan, applied in (time, node) order once the
     round clock crosses them; the hook rewrites the victim's state *)
  let pending_blips = ref (match faults with Some p -> Fault.blips p | None -> []) in
  let apply_blips now =
    let rec loop () =
      match !pending_blips with
      | b :: rest when b.Fault.b_at <= now ->
          pending_blips := rest;
          if b.Fault.b_node < n then begin
            (match session with Some s -> Fault.count_blip s | None -> ());
            match blip with
            | Some f -> states.(b.Fault.b_node) <- f b states.(b.Fault.b_node)
            | None -> ()
          end;
          loop ()
      | _ -> ()
    in
    loop ()
  in
  let inboxes : (int * 'msg) list array ref = ref (Array.make n []) in
  let next_inboxes : (int * 'msg) list array ref = ref (Array.make n []) in
  (* reordered copies skip one round of the FIFO discipline *)
  let late_inboxes : (int * 'msg) list array ref = ref (Array.make n []) in
  (* cross-shard routing: cell (s, s') is written only by shard s (into
     the [next] matrix) and drained only by shard s' (from the [cur]
     matrix after the swap), so no cell is touched by two domains in one
     round *)
  let routed = sharded && not replayed in
  let cur_buckets = ref (if routed then Array.make_matrix k k [] else [||]) in
  let nxt_buckets = ref (if routed then Array.make_matrix k k [] else [||]) in
  let computed : 'msg stepped array = if replayed then Array.make n Idle else [||] in
  let messages = ref 0 in
  let volume = ref 0 in
  let rounds = ref 0 in
  let msgs_at_round_start = ref 0 in
  let shard_msgs = Array.make k 0 in
  let shard_vol = Array.make k 0 in
  let shard_exn : exn option array = Array.make k None in
  (* when sharded, each shard records into a private registry, merged at the end *)
  let forks = if sharded then Array.init k (fun _ -> Metrics.fork metrics) else [||] in
  let shard_sinks =
    if sharded then Array.map (function Some (_, sk) -> sk | None -> Metrics.null) forks
    else [| metrics |]
  in
  let measured = sharded && (mtr || Span.enabled spans) in
  let busy = Array.make k 0. in
  let par_total = ref 0. in
  let any_live () =
    match session with
    | None -> Array.exists (fun c -> c > 0) live_count
    | Some s ->
        (* a node that is crashed with no recovery ahead can never halt;
           don't wait for it *)
        let t = float_of_int (!rounds + 1) in
        let pending = ref false in
        Array.iteri
          (fun v alive -> if alive && not (Fault.dead_forever s v t) then pending := true)
          live;
        !pending
  in
  let check_send v dest =
    if not (Graph.mem_edge g v dest) then
      invalid_arg (Printf.sprintf "Sync.run: node %d sent to non-neighbor %d" v dest)
  in
  let corrupt_payload payload =
    match corrupt with Some f -> f payload | None -> payload
  in
  let deliver ~now v payload (dest : int) =
    match session with
    | None -> !next_inboxes.(dest) <- (v, payload) :: !next_inboxes.(dest)
    | Some s ->
        let verdict = Fault.transmit s ~src:v ~dst:dest in
        if traced then begin
          if verdict.Fault.copies = 0 then
            Trace.emit trace ~t:now (Trace.Drop { src = v; dst = dest })
          else if verdict.Fault.copies > 1 then
            Trace.emit trace ~t:now (Trace.Duplicate { src = v; dst = dest })
        end;
        for _ = 1 to verdict.Fault.copies do
          let payload =
            if verdict.Fault.corrupted then corrupt_payload payload else payload
          in
          let buffer = if verdict.Fault.reordered then late_inboxes else next_inboxes in
          !buffer.(dest) <- (v, payload) :: !buffer.(dest)
        done
  in
  (* steps live node [v] of shard [s] and returns its sends *)
  let step_node s v inbox =
    let state, outcome = step ~round:!rounds v states.(v) inbox in
    states.(v) <- state;
    match outcome with
    | Continue msgs -> msgs
    | Halt msgs ->
        live.(v) <- false;
        live_count.(s) <- live_count.(s) - 1;
        msgs
  in
  (* replayed rounds: step own live nodes, record what happened *)
  let compute_replayed s =
    let inb = !inboxes in
    let now = float_of_int !rounds in
    Array.iter
      (fun v ->
        computed.(v) <-
          (if not live.(v) then Idle
           else
             match session with
             | Some ss when Fault.crashed ss v now -> Crashed
             | _ ->
                 let inbox = sort_inbox inb.(v) in
                 Stepped (inbox, step_node s v inbox)))
      shard_nodes.(s)
  in
  (* the coordinator's delivery pass of a replayed round: fault verdicts,
     traces and loss accounting in node order *)
  let replay now =
    for v = 0 to n - 1 do
      match computed.(v) with
      | Idle -> ()
      | Crashed ->
          let s = match session with Some s -> s | None -> assert false in
          (* crashed: messages addressed to it are lost, it does not step *)
          List.iter
            (fun (src, _) ->
              Fault.count_drop s;
              if traced then Trace.emit trace ~t:now (Trace.Drop { src; dst = v }))
            !inboxes.(v)
      | Stepped (inbox, outgoing) ->
          if mtr then
            Metrics.observe metrics Metrics.Name.inbox_depth
              (float_of_int (List.length inbox));
          if traced then
            List.iter
              (fun (src, _) -> Trace.emit trace ~t:now (Trace.Recv { src; dst = v }))
              inbox;
          List.iter
            (fun (dest, payload) ->
              check_send v dest;
              incr messages;
              volume := !volume + max 1 (weight payload);
              if traced then Trace.emit trace ~t:now (Trace.Send { src = v; dst = dest });
              deliver ~now v payload dest)
            outgoing
    done
  in
  (* routed rounds: drain cross-shard arrivals, step, route — all
     shard-local *)
  let compute_routed s =
    let inb = !inboxes in
    let nxt = !next_inboxes in
    if sharded then begin
      let cur_b = !cur_buckets in
      for s' = 0 to k - 1 do
        match cur_b.(s').(s) with
        | [] -> ()
        | batch ->
            cur_b.(s').(s) <- [];
            (* oldest first, so each sender's sends stay in order *)
            List.iter
              (fun (dest, src, payload) -> inb.(dest) <- (src, payload) :: inb.(dest))
              (List.rev batch)
      done
    end;
    let nxt_b = !nxt_buckets in
    let msink = shard_sinks.(s) in
    let ms = ref 0 and vol = ref 0 in
    Array.iter
      (fun v ->
        if live.(v) then begin
          let inbox = sort_inbox inb.(v) in
          (* clear own slot now, so the rotation is a pure pointer swap *)
          inb.(v) <- [];
          if mtr then
            Metrics.observe msink Metrics.Name.inbox_depth
              (float_of_int (List.length inbox));
          List.iter
            (fun (dest, payload) ->
              check_send v dest;
              incr ms;
              vol := !vol + max 1 (weight payload);
              let sd = owner.(dest) in
              if sd = s then nxt.(dest) <- (v, payload) :: nxt.(dest)
              else nxt_b.(s).(sd) <- (dest, v, payload) :: nxt_b.(s).(sd))
            (step_node s v inbox)
        end
        else (* halted nodes still receive; drop the mail *)
          inb.(v) <- [])
      shard_nodes.(s);
    shard_msgs.(s) <- !ms;
    shard_vol.(s) <- !vol
  in
  let compute s = if replayed then compute_replayed s else compute_routed s in
  let compute_guarded s =
    try
      let t0 = if measured then Clock.now () else 0. in
      compute s;
      if measured then busy.(s) <- busy.(s) +. (Clock.now () -. t0)
    with e -> shard_exn.(s) <- Some e
  in
  (* epoch barrier: the coordinator bumps [epoch] to release the workers
     and waits for [pending] to drain; mutex crossings order all
     plain-field writes between the two sides *)
  let mu = Mutex.create () in
  let work_cv = Condition.create () in
  let done_cv = Condition.create () in
  let epoch = ref 0 in
  let pending = ref 0 in
  let quit = ref false in
  let worker s () =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock mu;
      while (not !quit) && !epoch = !seen do
        Condition.wait work_cv mu
      done;
      if !quit then begin
        Mutex.unlock mu;
        running := false
      end
      else begin
        seen := !epoch;
        Mutex.unlock mu;
        compute_guarded s;
        Mutex.lock mu;
        decr pending;
        if !pending = 0 then Condition.signal done_cv;
        Mutex.unlock mu
      end
    done
  in
  let parallel_section () =
    Mutex.lock mu;
    pending := k - 1;
    incr epoch;
    Condition.broadcast work_cv;
    Mutex.unlock mu;
    (* the coordinator doubles as shard 0 *)
    compute_guarded 0;
    Mutex.lock mu;
    while !pending > 0 do
      Condition.wait done_cv mu
    done;
    Mutex.unlock mu
  in
  let exchange () =
    let now = float_of_int !rounds in
    if replayed then replay now
    else
      for s = 0 to k - 1 do
        messages := !messages + shard_msgs.(s);
        volume := !volume + shard_vol.(s)
      done;
    if mtr then
      Metrics.sample metrics Metrics.Name.round_messages ~x:now
        (float_of_int (!messages - !msgs_at_round_start));
    if traced then Trace.emit trace ~t:now (Trace.Round_end !rounds);
    (* rotate: next -> current, late -> next *)
    let consumed = !inboxes in
    inboxes := !next_inboxes;
    next_inboxes := !late_inboxes;
    (* routed shards already cleared their own slots *)
    if replayed then Array.fill consumed 0 n [];
    late_inboxes := consumed;
    if routed then begin
      let cb = !cur_buckets in
      cur_buckets := !nxt_buckets;
      nxt_buckets := cb
    end
  in
  (* one closure, reused every round, so the instrumented path does not
     allocate per round; with [Span.null] each wrapper is exactly a call *)
  let do_round () =
    incr rounds;
    let now = float_of_int !rounds in
    if traced then begin
      Trace.emit trace ~t:now (Trace.Round_start !rounds);
      emit_boundaries now
    end;
    apply_blips now;
    msgs_at_round_start := !messages;
    if not sharded then begin
      compute 0;
      exchange ()
    end
    else begin
      let t0 = if measured then Clock.now () else 0. in
      Span.span spans "parallel.compute" parallel_section;
      if measured then par_total := !par_total +. (Clock.now () -. t0);
      (* re-raise the lowest-numbered failing shard's exception, so the
         surfaced failure does not depend on domain scheduling *)
      Array.iter (function Some e -> raise e | None -> ()) shard_exn;
      Span.span spans "parallel.exchange" exchange
    end
  in
  let round_span = engine ^ ".round" in
  let run_rounds () =
    while any_live () do
      if !rounds >= max_rounds then raise (Did_not_terminate max_rounds);
      Span.span spans round_span do_round
    done
  in
  if not sharded then run_rounds ()
  else begin
    let workers = Array.init (k - 1) (fun i -> Domain.spawn (worker (i + 1))) in
    let stop_workers () =
      Mutex.lock mu;
      quit := true;
      Condition.broadcast work_cv;
      Mutex.unlock mu;
      Array.iter Domain.join workers
    in
    Fun.protect ~finally:stop_workers run_rounds;
    (* terminal barrier bookkeeping: exact-count registry merge, shard order *)
    (match Metrics.registry metrics with
    | Some dst ->
        Array.iter
          (function Some (src, _) -> Metrics.merge_into ~dst src | None -> ())
          forks
    | None -> ());
    if mtr then begin
      Metrics.gauge metrics Metrics.Name.parallel_shards (float_of_int k);
      Option.iter
        (fun p ->
          Metrics.gauge metrics Metrics.Name.parallel_cut_frac
            (Partition.cut_fraction g p))
        prt;
      let busy_sum = Array.fold_left ( +. ) 0. busy in
      let denom = float_of_int k *. !par_total in
      let frac = if denom > 0. then 1. -. (busy_sum /. denom) else 0. in
      Metrics.gauge metrics Metrics.Name.parallel_barrier_frac
        (Float.max 0. (Float.min 1. frac))
    end;
    if Span.enabled spans then
      Array.iteri
        (fun s nodes ->
          Span.mark spans "parallel.shard-summary"
            ~args:
              [
                ("shard", string_of_int s);
                ("nodes", string_of_int (Array.length nodes));
                ("busy_s", Printf.sprintf "%.6f" busy.(s));
              ])
        shard_nodes
  end;
  let dropped, duplicated, corruptions =
    match session with
    | None -> (0, 0, 0)
    | Some s -> (Fault.dropped s, Fault.duplicated s, Fault.corruptions s)
  in
  let stats =
    Stats.make ~rounds:!rounds ~messages:!messages ~volume:!volume ~dropped ~duplicated
      ~corruptions ()
  in
  Metrics.add_stats metrics stats;
  (states, stats)
