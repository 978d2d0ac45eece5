(* Tests for the distributed simulator: synchronous round engine and
   asynchronous event engine. *)

open Fdlsp_graph
open Fdlsp_sim

(* ------------------------------------------------------------------ *)
(* Synchronous engine                                                  *)
(* ------------------------------------------------------------------ *)

(* Flooding: node 0 knows a token; everyone floods it on first sight and
   halts.  Every node learns it after exactly its BFS distance (in
   rounds), and the engine stops. *)
type flood = { knows : bool; announced : bool }

let test_sync_flood () =
  (* proper flooding: forward to all neighbors on first learn *)
  let g = Gen.path 5 in
  let step ~round:_ v state inbox =
    let was_known = state.knows in
    let knows = state.knows || inbox <> [] || v = 0 in
    if knows && not was_known then
      let out = Graph.fold_neighbors g v (fun acc w -> (w, ()) :: acc) [] in
      ({ knows; announced = true }, Sync.Halt out)
    else (state, Sync.Continue [])
  in
  let states, stats =
    Sync.run g ~init:(fun _ -> ({ knows = false; announced = false }, true)) ~step
  in
  Alcotest.(check bool) "all know" true (Array.for_all (fun s -> s.knows) states);
  (* node 0 learns spontaneously in round 1 and node 4 in round 5 =
     eccentricity + 1, halting as it learns *)
  Alcotest.(check int) "rounds = eccentricity + 1" 5 stats.Stats.rounds;
  Alcotest.(check int) "messages = 2m per flood" (2 * Graph.m g) stats.Stats.messages

let test_sync_initially_halted () =
  let g = Gen.path 3 in
  let init v = ((), v = 1) in
  let step ~round:_ _ () _ = ((), Sync.Halt []) in
  let _, stats = Sync.run g ~init ~step in
  Alcotest.(check int) "one round" 1 stats.Stats.rounds;
  Alcotest.(check int) "no messages" 0 stats.Stats.messages

let test_sync_locality_enforced () =
  let g = Gen.path 3 in
  let step ~round:_ _ () _ = ((), Sync.Halt [ (2, ()) ]) in
  Alcotest.check_raises "non-neighbor send"
    (Invalid_argument "Sync.run: node 0 sent to non-neighbor 2") (fun () ->
      ignore (Sync.run g ~init:(fun v -> ((), v = 0)) ~step))

let test_sync_nontermination () =
  let g = Gen.path 2 in
  let step ~round:_ _ () _ = ((), Sync.Continue []) in
  Alcotest.check_raises "caught" (Sync.Did_not_terminate 10) (fun () ->
      ignore (Sync.run ~max_rounds:10 g ~init:(fun _ -> ((), true)) ~step))

let test_sync_empty_graph () =
  let g = Graph.create ~n:0 [] in
  let step ~round:_ _ () _ = ((), Sync.Halt []) in
  let states, stats = Sync.run g ~init:(fun _ -> ((), true)) ~step in
  Alcotest.(check int) "no states" 0 (Array.length states);
  Alcotest.(check int) "no rounds" 0 stats.Stats.rounds

(* [init] runs exactly once per node, on every shard count: a protocol
   whose init has effects (draws, allocation) must not see it twice. *)
let test_sync_init_once () =
  let g = Gen.cycle 100 in
  List.iter
    (fun domains ->
      let calls = Array.make (Graph.n g) 0 in
      let init v =
        calls.(v) <- calls.(v) + 1;
        ((), v mod 3 = 0)
      in
      let step ~round:_ _ () _ = ((), Sync.Halt []) in
      ignore (Sync.run ~domains g ~init ~step);
      Alcotest.(check int)
        (Printf.sprintf "n init calls at %d domain(s)" domains)
        (Graph.n g) (Array.fold_left ( + ) 0 calls);
      Alcotest.(check bool) "one per node" true (Array.for_all (( = ) 1) calls))
    [ 1; 2 ]

(* Leader election by max-id flooding on a cycle: classic sanity check
   that multi-round protocols converge with the right answer. *)
let test_sync_max_flood () =
  let g = Gen.cycle 7 in
  let diam = Traversal.diameter g in
  let step ~round v best inbox =
    let best = List.fold_left (fun acc (_, x) -> max acc x) best inbox in
    let out = Graph.fold_neighbors g v (fun acc w -> (w, best) :: acc) [] in
    if round > diam then (best, Sync.Halt [])
    else (best, Sync.Continue out)
  in
  let states, _ = Sync.run g ~init:(fun v -> (v, true)) ~step in
  Array.iter (fun best -> Alcotest.(check int) "max everywhere" 6 best) states

(* ------------------------------------------------------------------ *)
(* Asynchronous engine                                                 *)
(* ------------------------------------------------------------------ *)

(* Token relay along a path: completion time with unit delays must be
   exactly n-1 hops. *)
let test_async_relay () =
  let g = Gen.path 6 in
  let handler ctx state ~sender:_ () =
    let v = Async.self ctx in
    if v < 5 then Async.send ctx (v + 1) ();
    state + 1
  in
  let starts = [ (0, fun ctx s -> Async.send ctx 1 (); s) ] in
  let states, stats = Async.run g ~init:(fun _ -> 0) ~starts ~handler in
  Alcotest.(check int) "hops" 5 stats.Stats.rounds;
  Alcotest.(check int) "messages" 5 stats.Stats.messages;
  Alcotest.(check int) "each interior visited once" 1 states.(3)

let test_async_fifo_random_delays () =
  (* send 20 numbered messages over one channel with random delays;
     FIFO must preserve order *)
  let rng = Random.State.make [| 11 |] in
  let g = Gen.path 2 in
  let handler _ state ~sender:_ k =
    match state with
    | prev :: _ when k <= prev -> Alcotest.fail "FIFO violated"
    | _ -> k :: state
  in
  let starts =
    [ (0, fun ctx s -> List.iter (fun k -> Async.send ctx 1 k) (List.init 20 Fun.id); s) ]
  in
  let states, stats =
    Async.run ~delay:(Async.Uniform (rng, 0.1, 1.0)) g ~init:(fun _ -> []) ~starts ~handler
  in
  Alcotest.(check int) "all delivered" 20 (List.length states.(1));
  Alcotest.(check int) "messages" 20 stats.Stats.messages

let test_async_locality () =
  let g = Gen.path 3 in
  let handler _ s ~sender:_ () = s in
  let starts = [ (0, fun ctx s -> Async.send ctx 2 (); s) ] in
  Alcotest.check_raises "non-neighbor"
    (Invalid_argument "Async.send: node 0 sent to non-neighbor 2") (fun () ->
      ignore (Async.run g ~init:(fun _ -> ()) ~starts ~handler))

let test_async_bad_uniform_delay () =
  (* invalid bounds must be rejected when run starts, not mid-execution *)
  let g = Gen.path 2 in
  let handler _ s ~sender:_ () = s in
  let starts = [ (0, fun ctx s -> Async.send ctx 1 (); s) ] in
  let expect_invalid lo hi =
    let rng = Random.State.make [| 7 |] in
    Alcotest.check_raises
      (Printf.sprintf "lo=%g hi=%g" lo hi)
      (Invalid_argument "Async: Uniform delay requires 0 < lo <= hi")
      (fun () ->
        ignore
          (Async.run ~delay:(Async.Uniform (rng, lo, hi)) g ~init:(fun _ -> ()) ~starts
             ~handler))
  in
  expect_invalid 0. 1.;
  expect_invalid (-0.5) 1.;
  expect_invalid 2. 1.;
  (* degenerate-but-legal bounds still run *)
  let rng = Random.State.make [| 7 |] in
  let _, st =
    Async.run ~delay:(Async.Uniform (rng, 0.5, 0.5)) g ~init:(fun _ -> ()) ~starts ~handler
  in
  Alcotest.(check int) "delivered" 1 st.Stats.messages

let test_async_event_cap () =
  let g = Gen.path 2 in
  (* infinite ping-pong *)
  let handler ctx s ~sender () =
    Async.send ctx sender ();
    s
  in
  let starts = [ (0, fun ctx s -> Async.send ctx 1 (); s) ] in
  Alcotest.check_raises "cap" (Async.Too_many_events 100) (fun () ->
      ignore (Async.run ~max_events:100 g ~init:(fun _ -> ()) ~starts ~handler))

(* The default event cap grows with the graph: a token making five laps
   of a 250 000-node ring is O(n + m) work but pops 1.25 million events,
   past the old fixed cap of one million. *)
let test_async_event_cap_scales () =
  let n = 250_000 and laps = 5 in
  let g = Gen.cycle n in
  let hop v = if v = n - 1 then 0 else v + 1 in
  let starts = [ (0, fun ctx s -> Async.send ctx 1 ((laps * n) - 1); s) ] in
  let handler ctx s ~sender:_ left =
    if left > 0 then Async.send ctx (hop (Async.self ctx)) (left - 1);
    s + 1
  in
  let states, stats = Async.run g ~init:(fun _ -> 0) ~starts ~handler in
  Alcotest.(check int) "every hop delivered" (laps * n) stats.Stats.messages;
  Alcotest.(check int) "each node saw the token once per lap" laps states.(n / 2)

let test_async_echo_broadcast () =
  (* star center queries all leaves; leaves reply; center counts *)
  let g = Gen.star 9 in
  let handler ctx state ~sender msg =
    match msg with
    | `Query ->
        Async.send ctx sender `Reply;
        state
    | `Reply -> state + 1
  in
  let starts =
    [ (0, fun ctx s -> Array.iter (fun w -> Async.send ctx w `Query) (Async.neighbors ctx); s) ]
  in
  let states, stats = Async.run g ~init:(fun _ -> 0) ~starts ~handler in
  Alcotest.(check int) "replies" 8 states.(0);
  Alcotest.(check int) "time = 2" 2 stats.Stats.rounds;
  Alcotest.(check int) "msgs" 16 stats.Stats.messages

let test_async_concurrent_chains () =
  (* two independent relays race; completion time is the longer chain *)
  let g = Gen.path 9 in
  let handler ctx state ~sender () =
    let v = Async.self ctx in
    (* forward away from the sender, stop at the ends *)
    let dir = if sender < v then 1 else -1 in
    let nxt = v + dir in
    if nxt >= 0 && nxt <= 8 then Async.send ctx nxt ();
    state + 1
  in
  let starts =
    [
      (4, fun ctx s -> Async.send ctx 3 (); Async.send ctx 5 (); s);
    ]
  in
  let _, stats = Async.run g ~init:(fun _ -> 0) ~starts ~handler in
  Alcotest.(check int) "both directions, longest chain" 4 stats.Stats.rounds;
  Alcotest.(check int) "msgs" 8 stats.Stats.messages

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats () =
  let a = Stats.make ~rounds:3 ~messages:10 ~volume:25 ~dropped:2 () in
  let b = Stats.make ~rounds:4 ~messages:1 ~volume:2 ~retransmits:5 () in
  Alcotest.(check int) "add rounds" 7 (Stats.add a b).Stats.rounds;
  Alcotest.(check int) "add msgs" 11 (Stats.add a b).Stats.messages;
  Alcotest.(check int) "add volume" 27 (Stats.add a b).Stats.volume;
  Alcotest.(check int) "add dropped" 2 (Stats.add a b).Stats.dropped;
  Alcotest.(check int) "add retransmits" 5 (Stats.add a b).Stats.retransmits;
  let s = Stats.scale_rounds 3 a in
  Alcotest.(check int) "scale rounds" 9 s.Stats.rounds;
  Alcotest.(check int) "scale msgs" 30 s.Stats.messages;
  Alcotest.(check int) "scale volume" 75 s.Stats.volume;
  Alcotest.(check int) "scale dropped" 6 s.Stats.dropped;
  Alcotest.(check int) "zero" 0 Stats.zero.Stats.volume;
  Alcotest.(check int) "make defaults volume to messages" 10
    (Stats.make ~rounds:1 ~messages:10 ()).Stats.volume

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  k = 0 || go 0

let test_stats_printers () =
  let s =
    Stats.make ~rounds:2 ~messages:7 ~volume:9 ~dropped:1 ~retransmits:4 ~gave_up:3 ()
  in
  Alcotest.(check string)
    "pp_kv is stable"
    "rounds=2 messages=7 volume=9 dropped=1 duplicated=0 retransmits=4 gave_up=3 \
     corruptions=0"
    (Format.asprintf "%a" Stats.pp_kv s);
  Alcotest.(check string)
    "to_json is flat"
    "{\"rounds\":2,\"messages\":7,\"volume\":9,\"dropped\":1,\"duplicated\":0,\
     \"retransmits\":4,\"gave_up\":3,\"corruptions\":0}"
    (Stats.to_json s);
  (* the human printer shows fault counters only when nonzero *)
  let clean = Stats.make ~rounds:2 ~messages:7 () in
  let pp = Format.asprintf "%a" Stats.pp clean in
  Alcotest.(check bool) "no fault noise" false (contains pp "dropped")

let test_volume_weights () =
  (* sync: a two-round exchange with table payloads *)
  let g = Gen.path 2 in
  let step ~round v () _ =
    if round = 1 then ((), Sync.Continue [ (1 - v, Array.make 5 0) ]) else ((), Sync.Halt [])
  in
  let _, st =
    Sync.run ~weight:Array.length g ~init:(fun _ -> ((), true)) ~step
  in
  Alcotest.(check int) "sync messages" 2 st.Stats.messages;
  Alcotest.(check int) "sync volume" 10 st.Stats.volume;
  (* async: weight clamps to 1 for empty payloads *)
  let handler _ s ~sender:_ _ = s in
  let starts = [ (0, fun ctx s -> Async.send ctx 1 [||]; Async.send ctx 1 (Array.make 3 0); s) ] in
  let _, st =
    Async.run ~weight:Array.length g ~init:(fun _ -> ()) ~starts ~handler
  in
  Alcotest.(check int) "async messages" 2 st.Stats.messages;
  Alcotest.(check int) "async volume" 4 st.Stats.volume

let () =
  Alcotest.run "fdlsp_sim"
    [
      ( "sync",
        [
          Alcotest.test_case "flooding" `Quick test_sync_flood;
          Alcotest.test_case "initially halted" `Quick test_sync_initially_halted;
          Alcotest.test_case "locality enforced" `Quick test_sync_locality_enforced;
          Alcotest.test_case "non-termination detected" `Quick test_sync_nontermination;
          Alcotest.test_case "empty graph" `Quick test_sync_empty_graph;
          Alcotest.test_case "init once per node" `Quick test_sync_init_once;
          Alcotest.test_case "max flooding on cycle" `Quick test_sync_max_flood;
        ] );
      ( "async",
        [
          Alcotest.test_case "token relay" `Quick test_async_relay;
          Alcotest.test_case "fifo under random delays" `Quick test_async_fifo_random_delays;
          Alcotest.test_case "locality enforced" `Quick test_async_locality;
          Alcotest.test_case "uniform delay bounds rejected" `Quick
            test_async_bad_uniform_delay;
          Alcotest.test_case "event cap" `Quick test_async_event_cap;
          Alcotest.test_case "event cap scales with the graph" `Quick
            test_async_event_cap_scales;
          Alcotest.test_case "echo broadcast" `Quick test_async_echo_broadcast;
          Alcotest.test_case "concurrent chains" `Quick test_async_concurrent_chains;
        ] );
      ( "stats",
        [
          Alcotest.test_case "algebra" `Quick test_stats;
          Alcotest.test_case "printers" `Quick test_stats_printers;
          Alcotest.test_case "volume weights" `Quick test_volume_weights;
        ] );
    ]
