(* The synchronous engine's sharding contract is bit-identity across
   shard counts: same final states, same stats, same trace event stream,
   for every k, graph family, and fault plan.  These properties hold the
   routed rounds (shard-local delivery) and the replayed rounds
   (coordinator delivery) to the one-shard run, and golden digests pin
   the one-shard run itself. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim
open Fdlsp_core

let qtest name ?(count = 40) arb prop = Generators.qtest name ~count arb prop

(* --- partitions ----------------------------------------------------- *)

let ring n = Graph.create ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let test_partition_blocks () =
  let p = Partition.blocks ~n:10 ~parts:3 in
  Alcotest.(check (list (list int)))
    "blocks are contiguous, sizes within one"
    [ [ 0; 1; 2; 3 ]; [ 4; 5; 6 ]; [ 7; 8; 9 ] ]
    (Array.to_list (Array.map Array.to_list (Partition.shards p)))

let test_partition_bfs_path () =
  (* on a path, quota-bounded BFS growth from the smallest unassigned
     node is exactly contiguous intervals of ceil(n/parts) *)
  let g = Graph.create ~n:10 (List.init 9 (fun i -> (i, i + 1))) in
  let p = Partition.bfs_regions g ~parts:3 in
  Alcotest.(check (list int))
    "path regions are intervals"
    [ 0; 0; 0; 0; 1; 1; 1; 1; 2; 2 ]
    (Array.to_list p.Partition.part)

let test_partition_geometric () =
  let points =
    Array.init 9 (fun i ->
        { Geometry.x = float_of_int (8 - i); y = 0. } (* reversed strip order *))
  in
  let p = Partition.geometric points ~parts:3 in
  Alcotest.(check (list int))
    "strips follow x order, not id order"
    [ 2; 2; 2; 1; 1; 1; 0; 0; 0 ]
    (Array.to_list p.Partition.part)

let prop_partition_well_formed =
  qtest "of_graph covers every node with ascending shards" ~count:50
    (Generators.arb_gnp ~min_n:1 ~max_n:30 ())
    (fun g ->
      List.for_all
        (fun parts ->
          let p = Partition.of_graph g ~parts in
          Partition.check g p;
          let sh = Partition.shards p in
          let total = Array.fold_left (fun acc s -> acc + Array.length s) 0 sh in
          let ascending s =
            Array.for_all Fun.id (Array.mapi (fun i v -> i = 0 || s.(i - 1) < v) s)
          in
          let cf = Partition.cut_fraction g p in
          total = Graph.n g
          && Array.for_all ascending sh
          && cf >= 0. && cf <= 1.
          && p.Partition.part = (Partition.of_graph g ~parts).Partition.part)
        [ 1; 2; 5 ])

(* --- engine bit-identity -------------------------------------------- *)

(* Bounded gossip: every node floods the best id it has heard for a
   fixed number of rounds, then halts.  Termination does not depend on
   what the channel loses, so the same protocol exercises clean, lossy,
   crashing and blipped runs; the per-round broadcast keeps message
   (and cross-shard) traffic dense. *)
let ttl = 6

let gossip g =
  let init v = ((v, 0), true) in
  let step ~round v ((best, _) : int * int) inbox =
    let best = List.fold_left (fun acc (_, p) -> max acc p) best inbox in
    let state = (best, round) in
    if round >= ttl then (state, Sync.Halt [])
    else
      ( state,
        Sync.Continue (Graph.fold_neighbors g v (fun acc w -> (w, best) :: acc) []) )
  in
  (init, step)

let blip_hook b (best, r) = ((best + b.Fault.b_node) mod 97, r)
let corrupt_hook p = p + 1000

let crash_plan g =
  let n = Graph.n g in
  Fault.make ~seed:7
    ~crashes:
      [
        { Fault.node = 0; at = 2.; until = Some 4. };
        { Fault.node = n - 1; at = 3.; until = None };
      ]
    ~blips:(Fault.scatter_blips ~seed:3 ~n ~count:3 ~horizon:5 ())
    ()

let lossy_plan = Fault.uniform ~seed:5 ~duplicate:0.2 ~reorder:0.2 ~corrupt:0.1 0.25

(* scenarios: routed rounds (clean, untraced), replayed rounds via
   tracing alone, via a crash+blip session with traces, and via a lossy
   session without traces *)
let scenarios g =
  [ (None, false); (None, true); (Some (crash_plan g), true); (Some lossy_plan, false) ]

let run_engine ?domains ?faults ~traced g =
  let trace = if traced then Trace.memory () else Trace.null in
  let init, step = gossip g in
  let states, stats =
    Sync.run ?faults ~corrupt:corrupt_hook ~blip:blip_hook ~trace ?domains g ~init ~step
  in
  (states, stats, Trace.events trace)

let prop_identical name arb =
  qtest ("Sync(k) is bit-identical to Sync(1) on " ^ name) ~count:10 arb (fun g ->
      List.for_all
        (fun (faults, traced) ->
          let reference = run_engine ?faults ~traced g in
          List.for_all
            (fun k -> run_engine ~domains:k ?faults ~traced g = reference)
            [ 2; 4; 7 ])
        (scenarios g))

let prop_gnp = prop_identical "gnp" (Generators.arb_gnp ~min_n:2 ~max_n:20 ())
let prop_udg = prop_identical "udg" (Generators.arb_udg ())
let prop_tree = prop_identical "trees" (Generators.arb_tree ~min_n:2 ~max_n:30 ())
let prop_connected = prop_identical "connected" (Generators.arb_connected ~max_n:20 ())

(* --- golden reference ------------------------------------------------ *)

(* One fixed graph per generator family, drawn from the family's own
   generator with a fixed seed. *)
let golden_graphs =
  List.map
    (fun (name, arb) ->
      (name, QCheck2.Gen.generate1 ~rand:(Random.State.make [| 5 |]) arb))
    [
      ("gnp", Generators.arb_gnp ~min_n:12 ~max_n:8 ());
      ("udg", Generators.arb_udg ());
      ("trees", Generators.arb_tree ~min_n:20 ~max_n:10 ());
      ("connected", Generators.arb_connected ~max_n:20 ());
    ]

let digest run =
  Digest.to_hex (Digest.string (Marshal.to_string run [ Marshal.No_sharing ]))

(* Digests of (final states, stats, trace events) per scenario, recorded
   from the separate sequential and sharded loops that preceded the
   merged one; both produced exactly these for every k. *)
let golden =
  [
    ( "gnp",
      [
        "692115f37e474fefd9daf79d5c198b5b";
        "e62e77a0e907b19693b2616223e8ccb9";
        "803b49cc90ef20f1629de01d211298b3";
        "2115019c5600a0b1b03db81cd4750c3f";
      ] );
    ( "udg",
      [
        "3b8374bd6c8ab2be4727dab0d5490d14";
        "9b14af721c455c689f09582ac6a1a975";
        "fac438823778103199dd1a07540a1786";
        "dc3d4ccf5314ab16707a0dfc7c2e0a71";
      ] );
    ( "trees",
      [
        "9208e0625436e3e72aa4e32abac3f093";
        "74caa432375c930006caa755bbf884ad";
        "e3ab55e62a1982906148f9bc72640b3d";
        "f8cee54c85ba1bc80c84dc4a64af264d";
      ] );
    ( "connected",
      [
        "060f1051aeb0f667a730ae131508bd6c";
        "6611419c8807c29bce0338a31e1a950e";
        "4b101624f87c910b454fe82831dfc015";
        "631aeb0bde1c249b6ce3abd3d5052a61";
      ] );
  ]

let test_golden () =
  List.iter
    (fun (name, g) ->
      List.iter2
        (fun (faults, traced) expected ->
          List.iter
            (fun k ->
              Alcotest.(check string)
                (Printf.sprintf "%s, traced=%b, faults=%b, k=%d" name traced
                   (faults <> None) k)
                expected
                (digest (run_engine ~domains:k ?faults ~traced g)))
            [ 1; 2; 4; 7 ])
        (scenarios g) (List.assoc name golden))
    golden_graphs

let test_explicit_partition () =
  (* an explicit (deliberately lopsided) partition must not change results *)
  let g = ring 12 in
  let reference = run_engine ~traced:true g in
  let p = Partition.blocks ~n:12 ~parts:5 in
  let init, step = gossip g in
  let trace = Trace.memory () in
  let states, stats = Sync.run ~partition:p ~blip:blip_hook ~trace g ~init ~step in
  Alcotest.(check bool) "same run" true ((states, stats, Trace.events trace) = reference)

let test_rejects_bad_args () =
  let g = ring 4 in
  let init, step = gossip g in
  Alcotest.check_raises "domains = 0" (Invalid_argument "Sync.run: domains must be >= 1")
    (fun () -> ignore (Sync.run ~domains:0 g ~init ~step));
  let foreign = Partition.blocks ~n:7 ~parts:2 in
  Alcotest.check_raises "foreign partition"
    (Invalid_argument "Partition.check: 7 entries for a 4-node graph") (fun () ->
      ignore (Sync.run ~partition:foreign g ~init ~step))

let test_non_neighbor_send () =
  let g = ring 6 in
  let init v = (v, true) in
  let step ~round:_ v state _ = (state, Sync.Continue [ ((v + 2) mod 6, 0) ]) in
  Alcotest.check_raises "non-neighbor send"
    (Invalid_argument "Sync.run: node 0 sent to non-neighbor 2") (fun () ->
      ignore (Sync.run ~domains:2 g ~init ~step))

(* --- per-sender FIFO delivery ---------------------------------------- *)

(* Round 1: every node sends each neighbor two messages, the larger
   payload first, with its messages to the other neighbors in between.
   Round 2: every node keeps its inbox and halts.  Each sender's pair
   must arrive in send order, senders ascending. *)
let fifo_protocol g =
  let init _ = ([], true) in
  let step ~round v inbox_seen inbox =
    if round = 1 then
      let sends payload =
        Graph.fold_neighbors g v (fun acc w -> (w, payload) :: acc) [] |> List.rev
      in
      (inbox_seen, Sync.Continue (sends ((2 * v) + 1) @ sends (2 * v)))
    else (inbox, Sync.Halt [])
  in
  (init, step)

let fifo_expected g v =
  List.concat_map
    (fun w -> [ (w, (2 * w) + 1); (w, 2 * w) ])
    (List.sort compare (Graph.fold_neighbors g v (fun acc w -> w :: acc) []))

let prop_fifo =
  qtest "each sender's messages arrive in send order on every engine" ~count:20
    (Generators.arb_connected ~max_n:20 ())
    (fun g ->
      let init, step = fifo_protocol g in
      let engines =
        List.map (fun k -> Sync.run ~domains:k g ~init ~step) [ 1; 2; 4 ]
        @ [ Reliable.run_sync g ~init ~step; Lockstep.run_async g ~init ~step ]
      in
      List.for_all
        (fun (states, _) ->
          Array.for_all Fun.id
            (Array.mapi (fun v inbox -> inbox = fifo_expected g v) states))
        engines)

(* --- observability at the terminal barrier --------------------------- *)

let test_metrics_merge () =
  let g = ring 16 in
  let init, step = gossip g in
  let run metrics domains = Sync.run ~metrics ~domains g ~init ~step in
  let reg_seq = Metrics.create () in
  let r0 = run (Metrics.sink reg_seq) 1 in
  let reg_par = Metrics.create () in
  let r1 = run (Metrics.sink reg_par) 4 in
  Alcotest.(check bool) "same states and stats" true (r0 = r1);
  let hist reg engine =
    match Metrics.histogram ~labels:[ ("engine", engine) ] reg Metrics.Name.inbox_depth with
    | Some h -> (Metrics.Hist.count h, Metrics.Hist.sum h)
    | None -> (0, nan)
  in
  Alcotest.(check bool)
    "per-shard inbox-depth histograms merge to the sequential one" true
    (hist reg_seq "sync" = hist reg_par "parallel");
  let gauge name = Metrics.gauge_value reg_par name in
  Alcotest.(check (option (float 0.)))
    "shard-count gauge" (Some 4.)
    (gauge Metrics.Name.parallel_shards);
  (match gauge Metrics.Name.parallel_barrier_frac with
  | Some f -> Alcotest.(check bool) "barrier frac in [0,1]" true (f >= 0. && f <= 1.)
  | None -> Alcotest.fail "missing barrier-frac gauge");
  match gauge Metrics.Name.parallel_cut_frac with
  | Some f -> Alcotest.(check bool) "cut frac in [0,1]" true (f >= 0. && f <= 1.)
  | None -> Alcotest.fail "missing cut-frac gauge"

let span_names ~domains =
  let g = ring 16 in
  let init, step = gossip g in
  let spans = Span.recorder () in
  ignore (Sync.run ~spans ~domains g ~init ~step);
  let entries = Span.entries spans in
  (match Span.check_nesting ~require_closed:true entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  List.sort_uniq compare
    (List.filter_map
       (function
         | Span.Begin { name; _ } | Span.Mark { name; _ } -> Some name
         | Span.End_ _ -> None)
       (Array.to_list entries))

let test_spans () =
  Alcotest.(check (list string))
    "sharded spans"
    [ "parallel.compute"; "parallel.exchange"; "parallel.round"; "parallel.run";
      "parallel.shard-summary" ]
    (span_names ~domains:3);
  Alcotest.(check (list string))
    "one shard keeps the sequential spans" [ "sync.round"; "sync.run" ]
    (span_names ~domains:1)

(* The run span covers the whole call, the protocol's init callbacks
   included, so engine time measured around the call matches it. *)
let test_run_span_covers_init () =
  let g = ring 16 in
  List.iter
    (fun (domains, name) ->
      let spans = Span.recorder () in
      let _, step = gossip g in
      let init v =
        Alcotest.(check (list string)) "open spans in init" [ name ] (Span.open_spans spans);
        ((v, 0), true)
      in
      ignore (Sync.run ~spans ~domains g ~init ~step))
    [ (1, "sync.run"); (3, "parallel.run") ]

(* --- the engine under DistMIS ---------------------------------------- *)

let schedule_array g sched = Array.init (Arc.count g) (Schedule.get sched)

let prop_distmis_engine_free =
  qtest "DistMIS(Hashed) is engine-independent" ~count:8
    (Generators.arb_connected ~max_n:16 ())
    (fun g ->
      let run engine = Dist_mis.run ?engine ~mis:(Mis.Hashed 42) ~variant:Dist_mis.Gbg g in
      let r0 = run None in
      let r1 = run (Some (Parallel.runner ~threshold:0 ~domains:3 ())) in
      schedule_array g r0.Dist_mis.schedule = schedule_array g r1.Dist_mis.schedule
      && r0.Dist_mis.stats = r1.Dist_mis.stats
      && r0.Dist_mis.outer_iters = r1.Dist_mis.outer_iters
      && r0.Dist_mis.inner_iters = r1.Dist_mis.inner_iters
      && Schedule.valid r0.Dist_mis.schedule)

let prop_hashed_mis_valid =
  qtest "Hashed MIS is a deterministic maximal independent set" ~count:30
    (Generators.arb_gnp ~min_n:1 ~max_n:25 ())
    (fun g ->
      let active = Array.make (Graph.n g) true in
      let mis, _ = Mis.compute ~algo:(Mis.Hashed 1) g ~active in
      let mis', _ = Mis.compute ~algo:(Mis.Hashed 1) g ~active in
      Mis.is_independent g mis && Mis.is_maximal g ~active mis && mis = mis')

(* Digests of (schedule, stats, iteration counts, trace events) for
   DistMIS per variant x MIS x graph family, clean, traced, and lossy
   through [Reliable]; recorded before the colour phase moved onto flat
   arc-indexed tables, which must reproduce them exactly. *)
let distmis_golden_graphs =
  [
    ("udg", fst (Gen.udg (Random.State.make [| 11 |]) ~n:40 ~side:5. ~radius:1.4));
    ("gnm", Gen.gnm (Random.State.make [| 12 |]) ~n:25 ~m:70);
    ("tree", Gen.random_tree (Random.State.make [| 13 |]) 30);
  ]

let distmis_digest ~variant ~mis ~mode g =
  let mis =
    match mis with `Luby -> Mis.Luby (Random.State.make [| 9 |]) | `Hashed -> Mis.Hashed 9
  in
  let trace = if mode = `Clean then Trace.null else Trace.memory () in
  let faults =
    if mode = `Lossy then Some (Fault.uniform ~seed:5 ~duplicate:0.1 ~reorder:0.1 0.1)
    else None
  in
  let r = Dist_mis.run ?faults ~trace ~mis ~variant g in
  Alcotest.(check bool) "valid" true (Schedule.valid r.Dist_mis.schedule);
  digest
    ( schedule_array g r.Dist_mis.schedule,
      r.Dist_mis.stats,
      (r.Dist_mis.outer_iters, r.Dist_mis.inner_iters),
      Trace.events trace )

let distmis_golden =
  [
    ( ("gbg", "luby", "udg"),
      [ "4d9f377ee50208448afb5526d2c3c0bc";
        "413a30bb0ed2569ee3c3f09a40a00806";
        "d7c8b9203bc847d2edeca8c43a31e912" ] );
    ( ("gbg", "luby", "gnm"),
      [ "b89d50b931f7431d01bab12c32744d6d";
        "412008dfa9f3a850e835c557f80c4888";
        "156a8010076427e53f9e278b5d529e2d" ] );
    ( ("gbg", "luby", "tree"),
      [ "38f3ce0ba84349305540348f44ede0e8";
        "1d3aa455314e07fa402458d279f92fea";
        "2b7c517991836568574b1f8db19a9977" ] );
    ( ("gbg", "hashed", "udg"),
      [ "d429381b63018997090b7a4f7be875c7";
        "0219a169e9364ae9fba9dea8220c643c";
        "38c34e21c0f1226d8a5a17970ad81117" ] );
    ( ("gbg", "hashed", "gnm"),
      [ "ead2b382e6b41cd49d51cc6e24139091";
        "cd59c4ff7d1ab9b882a46f17e6319dca";
        "50e74045dd402bb312d0f0b63eb21565" ] );
    ( ("gbg", "hashed", "tree"),
      [ "1be95a15c5b4ddc12fde6738680e192a";
        "ce5b1d439c23ddd5e30c573fd1919505";
        "3b7d86f892564ba3b9ebecaab573cda0" ] );
    ( ("general", "luby", "udg"),
      [ "1fd7c25f3da8ecdae4023e3bd6667df9";
        "bc0972337e0f6204e31fc3787b903645";
        "f003485141c8bf0bc79a2a4cc913e40f" ] );
    ( ("general", "luby", "gnm"),
      [ "584040f4abff9c11f2f235c939fc5a91";
        "6b1c5971136484aa06dbf74edd12c333";
        "06b11c5b3026553a9811a7e3756c271e" ] );
    ( ("general", "luby", "tree"),
      [ "28feaff37787c37d1f51da69a4de85f2";
        "f1716043ad02c1aefe7d0bfd5ce97201";
        "2abd93ef787d0a1cf352699e06400082" ] );
    ( ("general", "hashed", "udg"),
      [ "409c8ac5bb3ff91f412f54269ccc9843";
        "cbd6e48298ec8963ad5b994e79d5279e";
        "ead6dcafb3bb1fc2aeeab764e7880fbd" ] );
    ( ("general", "hashed", "gnm"),
      [ "372cc8d93e7822c3b8466f79384d4289";
        "1ac46e1055920b01e3646d543b60894b";
        "cc48d83cc3654e815bb28b84ee27f16a" ] );
    ( ("general", "hashed", "tree"),
      [ "58d10e917aeda41d67d73c4454424262";
        "fdd29839c65c0af4abb988ca71745517";
        "6c6365db219a0fabeba7cbd81ee8969b" ] );
  ]

let test_distmis_golden () =
  List.iter
    (fun (vname, variant) ->
      List.iter
        (fun (mname, mis) ->
          List.iter
            (fun (gname, g) ->
              List.iter2
                (fun mode expected ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s, %s, %s, %s" vname mname gname
                       (match mode with
                       | `Clean -> "clean"
                       | `Traced -> "traced"
                       | `Lossy -> "lossy"))
                    expected
                    (distmis_digest ~variant ~mis ~mode g))
                [ `Clean; `Traced; `Lossy ]
                (List.assoc (vname, mname, gname) distmis_golden))
            distmis_golden_graphs)
        [ ("luby", `Luby); ("hashed", `Hashed) ])
    [ ("gbg", Dist_mis.Gbg); ("general", Dist_mis.General) ]

let () =
  Alcotest.run "fdlsp_parallel"
    [
      ( "partition",
        [
          Alcotest.test_case "blocks" `Quick test_partition_blocks;
          Alcotest.test_case "bfs path" `Quick test_partition_bfs_path;
          Alcotest.test_case "geometric strips" `Quick test_partition_geometric;
          prop_partition_well_formed;
        ] );
      ( "identity",
        [
          prop_gnp;
          prop_udg;
          prop_tree;
          prop_connected;
          Alcotest.test_case "golden digests" `Quick test_golden;
          Alcotest.test_case "explicit partition" `Quick test_explicit_partition;
          Alcotest.test_case "bad args" `Quick test_rejects_bad_args;
          Alcotest.test_case "non-neighbor send" `Quick test_non_neighbor_send;
        ] );
      ("fifo", [ prop_fifo ]);
      ( "observability",
        [
          Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
          Alcotest.test_case "spans" `Quick test_spans;
          Alcotest.test_case "run span covers init" `Quick test_run_span_covers_init;
        ] );
      ( "distmis",
        [
          prop_distmis_engine_free;
          prop_hashed_mis_valid;
          Alcotest.test_case "golden digests" `Quick test_distmis_golden;
        ] );
    ]
