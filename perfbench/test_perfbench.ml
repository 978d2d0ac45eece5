(* The benchmark's own tests: the churn generator, the engine probe, the
   metric names against BENCHMARK.json, and the determinism of every
   count a workload reports. *)

open Fdlsp_graph
open Fdlsp_color
open Fdlsp_sim
open Fdlsp_core
open Fdlsp_perfbench

(* ---- churn generator ------------------------------------------------ *)

let churn_agrees ~hood ?points ~batch g seed =
  let svc = Service.create (Greedy.color g) in
  let gen = Mobility.create ~seed ~hood ?points g in
  for i = 1 to 30 do
    let evs = Mobility.next_batch gen ~size:batch in
    (match Service.apply svc evs with
    | _ -> ()
    | exception Invalid_argument m -> Alcotest.failf "seed %d batch %d rejected: %s" seed i m);
    if not (Graph.equal (Service.graph svc) (Mobility.graph gen)) then
      Alcotest.failf "seed %d batch %d: Service.graph differs from the model" seed i;
    Alcotest.(check int) "id space" (Mobility.nodes gen) (Service.nodes svc);
    match hood with
    | Mobility.Disk _ ->
        if not (Graph.equal (Mobility.graph gen) (Mobility.disk_graph gen)) then
          Alcotest.failf "seed %d batch %d: model is not the live UDG minus degrades" seed i
    | Mobility.Uniform _ -> ()
  done

let test_churn_disk () =
  List.iter
    (fun seed ->
      let n = 150 in
      let g, points = Workload.gen_udg (Random.State.make [| seed |]) n in
      churn_agrees ~hood:(Workload.disk n) ~points ~batch:16 g seed)
    [ 1; 2; 3 ]

let test_churn_uniform () =
  List.iter
    (fun seed ->
      let g = Gen.gnm (Random.State.make [| seed |]) ~n:40 ~m:200 in
      churn_agrees ~hood:(Mobility.Uniform { degree = 10 }) ~batch:8 g seed)
    [ 1; 2; 3 ]

(* Every event kind occurs, in roughly Service.synth's mix. *)
let test_churn_mix () =
  let n = 400 in
  let g, points = Workload.gen_udg (Random.State.make [| 9 |]) n in
  let gen = Mobility.create ~seed:9 ~hood:(Workload.disk n) ~points g in
  let counts = Array.make 4 0 in
  for _ = 1 to 100 do
    List.iter
      (fun ev ->
        let i =
          match ev with
          | Service.Join _ -> 0
          | Service.Leave _ -> 1
          | Service.Move _ -> 2
          | Service.Degrade _ -> 3
        in
        counts.(i) <- counts.(i) + 1)
      (Mobility.next_batch gen ~size:16)
  done;
  let total = Array.fold_left ( + ) 0 counts in
  List.iteri
    (fun i want ->
      let got = 100. *. float counts.(i) /. float total in
      if Float.abs (got -. want) > 5. then
        Alcotest.failf "event kind %d: %.1f%% of events, want about %.0f%%" i got want)
    [ 25.; 15.; 40.; 20. ]

(* ---- engine probe --------------------------------------------------- *)

let test_probe_transparent () =
  let check name g variant =
    let run engine =
      Dist_mis.run ?engine ~mis:(Mis.Luby (Random.State.make [| 4; 0xA5 |])) ~variant g
    in
    let base = run None in
    let p = Probe.create () in
    let counted = run (Some (Probe.counting p)) in
    let q = Probe.create () in
    let timed = run (Some (Probe.timing q)) in
    List.iter
      (fun (how, (r : Dist_mis.result)) ->
        Alcotest.(check bool) (name ^ " schedule " ^ how) true (Schedule.equal base.schedule r.schedule);
        Alcotest.(check bool) (name ^ " stats " ^ how) true (base.stats = r.stats))
      [ ("counting", counted); ("timing", timed) ];
    Alcotest.(check int) (name ^ " engine runs agree") p.calls q.calls;
    Alcotest.(check int) (name ^ " messages agree") p.messages q.messages;
    Alcotest.(check bool) (name ^ " steps counted") true (q.node_steps > 0 && q.step_s <= q.run_s)
  in
  check "udg" (fst (Workload.gen_udg (Random.State.make [| 3 |]) 200)) Dist_mis.Gbg;
  check "gnm" (Gen.gnm (Random.State.make [| 3 |]) ~n:40 ~m:200) Dist_mis.General

(* ---- metric names ----------------------------------------------------- *)

let benchmark_json () =
  let j = Trace.Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) in
  let list key =
    match Trace.Json.member key j with
    | Some (Trace.Json.Arr l) -> l
    | _ -> Alcotest.failf "BENCHMARK.json: no %s list" key
  in
  let str key o =
    match Trace.Json.member key o with
    | Some (Trace.Json.Str s) -> s
    | _ -> Alcotest.failf "BENCHMARK.json: entry without %s" key
  in
  ( List.map (str "name") (list "workloads"),
    List.map (fun o -> (str "name" o, str "unit" o)) (list "end_to_end"),
    List.map (fun o -> (str "name" o, str "unit" o)) (list "per_layer") )

let tmp_dir () = Filename.temp_dir "perfbench" ""

let run_tiny mode workload seed =
  let tmp = tmp_dir () in
  let ctx = Workload.make_ctx ~cfg:Workload.tiny ~mode ~seed ~seconds:1. ~tmp () in
  Workload.run ctx workload;
  if mode = Workload.Traced then Workload.trace_checks ctx;
  Workload.rm_rf tmp;
  if ctx.failed > 0 || ctx.errors <> [] then
    Alcotest.failf "%s seed %d: %d failed: %s" workload seed ctx.failed
      (String.concat "; " ctx.errors);
  ctx

let counts ctx =
  let units = Workload.end_to_end @ Workload.per_layer in
  let is_count (n, _) = match List.assoc_opt n units with Some ("count" | "bytes") -> true | _ -> false in
  List.filter is_count (Workload.end_to_end_values ctx) @ Workload.exact_values ctx

(* A plain and a traced run of one seed per workload: every metric named
   in BENCHMARK.json is printed, and every count repeats — tracing
   included. *)
let test_runs () =
  let workloads, e2e, layer = benchmark_json () in
  Alcotest.(check (list string)) "workloads" Workload.workloads workloads;
  Alcotest.(check (list (pair string string))) "end_to_end" Workload.end_to_end e2e;
  Alcotest.(check (list (pair string string))) "per_layer" Workload.per_layer layer;
  List.iter
    (fun w ->
      let a = run_tiny Workload.Plain w 7 and traced = run_tiny Workload.Traced w 7 in
      Alcotest.(check (list string))
        (w ^ " prints every end-to-end metric")
        (List.map fst e2e)
        (List.map fst (Workload.end_to_end_values a));
      Alcotest.(check (list string))
        (w ^ " prints every per-layer metric")
        (List.map fst layer)
        (List.map fst (Workload.per_layer_values traced));
      Alcotest.(check (list (pair string (float 0.)))) (w ^ " counts repeat") (counts a)
        (counts traced))
    workloads

(* The host-speed kernel allocates nothing, so the program's heap cannot
   reach it through the GC. *)
let test_kernel_no_alloc () =
  let k = Measure.kernel () in
  let before = Gc.minor_words () in
  let r = Measure.run_kernel k in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "same result twice" r (Measure.run_kernel k);
  if words > 8. then Alcotest.failf "the kernel allocated %.0f words" words

(* Inclusive span time counts only spans under both named ancestors. *)
let test_inclusive () =
  let b id parent name t = Span.Begin { id; parent; name; t } in
  let e id name t = Span.End_ { id; name; t; alloc_words = 0; majors = 0 } in
  let entries =
    [|
      b 0 (-1) "bench.stretch" 0.; b 1 0 "distmis" 1.; b 2 1 "sync.run" 2.; e 2 "sync.run" 5.;
      e 1 "distmis" 6.; b 3 0 "dmgc" 6.; b 4 3 "sync.run" 7.; e 4 "sync.run" 8.; e 3 "dmgc" 9.;
      e 0 "bench.stretch" 10.; b 5 (-1) "distmis" 10.; b 6 5 "sync.run" 10.; e 6 "sync.run" 12.;
      e 5 "distmis" 13.;
    |]
  in
  Alcotest.(check (float 1e-12)) "sync.run under distmis in a stretch" 3.
    (Workload.inclusive_s ~within:"bench.stretch" ~under:"distmis" "sync.run" entries);
  Alcotest.(check (float 1e-12)) "distmis in a stretch" 5.
    (Workload.inclusive_s ~within:"bench.stretch" ~under:"bench.stretch" "distmis" entries)

let test_quantile () =
  (* Python: statistics.quantiles([1,2,3,4,10], n=4, method="inclusive") *)
  let xs = [ 10.; 2.; 4.; 1.; 3. ] in
  Alcotest.(check (float 1e-12)) "q1" 2. (Measure.quantile xs 0.25);
  Alcotest.(check (float 1e-12)) "median" 3. (Measure.median xs);
  Alcotest.(check (float 1e-12)) "p95" 8.8 (Measure.quantile xs 0.95)

let () =
  Alcotest.run "perfbench"
    [
      ( "mobility",
        [
          Alcotest.test_case "disk churn accepted, model = Service.graph" `Quick test_churn_disk;
          Alcotest.test_case "uniform churn accepted, model = Service.graph" `Quick
            test_churn_uniform;
          Alcotest.test_case "event mix" `Quick test_churn_mix;
        ] );
      ("probe", [ Alcotest.test_case "engine probe is transparent" `Quick test_probe_transparent ]);
      ( "report",
        [
          Alcotest.test_case "metric names match BENCHMARK.json, counts repeat" `Quick test_runs;
          Alcotest.test_case "quantiles" `Quick test_quantile;
          Alcotest.test_case "host-speed kernel allocates nothing" `Quick test_kernel_no_alloc;
          Alcotest.test_case "inclusive span time" `Quick test_inclusive;
        ] );
    ]
