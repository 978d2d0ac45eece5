(** The sharded synchronous engine as a {!Reliable.sync_runner}.

    The round loop itself is {!Sync.run}; this module only decides, per
    run, how many shards to use and which channel to run over. *)

open Fdlsp_graph

val runner :
  ?faults:Fault.plan ->
  ?config:Reliable.config ->
  ?trace:Trace.sink ->
  ?spans:Span.sink ->
  ?points:Geometry.point array ->
  ?threshold:int ->
  domains:int ->
  unit ->
  Reliable.sync_runner
(** A {!Reliable.sync_runner} that runs {!Sync.run} over [domains]
    shards — the sharded analogue of {!Reliable.runner}, accepted
    anywhere an [?engine] is (e.g. [Dist_mis.run]).  [points] feed the
    geometric partition.

    Graphs smaller than [threshold] nodes (default 2048) run on one
    shard instead: spawning domains costs more than stepping a small
    graph, and results are bit-identical for every shard count, so the
    switch is unobservable in results.  Pass [~threshold:0] to shard
    always (the determinism property does).

    Lossy fault plans delegate to {!Reliable.runner}'s ARQ synchronizer
    unchanged (sequential; [faulty = true]): retransmission timers are
    inherently transmission-order-coupled.  Fault-free and lossless
    (blips-only) plans run sharded with [faulty = false]. *)
