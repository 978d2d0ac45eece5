(** Synchronous message-passing engine (the model of Sections 5–6).

    In each round every live node receives the messages sent to it in
    the previous round, computes, and sends at most one message per
    incident link.  The engine enforces locality: a node may only send
    to its graph neighbors.  Execution ends when every node has halted
    (or [max_rounds] is hit, which raises).

    One round loop serves every shard count.  With [domains = 1] (the
    default) it steps all nodes in ascending order on the calling
    domain.  With [k > 1] shards it partitions the graph, steps each
    shard on its own OCaml 5 domain, and exchanges cross-shard messages
    at a round barrier.  Results are bit-identical for every [k]: same
    final states, same {!Stats.t}, same trace event stream. *)

open Fdlsp_graph

type 'msg outcome =
  | Continue of (int * 'msg) list  (** messages to send: [(neighbor, payload)] *)
  | Halt of (int * 'msg) list  (** send these and stop participating *)

type ('state, 'msg) step = round:int -> int -> 'state -> (int * 'msg) list -> 'state * 'msg outcome
(** [step ~round v state inbox]: [inbox] is the list of [(sender,
    payload)] received this round, in ascending sender order and, for
    each sender, in the order it sent them (per-sender FIFO).  Purely
    local: implementations must only look at [v]'s own state and
    inbox. *)

exception Did_not_terminate of int
(** Raised with [max_rounds] when the protocol fails to halt. *)

val run :
  ?max_rounds:int ->
  ?weight:('msg -> int) ->
  ?faults:Fault.plan ->
  ?corrupt:('msg -> 'msg) ->
  ?blip:(Fault.blip -> 'state -> 'state) ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.sink ->
  ?spans:Span.sink ->
  ?domains:int ->
  ?partition:Partition.t ->
  ?points:Geometry.point array ->
  Graph.t ->
  init:(int -> 'state * bool) ->
  step:('state, 'msg) step ->
  'state array * Stats.t
(** [init v] gives the initial state and whether the node participates
    at all ([false] = halted from the start, e.g. nodes outside the
    residual graph).  Halted nodes never step; messages sent to them are
    delivered into the void (counted, dropped).  [max_rounds] defaults
    to [10_000 + 100 * n].  [weight] gives a message's payload size for
    the [volume] statistic (default 1; clamped to at least 1).  Returns
    final states and stats; the round count is the number of rounds
    until the last node halts.

    [faults] injects channel and node faults (see {!Fault}): dropped
    messages vanish, duplicated ones are delivered twice, reordered
    copies arrive one round late (escaping the engine's FIFO
    discipline), and a node inside a crash window neither steps nor
    receives — messages addressed to it are counted as dropped; on
    recovery it resumes with its pre-crash state.  [corrupt] transforms
    payloads the fault plan marks as corrupted (identity when omitted).
    [blip] applies the plan's state blips: each blip whose time the
    round clock has crossed rewrites the victim's stored state at the
    start of the round, in [(time, node)] order, whether or not the node
    is live or inside a crash window (memory corrupts either way).
    Applied blips are counted in [Stats.corruptions] even when no hook
    is installed; blips naming nodes outside the graph are ignored.
    Protocols are {e not} expected to survive this raw engine — wrap
    them with {!Reliable.run_sync} for exactly-once FIFO delivery.

    [trace] (default {!Trace.null}) receives one {!Trace.event} per
    round boundary, transmission, user-level delivery, counted loss,
    channel duplicate, and plan crash/recovery boundary, all stamped
    with the round number.  With the null sink the engine skips event
    construction entirely.

    [metrics] (default {!Metrics.null}) receives, under an
    [engine=sync] label (unless the caller already set [engine]): the
    returned stats as the seven canonical counters (via
    {!Metrics.add_stats}, so [Metrics.to_stats] reproduces the returned
    record exactly), a {!Metrics.Name.round_messages} series point per
    round, and a {!Metrics.Name.inbox_depth} histogram observation per
    user-level delivery batch.

    [spans] (default {!Span.null}) records a ["sync.run"] span around
    the whole execution and one ["sync.round"] child per round.  With
    the null sink each wrapper is a single pattern match.

    {b Sharding.}  [domains] (default 1, must be [>= 1]) is the target
    shard count, clamped to [n].  [partition] overrides the node
    partition (its [parts] then decides the shard count); it must
    satisfy {!Partition.check}.  Otherwise the engine partitions with
    {!Partition.of_graph}: geometric strips when [points] match the
    graph, BFS regions otherwise.  With one shard no domain is spawned
    and no partition is built.

    With [k > 1] shards, [step ~round v] may run concurrently with
    [step ~round w] for [w] in another shard (never for two nodes of
    the same shard; [init] is always called sequentially).  Protocols
    whose steps share mutable state (a common scratch, a shared RNG)
    depend on step order and must not be sharded — see [Mis.Hashed]
    vs [Mis.Luby].  When a fault plan or a trace is active, shards only
    step and the calling domain replays delivery in node order, so
    fault verdicts and trace events come out exactly as with one
    shard.  If a shard's step raises, the exception is re-raised on the
    calling domain after the barrier (the lowest-numbered failing shard
    wins), and worker domains are always joined.

    Observability with [k > 1] shards: [metrics] records under
    [engine=parallel] instead of [engine=sync], plus the gauges
    {!Metrics.Name.parallel_shards}, {!Metrics.Name.parallel_barrier_frac}
    and {!Metrics.Name.parallel_cut_frac}; each shard observes into a
    private registry merged at the end with exact counts (histogram
    float [sum]s may differ from a one-shard run in rounding only).
    [spans] sees ["parallel.run"] and ["parallel.round"] in place of
    the [sync.*] spans, with ["parallel.compute"] /
    ["parallel.exchange"] children per round and one
    ["parallel.shard-summary"] mark per shard at the end. *)

val sort_inbox : (int * 'msg) list -> (int * 'msg) list
(** The delivery order of a raw inbox built by consing arrivals (newest
    first): ascending sender, each sender's messages in send order.
    Shared by the round-based engines so they all deliver alike. *)
