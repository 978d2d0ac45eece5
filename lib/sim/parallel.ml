open Fdlsp_graph

let runner ?(faults = Fault.none) ?config ?(trace = Trace.null) ?(spans = Span.null)
    ?points ?(threshold = 2048) ~domains () =
  if domains < 1 then invalid_arg "Parallel.runner: domains must be >= 1";
  if not (Fault.is_none faults || Fault.lossless faults) then
    (* lossy channels need the ARQ synchronizer, which retransmits on
       physical-time order: inherently sequential — delegate unchanged *)
    Reliable.runner ~faults ?config ~trace ~spans ()
  else
    let faults = if Fault.is_none faults then None else Some faults in
    {
      Reliable.run =
        (fun ?max_rounds ?weight ?blip ?metrics g ~init ~step ->
          (* one shard below the threshold: domain spawns would cost more
             than the whole run, and the results are the same *)
          let domains = if Graph.n g < threshold then 1 else domains in
          Sync.run ?max_rounds ?weight ?faults ?blip ~trace ~spans ?metrics ?points
            ~domains g ~init ~step);
      faulty = false;
    }
