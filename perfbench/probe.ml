(* Engine probe: a Reliable.sync_runner that delegates to another runner
   and accounts for what the engine did, from outside the library.

   [counting] only sums the returned Stats.t and counts engine runs — no
   per-step work, so the plain run can pass it without changing what it
   measures.  [timing] additionally wraps the protocol's init and step
   callbacks, to split engine run time into protocol time (per-node
   state from init, and steps) and the engine's own loop (round scan,
   delivery, inbox sort). *)

open Fdlsp_sim

type t = {
  mutable calls : int;  (** engine runs *)
  mutable node_steps : int;  (** step callbacks (timing probe only) *)
  mutable step_s : float;  (** time inside step callbacks *)
  mutable init_s : float;  (** time inside init callbacks (timing probe only) *)
  mutable run_s : float;  (** time inside engine runs, steps included *)
  mutable messages : int;
  mutable volume : int;
}

let create () =
  { calls = 0; node_steps = 0; step_s = 0.; init_s = 0.; run_s = 0.; messages = 0; volume = 0 }

let reset p =
  p.calls <- 0;
  p.node_steps <- 0;
  p.step_s <- 0.;
  p.init_s <- 0.;
  p.run_s <- 0.;
  p.messages <- 0;
  p.volume <- 0

(* Engine time that is not protocol init: the step callbacks and the
   engine's loop. *)
let engine_s p = p.run_s -. p.init_s

let loop_s p = engine_s p -. p.step_s

let account p t0 (stats : Stats.t) =
  p.run_s <- p.run_s +. (Measure.now () -. t0);
  p.calls <- p.calls + 1;
  p.messages <- p.messages + stats.messages;
  p.volume <- p.volume + stats.volume

let counting ?(base = Reliable.raw_runner) p : Reliable.sync_runner =
  {
    run =
      (fun ?max_rounds ?weight ?blip ?metrics g ~init ~step ->
        let t0 = Measure.now () in
        let ((_, stats) as r) = base.run ?max_rounds ?weight ?blip ?metrics g ~init ~step in
        account p t0 stats;
        r);
    faulty = base.faulty;
  }

let timing ?(base = Reliable.raw_runner) p : Reliable.sync_runner =
  {
    run =
      (fun ?max_rounds ?weight ?blip ?metrics g ~init ~step ->
        let init v =
          let t0 = Measure.now () in
          let r = init v in
          p.init_s <- p.init_s +. (Measure.now () -. t0);
          r
        in
        let step ~round v st inbox =
          p.node_steps <- p.node_steps + 1;
          let t0 = Measure.now () in
          let r = step ~round v st inbox in
          p.step_s <- p.step_s +. (Measure.now () -. t0);
          r
        in
        let t0 = Measure.now () in
        let ((_, stats) as r) = base.run ?max_rounds ?weight ?blip ?metrics g ~init ~step in
        account p t0 stats;
        r);
    faulty = base.faulty;
  }
