(* Process-wide monotone clamp over the wall clock.  The high-water mark
   lives in an [Atomic] so concurrent domains (the sharded [Sync] engine's
   shards) share one monotone timeline; the CAS loop retries only when
   another domain advanced the mark between the read and the swap. *)

let last = Atomic.make neg_infinity

let rec now () =
  let t = Unix.gettimeofday () in
  let prev = Atomic.get last in
  if t <= prev then prev
  else if Atomic.compare_and_set last prev t then t
  else now ()

let wall = Unix.gettimeofday
