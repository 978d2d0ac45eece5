(* Timing and order statistics for the benchmark.  Every end-to-end
   timing is a median over repeated samples; a sample is one stretch of
   back-to-back calls timed whole, never a single sub-millisecond call. *)

let now = Fdlsp_sim.Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks (the "inclusive" method of
   Python's statistics.quantiles); [q] in [0, 1]. *)
let quantile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.quantile: no samples";
  Array.sort compare a;
  let pos = q *. float (n - 1) in
  let i = int_of_float (Float.floor pos) in
  if i >= n - 1 then a.(n - 1)
  else
    let frac = pos -. float i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Calls per stretch for a function whose warm-up call took [warm] s, so
   that the stretch lasts at least [floor] s: long enough that timer
   resolution, one scheduler hiccup or one GC slice cannot dominate a
   sample. *)
let calls_per_stretch ~floor warm =
  if warm <= 0. then 64 else max 1 (min 64 (int_of_float (Float.ceil (floor /. warm))))

(* Host speed.  On a shared host the same call on the same input runs up
   to 40 % slower for seconds to tens of seconds at a time, in CPU time
   as much as in wall time, and a fixed memory-bound kernel slows down
   with it.  So a run times this kernel between its stretches ("ticks"),
   and each timing sample is reported at the reference speed: divided by
   the mean of the two ticks around it over [reference_s].

   The kernel must not see the program under test.  It works only on
   buffers outside the OCaml heap (allocated once, when the run starts)
   and allocates nothing, so no minor or major GC work can run inside
   it: the program's live heap and its garbage cannot change a tick.  It
   does what the schedulers do most — hash-table inserts, sorting, a
   dependent pointer walk like a list traversal, and allocation-like
   record writes into a ring the size of the minor heap — on fixed
   data.  Over 120 interleaved calls on the reference host its time
   correlated with DFS on a fixed 400-node UDG at 0.65 and with greedy
   on a fixed 5000-node UDG at 0.62. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type kernel = { table : ints; keys : ints; ring : ints; nursery : ints }

let table_slots = 1 lsl 18
let key_count = 100_000
let ring_size = 1 lsl 20
let walk_steps = 400_000
let nursery_words = 1 lsl 18
let records = 3_000_000

let kernel () =
  let mk n : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  let ring = mk ring_size in
  for i = 0 to ring_size - 1 do
    ring.{i} <- i
  done;
  (* Sattolo's shuffle from a fixed LCG: one cycle through every slot *)
  let x = ref 12345 in
  for i = ring_size - 1 downto 1 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !x mod i in
    let t = ring.{i} in
    ring.{i} <- ring.{j};
    ring.{j} <- t
  done;
  { table = mk table_slots; keys = mk key_count; ring; nursery = mk nursery_words }

let rec sift_down (a : ints) i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.{l + 1} > a.{l} then l + 1 else l in
    if a.{c} > a.{i} then begin
      let t = a.{i} in
      a.{i} <- a.{c};
      a.{c} <- t;
      sift_down a c n
    end
  end

let run_kernel k =
  let t = k.table and a = k.keys and r = k.ring in
  Bigarray.Array1.fill t (-1);
  for i = 0 to key_count - 1 do
    let key = (i * 7919) land 0xFFFFF in
    let h = ref ((key * 0x9E3779B1) land (table_slots - 1)) in
    while t.{!h} <> -1 && t.{!h} <> key do
      h := (!h + 1) land (table_slots - 1)
    done;
    t.{!h} <- key
  done;
  for i = 0 to key_count - 1 do
    a.{i} <- (i * 104729) land 0xFFFF
  done;
  for i = (key_count / 2) - 1 downto 0 do
    sift_down a i key_count
  done;
  for last = key_count - 1 downto 1 do
    let top = a.{0} in
    a.{0} <- a.{last};
    a.{last} <- top;
    sift_down a 0 last
  done;
  let p = ref 0 and sum = ref 0 in
  for _ = 1 to walk_steps do
    p := r.{!p};
    sum := !sum + !p
  done;
  (* 3-word records, each pointing at an earlier one that is read back *)
  let b = k.nursery and mask = nursery_words - 1 in
  Bigarray.Array1.fill b 0;
  let pos = ref 0 and prev = ref 0 in
  for i = 1 to records do
    let q = !pos in
    b.{q} <- i;
    b.{(q + 1) land mask} <- !prev;
    b.{(q + 2) land mask} <- i lxor !sum;
    sum := !sum + b.{(!prev + 1) land mask};
    prev := if i land 7 = 0 then (q - (3 * ((i * 40503) land 0xFFFF))) land mask else q;
    pos := (q + 3) land mask
  done;
  Sys.opaque_identity (!sum + a.{0} + t.{0})

(* The kernel's median time on the reference host (2-core shared
   container, OCaml 5.1.1, release build). *)
let reference_s = 0.1

type speed = { kernel : kernel; mutable ticks : float array; mutable n : int }

let speed () = { kernel = kernel (); ticks = Array.make 64 0.; n = 0 }

let tick sp =
  let t0 = now () in
  ignore (run_kernel sp.kernel);
  let dt = now () -. t0 in
  if sp.n = Array.length sp.ticks then begin
    let a = Array.make (2 * sp.n) 0. in
    Array.blit sp.ticks 0 a 0 sp.n;
    sp.ticks <- a
  end;
  sp.ticks.(sp.n) <- dt;
  sp.n <- sp.n + 1

let last_tick sp = sp.n - 1
let ticks sp = Array.to_list (Array.sub sp.ticks 0 sp.n)

(* Slow-down of the host around a sample taken after tick [i]. *)
let factor sp i =
  if i < 0 || sp.n = 0 then 1.
  else
    let i = min i (sp.n - 1) in
    let around = if i + 1 < sp.n then (sp.ticks.(i) +. sp.ticks.(i + 1)) /. 2. else sp.ticks.(i) in
    around /. reference_s

(* Named sample series, in insertion order per name.  A timing sample
   remembers the last tick before it; other series use tick -1. *)
type series = (string, (float * int) list ref) Hashtbl.t

let series () : series = Hashtbl.create 16

let add ?(tick = -1) (s : series) name x =
  match Hashtbl.find_opt s name with
  | Some l -> l := (x, tick) :: !l
  | None -> Hashtbl.replace s name (ref [ (x, tick) ])

let raw (s : series) name =
  match Hashtbl.find_opt s name with Some l -> List.rev !l | None -> []

let samples s name = List.map fst (raw s name)

(* Timing samples at the reference speed. *)
let at_reference sp s name = List.map (fun (x, i) -> x /. factor sp i) (raw s name)
