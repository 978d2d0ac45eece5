let bfs_distances g src =
  let dist = Array.make (Graph.n g) max_int in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Graph.iter_neighbors g v (fun w ->
        if dist.(w) = max_int then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w q
        end)
  done;
  dist

let distance g u v =
  if u = v then 0
  else begin
    (* bounded BFS with early exit *)
    let dist = Array.make (Graph.n g) max_int in
    let q = Queue.create () in
    dist.(u) <- 0;
    Queue.add u q;
    let found = ref max_int in
    (try
       while not (Queue.is_empty q) do
         let x = Queue.pop q in
         Graph.iter_neighbors g x (fun w ->
             if dist.(w) = max_int then begin
               dist.(w) <- dist.(x) + 1;
               if w = v then begin
                 found := dist.(w);
                 raise Exit
               end;
               Queue.add w q
             end)
       done
     with Exit -> ());
    !found
  end

(* [within]'s visited marks live in a per-domain scratch stamped with a
   generation counter: bumping the generation clears every mark at once,
   so a call costs O(ball), not the O(n) of a fresh distance array.  The
   scratch grows to the largest graph seen on the domain and serves
   every graph; the counter wrap (after max_int calls) refills it. *)
type ball_scratch = { mutable seen : int array; mutable gen : int }

let ball_key = Domain.DLS.new_key (fun () -> { seen = [||]; gen = 0 })

let within g v r =
  let s = Domain.DLS.get ball_key in
  if Array.length s.seen < Graph.n g then begin
    s.seen <- Array.make (Graph.n g) 0;
    s.gen <- 0
  end;
  if s.gen = max_int then begin
    Array.fill s.seen 0 (Array.length s.seen) 0;
    s.gen <- 0
  end;
  s.gen <- s.gen + 1;
  let gen = s.gen and seen = s.seen in
  seen.(v) <- gen;
  (* level by level: [frontier] holds the nodes at the current depth *)
  let out = ref [] and frontier = ref [ v ] and depth = ref 0 in
  while !depth < r && !frontier <> [] do
    incr depth;
    let next = ref [] in
    List.iter
      (fun x ->
        Graph.iter_neighbors g x (fun w ->
            if seen.(w) <> gen then begin
              seen.(w) <- gen;
              next := w :: !next
            end))
      !frontier;
    out := List.rev_append !next !out;
    frontier := !next
  done;
  List.sort compare !out

let components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let k = ref 0 in
  for v = 0 to n - 1 do
    if comp.(v) < 0 then begin
      let q = Queue.create () in
      comp.(v) <- !k;
      Queue.add v q;
      while not (Queue.is_empty q) do
        let x = Queue.pop q in
        Graph.iter_neighbors g x (fun w ->
            if comp.(w) < 0 then begin
              comp.(w) <- !k;
              Queue.add w q
            end)
      done;
      incr k
    end
  done;
  (comp, !k)

let is_connected g =
  Graph.n g = 0
  ||
  let _, k = components g in
  k = 1

let dfs_preorder g root ~next =
  let visited = Array.make (Graph.n g) false in
  let order = ref [] in
  let rec visit v =
    visited.(v) <- true;
    order := v :: !order;
    let rec loop () =
      let candidates = Graph.fold_neighbors g v (fun acc w -> if visited.(w) then acc else w :: acc) [] in
      let candidates = List.sort compare candidates in
      match candidates with
      | [] -> ()
      | _ -> (
          match next v candidates with
          | None -> ()
          | Some w ->
              if visited.(w) then invalid_arg "Traversal.dfs_preorder: next picked a visited node";
              visit w;
              loop ())
    in
    loop ()
  in
  visit root;
  List.rev !order

let eccentricity g v =
  let dist = bfs_distances g v in
  Array.fold_left (fun acc d -> if d <> max_int then max acc d else acc) 0 dist

let diameter g =
  let best = ref 0 in
  for v = 0 to Graph.n g - 1 do
    let e = eccentricity g v in
    if e > !best then best := e
  done;
  !best
