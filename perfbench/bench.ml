(* One workload run in this process.  Normally started by run.py:

     bench.exe --workload W --seed N --seconds S --mode plain|traced
               --tmp DIR [--spans-out PREFIX]

   Prints a host line, a detail line (sample counts, exact counts, timed
   stretches, failed checks) and, last, the result object.  A plain run
   reports the end-to-end metrics; a traced run the per-layer metrics,
   and writes PREFIX.chrome.json and PREFIX.folded. *)

open Fdlsp_perfbench

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"
let nums l = obj (List.map (fun (k, v) -> (k, json_num v)) l)

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and mode = ref "plain" in
  let tmp = ref "" and spans_out = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " udg-sparse | gnm-dense | serve-churn");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " target run length");
      ("--mode", Arg.Set_string mode, " plain | traced");
      ("--tmp", Arg.Set_string tmp, " scratch directory for WAL stores");
      ("--spans-out", Arg.Set_string spans_out, " traced: span file prefix");
    ]
  in
  let usage = "bench.exe --workload W --seed N --seconds S --mode plain|traced --tmp DIR" in
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let die m =
    prerr_endline ("bench: " ^ m);
    exit 2
  in
  if not (List.mem !workload Workload.workloads) then die ("unknown workload " ^ !workload);
  if !tmp = "" then die "--tmp is required";
  let mode =
    match !mode with
    | "plain" -> Workload.Plain
    | "traced" -> Workload.Traced
    | m -> die ("unknown mode " ^ m)
  in
  (try Sys.mkdir !tmp 0o755 with Sys_error _ -> ());
  let ctx = Workload.make_ctx ~mode ~seed:!seed ~seconds:!seconds ~tmp:!tmp () in
  Workload.run ctx !workload;
  let metrics =
    match mode with
    | Workload.Plain -> (Workload.end_to_end_values ctx, Workload.end_to_end)
    | Workload.Traced ->
        Workload.trace_checks ctx;
        if !spans_out <> "" then begin
          let entries = Fdlsp_sim.Span.entries ctx.spans in
          write_file (!spans_out ^ ".chrome.json") (Fdlsp_sim.Span.to_chrome entries);
          write_file (!spans_out ^ ".folded") (Fdlsp_sim.Span.to_folded entries)
        end;
        (Workload.per_layer_values ctx, Workload.per_layer)
  in
  let values, units = metrics in
  print_endline
    (obj
       [
         ( "host",
           obj
             [
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("ocaml", json_str Sys.ocaml_version);
             ] );
       ]);
  print_endline
    (obj
       [
         ( "detail",
           obj
             [
               ("workload", json_str !workload);
               ("seed", string_of_int !seed);
               ( "samples",
                 obj
                   (List.map
                      (fun (k, xs) -> (k, "[" ^ String.concat ", " (List.map json_num xs) ^ "]"))
                      (Workload.samples ctx)) );
               ("exact", nums (Workload.exact_values ctx));
               ("stretch_s", nums (Workload.stretch_values ctx));
               ("raw_median_s", nums (Workload.raw_medians ctx));
               ("warmup_s", nums (Workload.warmup_values ctx));
               ("top_heap", nums (Workload.heap_values ctx));
               ("reference_s", json_num Measure.reference_s);
               ("ticks_s", "[" ^ String.concat ", " (List.map json_num (Measure.ticks ctx.speed)) ^ "]");
               ("errors", "[" ^ String.concat ", " (List.rev_map json_str ctx.errors) ^ "]");
             ] );
       ]);
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) values in
  let correct = ctx.failed = 0 && ctx.errors = [] && finite in
  print_endline
    (obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int ctx.attempted);
         ("failed", string_of_int ctx.failed);
         ( "metrics",
           obj
             (List.map
                (fun (n, u) ->
                  let v = List.assoc n values in
                  (n, obj [ ("value", json_num (if Float.is_finite v then v else 0.)); ("unit", json_str u) ]))
                units) );
       ]);
  exit (if correct then 0 else 1)
