(* perfbench: runs one named workload from a seed and prints its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics; the line before it carries
   the host label, the output fingerprint and the run's shape. *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" Perfbench.Runs.workloads
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: tl when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) tl
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if not (List.mem workload Perfbench.Runs.workloads) || seconds < 1 then usage ();
  let units = Perfbench.Runs.units_for ~workload ~seconds in
  let o = Perfbench.Runs.run ~workload ~seed ~units ~trace in
  let cores = Domain.recommended_domain_count () in
  let spans =
    if trace then begin
      let dir = ".bench_build" in
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf "%s/perfbench-%s-seed%d.spans.jsonl" dir workload seed in
      Perfbench.Ledger.write_spans path;
      [ ("spans", Perfbench.Runs.json_string path) ]
    end
    else []
  in
  let field (k, v) = Perfbench.Runs.json_string k ^ ": " ^ v in
  print_endline
    ("{"
    ^ String.concat ", "
        (List.map field
           ([
              ("workload", Perfbench.Runs.json_string workload);
              ("seed", string_of_int seed);
              ("seconds", string_of_int seconds);
              ("trace", if trace then "1" else "0");
              ("host_cores", string_of_int cores);
              ("ocaml", Perfbench.Runs.json_string Sys.ocaml_version);
              ( "host_label",
                Perfbench.Runs.json_string
                  (if cores <= 2 then
                     "<=2-core host: the parallel engine's wall-clock payoff is not measured"
                   else "multi-core host") );
            ]
           @ o.info @ spans))
    ^ "}");
  let number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0" in
  print_endline
    (Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
       o.correct o.attempted o.failed
       (String.concat ", "
          (List.map
             (fun (mt : Perfbench.Runs.metric) ->
               Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
                 (Perfbench.Runs.json_string mt.name) (number mt.value)
                 (Perfbench.Runs.json_string mt.unit_))
             o.metrics)))
