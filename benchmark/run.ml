(* The benchmark's command line.

     run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
             [--trace-out FILE] [--out FILE] [--expected DIR]
     run.exe --compare PARENT.json CHANGE.json...
     run.exe --benchmark-json | --table-json

   Without --workload every workload runs in turn.  Each workload prints
   its metrics by name with their units, then one JSON line; the last
   line of standard output is always a JSON object.  --trace 1 gives the
   traced run: per-layer metrics instead of end-to-end ones, and the
   spans of every workload written to --trace-out when the run ends.
   --out appends the results to a run set that --compare reads.
   --benchmark-json and --table-json print the files generated from the
   metric table.  Exit status: 0 when every output was correct,
   1 on any correctness failure, 2 on a usage or set-up error.  Run it
   from the repository root (benchmark/run.sh does). *)

let usage () =
  prerr_endline
    "usage: run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--out FILE] \
     [--expected DIR]\n       run.exe --compare PARENT.json CHANGE.json...\n       run.exe --benchmark-json | --table-json";
  exit 2

let result_json (r : Workloads.result) ~traced =
  let section = if traced then Table.per_layer else Table.end_to_end in
  Json.Obj
    [
      ("correct", Bool (r.failed = 0));
      ("attempted", Num (float_of_int r.attempted));
      ("failed", Num (float_of_int r.failed));
      ( "metrics",
        Obj
          (List.map
             (fun (m : Table.metric) ->
               (m.name, Json.Obj [ ("value", Num (List.assoc m.name r.values)); ("unit", Str m.unit_) ]))
             section) );
    ]

let append_run path entry =
  let runs = if Sys.file_exists path then Compare.runs path else [] in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string (Json.Obj [ ("runs", Arr (runs @ [ entry ])) ]));
      output_char oc '\n')

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--benchmark-json" ] -> print_string (Table.benchmark_json ())
  | [ "--table-json" ] -> print_string (Table.table_json ())
  | "--compare" :: parent :: (_ :: _ as changes) -> exit (if Compare.run parent changes then 0 else 1)
  | _ ->
    let workload = ref None and seed = ref Table.default_seed and seconds = ref (float_of_int Table.run_seconds) in
    let trace = ref false and trace_out = ref None and out = ref None and expected = ref "benchmark/expected" in
    let rec parse = function
      | "--workload" :: w :: rest when List.mem w Table.workload_names -> workload := Some w; parse rest
      | "--seed" :: n :: rest when int_of_string_opt n <> None -> seed := int_of_string n; parse rest
      | "--seconds" :: s :: rest when float_of_string_opt s <> None -> seconds := float_of_string s; parse rest
      | "--trace" :: (("0" | "1") as t) :: rest -> trace := t = "1"; parse rest
      | "--trace-out" :: f :: rest -> trace_out := Some f; parse rest
      | "--out" :: f :: rest -> out := Some f; parse rest
      | "--expected" :: d :: rest -> expected := d; parse rest
      | [] -> ()
      | _ -> usage ()
    in
    parse args;
    let cfg =
      { Workloads.seed = !seed; seconds = !seconds; trace = !trace; expected_dir = !expected; size = Workloads.full }
    in
    let names = match !workload with Some w -> [ w ] | None -> Table.workload_names in
    let results =
      List.map
        (fun name ->
          let t0 = Trace.now () in
          let r =
            try Workloads.run_workload cfg name
            with e ->
              Printf.eprintf "%s: set-up failed: %s\n%!" name (Printexc.to_string e);
              exit 2
          in
          let traced = !trace in
          Printf.printf "# %s seed=%d seconds=%g trace=%d: %d attempted, %d failed, %.1f s\n" name !seed !seconds
            (Bool.to_int traced) r.attempted r.failed (Trace.now () -. t0);
          List.iter (Printf.printf "#   FAIL %s\n") r.errors;
          List.iter
            (fun (m : Table.metric) ->
              Printf.printf "%-15s %-32s %14.6g %s\n" name m.name (List.assoc m.name r.values) m.unit_)
            (if traced then Table.per_layer else Table.end_to_end);
          let json = result_json r ~traced in
          Option.iter
            (fun path ->
              append_run path
                (Json.Obj
                   [
                     ("workload", Str name);
                     ("seed", Num (float_of_int !seed));
                     ("trace", Num (float_of_int (Bool.to_int traced)));
                     ("result", json);
                   ]))
            !out;
          print_endline (Json.to_string json);
          r)
        names
    in
    if !trace then begin
      let path =
        match !trace_out with
        | Some f -> f
        | None ->
          Printf.sprintf ".bench_build/trace-%s-seed%d.json" (Option.value !workload ~default:"all") !seed
      in
      mkdir_p (Filename.dirname path);
      Trace.write path
        ~header:
          [
            ("workloads", Arr (List.map (fun n -> Json.Str n) names));
            ("seed", Num (float_of_int !seed));
            ("clock", Str "monotonic, ns");
          ];
      Printf.eprintf "trace: %s\n" path
    end;
    let failed = List.exists (fun (r : Workloads.result) -> r.failed > 0) results in
    exit (if failed then 1 else 0)
