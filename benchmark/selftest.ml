(* The benchmark's runtest rule: every workload at toy size (2 programs x
   1 pair, a 4-module chain, 20 updates per storm run), untraced and
   traced, with all of its oracles; then checks that the oracles, the
   storm's schedule check and the compare verdicts can fail.  Usage:
   selftest.exe EXPECTED_DIR *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("selftest: " ^ m); exit 1) fmt

let run ?(seed = 7) ?(size = Workloads.toy) ~trace ~expected_dir w =
  Workloads.run_workload { seed; seconds = 0.; trace; expected_dir; size } w

let () =
  let expected_dir = Sys.argv.(1) in
  let results =
    List.concat_map
      (fun trace ->
        List.map
          (fun w ->
            let r = run ~trace ~expected_dir w in
            if r.failed > 0 || r.attempted = 0 then
              fail "%s (trace %b): %d of %d failed: %s" w trace r.failed r.attempted (String.concat "; " r.errors);
            List.iter
              (fun (m : Table.metric) ->
                match List.assoc_opt m.name r.values with
                | None -> fail "%s: the run does not measure %s" w m.name
                | Some v when (not (Float.is_finite v)) || (m.bound <> None && v <= 0.) ->
                  fail "%s: %s reads %g" w m.name v
                | Some _ -> ())
              (if trace then Table.per_layer else Table.end_to_end);
            ((w, trace), r.values))
          Table.workload_names)
      [ false; true ]
  in
  let get w trace name = List.assoc name (List.assoc (w, trace) results) in
  (* exact counts: the instruction overhead is the same on both engines
     and under the storm's quiet runs, and the chain's does not depend on
     the seed *)
  let ratio w = get w false "instr_ratio" in
  List.iter
    (fun w ->
      if ratio w <> ratio "suite-byte" || ratio w <= 1. then
        fail "instr_ratio %s %.17g vs suite-byte %.17g" w (ratio w) (ratio "suite-byte"))
    [ "suite-threaded"; "update-storm" ];
  let chain = List.assoc "instr_ratio" (run ~seed:8 ~trace:false ~expected_dir "dlopen-chain").values in
  if chain <> ratio "dlopen-chain" then fail "dlopen-chain instr_ratio %.17g at seed 8, %.17g at 7" chain (ratio "dlopen-chain");
  let updates = get "update-storm" true "storm.updates" in
  if updates < 1. || updates > 40. then fail "storm.updates %g outside 1..40" updates;
  (* the output oracle bites: a wrong expected file is a failure *)
  let corrupt = "corrupt-expected" in
  if not (Sys.file_exists corrupt) then Sys.mkdir corrupt 0o755;
  List.iter
    (fun name ->
      Out_channel.with_open_bin (Filename.concat corrupt (name ^ ".out")) (fun oc -> output_string oc "0\nexit 0\n"))
    (Option.get Workloads.toy.programs);
  let r = run ~trace:false ~expected_dir:corrupt "suite-byte" in
  if r.failed <> 4 then fail "a wrong expected output gave %d failures, not 4" r.failed;
  (* a storm run that misses its schedule is measured again and never
     kept; a program with no kept storm run is a failure *)
  let r = run ~size:{ Workloads.toy with late_limit_us = 0. } ~trace:false ~expected_dir "update-storm" in
  let late = List.assoc "storm.late_runs" r.values and kept = List.assoc "run_ms" r.values in
  if r.failed <> 2 || late <> float_of_int (2 * Workloads.storm_tries) || kept <> 0. then
    fail "late storm runs: %d failures, %g late runs, run_ms %g" r.failed late kept;
  (* every per-layer metric names the end-to-end metric it moves, on
     workloads that exist *)
  List.iter
    (fun (m : Table.metric) ->
      if m.moves = [] then fail "%s moves nothing" m.name;
      List.iter
        (fun (e, ws) ->
          if Option.bind (Table.find e) (fun e -> e.bound) = None then fail "%s moves unknown %s" m.name e;
          List.iter (fun w -> if not (List.mem w Table.workload_names) then fail "%s: no workload %s" m.name w) ws)
        m.moves)
    Table.per_layer;
  (* quartiles match Python's statistics.quantiles(range(1, 11), n=4) *)
  if Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) <> (2.75, 5.5, 8.25) then fail "quartiles";
  let verdict name p c =
    let _, _, _, _, v = Compare.verdict (Option.get (Table.find name)) p c in
    v
  in
  let around x d = List.init 10 (fun i -> x +. (d *. float_of_int (i mod 3))) in
  let same x = List.init 10 (fun _ -> x) in
  List.iter
    (fun (name, p, c, want) ->
      if verdict name p c <> want then fail "%s: verdict %s, expected %s" name (verdict name p c) want)
    [
      ("run_ms", around 100. 1., around 80. 1., "gain");
      ("run_ms", around 100. 1., around 120. 1., "REGRESSION");
      ("run_ms", around 100. 1., List.init 10 (fun i -> if i mod 2 = 0 then 85. else 110.), "unresolved");
      ("run_ms", around 100. 1., around 101. 1., "no change");
      (* 13 ms of set-up may grow by its 0.02 s floor, not only by 10% *)
      ("setup_s", around 0.013 0.0001, around 0.025 0.0001, "no change");
      ("setup_s", around 0.013 0.0001, around 0.040 0.0001, "REGRESSION");
      (* an exact metric allows no change at all *)
      ("instr_ratio", same 1.108, same 1.108, "no change");
      ("instr_ratio", same 1.108, same 1.1080001, "REGRESSION");
    ];
  let runs failed =
    [ Json.Obj [ ("result", Json.Obj [ ("attempted", Json.Num 100.); ("failed", Json.Num failed) ]) ] ]
  in
  if Compare.fail_rate (runs 0.) <> 0. || Compare.fail_rate (runs 1.) <> 0.01 then fail "fail_rate";
  print_endline "benchmark selftest: ok"
