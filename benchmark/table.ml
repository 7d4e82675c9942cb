(* The benchmark's single metric table.  It drives what a run emits, the
   compare mode's bounds and directions, BENCHMARK.json and table.json:
   both files are generated from this table (see [benchmark_json] and
   [table_json]) and the runtest rule fails when a committed copy drifts
   from it.  README.md describes each metric. *)

let command = [ "bash"; "benchmark/run.sh" ]
let traced_command = command @ [ "--trace"; "1" ]
let paths = [ "benchmark" ]
let run_seconds = 20
let default_seed = 1

let workloads =
  [
    ( "suite-byte",
      "Fig. 5 on the reference byte engine: per-instruction fetch/decode and inline table reads; \
       loader, verifier and CFG work once per start" );
    ( "suite-threaded",
      "Fig. 5 on the same inputs under threaded dispatch: fused checks go through the hoisted-read \
       cache, which isolates dispatch cost from table cost" );
    ( "dlopen-chain",
      "64 seeded modules loaded one by one into fresh processes: loader, verifier, CFG merge and \
       delta installs dominate and the machine barely runs" );
    ( "update-storm",
      "Fig. 6: the suite on threaded dispatch while a second domain refreshes the live tables at \
       10 kHz, so checks meet table writes and hoist misses" );
  ]

let workload_names = List.map fst workloads

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
      (** end-to-end metrics only: allowed worsening, as a share of the
          parent's median; 0 means the value must not change *)
  floor : float;  (** the allowed worsening is never below this, in the metric's unit *)
  moves : (string * string list) list;  (** per-layer metrics only: the end-to-end metric it moves, on which workloads *)
}

let all_w = workload_names
let suites = [ "suite-byte"; "suite-threaded" ]
let programs_w = [ "suite-byte"; "suite-threaded"; "update-storm" ]
let storm_w = [ "update-storm" ]

let e2e ?(floor = 0.) name unit_ bound = { name; unit_; better = Lower; bound = Some bound; floor; moves = [] }

let layer ?(better = Lower) name unit_ moves = { name; unit_; better; bound = None; floor = 0.; moves }

let end_to_end =
  [
    e2e "setup_s" "s" 0.10 ~floor:0.02;
    e2e "startup_ms" "ms" 0.10;
    e2e "run_ms" "ms" 0.10;
    e2e "overhead_ratio" "ratio" 0.03;
    e2e "instr_ratio" "ratio" 0.;
    e2e "load_ms_p50" "ms" 0.10;
    e2e "load_ms_p90" "ms" 0.10;
    e2e "update_us_p50" "us" 0.10;
    e2e "update_us_p75" "us" 0.10;
  ]

let setup = [ ("setup_s", all_w) ]
let startup = [ ("startup_ms", programs_w) ]
let loads = [ ("startup_ms", programs_w); ("load_ms_p50", all_w); ("load_ms_p90", all_w) ]
let run_on w = [ ("run_ms", w) ]
let instr = [ ("instr_ratio", all_w) ]
let updates = [ ("update_us_p50", all_w); ("update_us_p75", all_w) ]
let storm_ratio = [ ("overhead_ratio", storm_w) ]
let storm = storm_ratio @ [ ("update_us_p50", storm_w); ("update_us_p75", storm_w) ]

let dispatch_keys =
  [
    "fused_check_jmp"; "fused_check_call"; "fused_pop_check_jmp"; "fused_cmp_jcc"; "fused_cmpi_jcc";
    "fused_masked_store"; "hoist_hits"; "hoist_misses"; "hoist_refills"; "predecodes"; "invalidations";
  ]

let per_layer =
  [
    layer "minic.frontend_ms" "ms" setup;
    layer "compiler.codegen_ms" "ms" setup;
    layer "instrument.rewrite_ms" "ms" setup;
    layer "instrument.code_bytes_ratio" "ratio" [ ("overhead_ratio", suites); ("instr_ratio", programs_w) ];
    layer "runtime.process_create_ms" "ms" startup;
    layer "runtime.load_ms" "ms" loads;
    layer "vmisa.assemble_ms" "ms" loads;
    layer "verifier.verify_ms" "ms" loads;
    layer "cfg.gen_ms" "ms" loads;
    layer "runtime.load_rest_ms" "ms" loads;
    layer "runtime.machine.run_ms" "ms" (run_on all_w);
    layer "runtime.machine.base_run_ms" "ms" [ ("overhead_ratio", all_w) ];
    layer "runtime.machine.steps" "count" (run_on all_w @ instr);
    layer "runtime.machine.base_steps" "count" ([ ("overhead_ratio", all_w) ] @ instr);
    layer "runtime.machine.extra_steps" "count" [ ("overhead_ratio", all_w) ];
    layer "runtime.machine.ns_per_step" "ns" (run_on all_w);
  ]
  @ List.map
      (fun k ->
        let better = if k = "hoist_hits" || String.starts_with ~prefix:"fused" k then Higher else Lower in
        layer ~better ("runtime.machine." ^ k) "count"
          (run_on [ "suite-threaded" ] @ if String.starts_with ~prefix:"hoist" k then storm_ratio else []))
      dispatch_keys
  @ [
      layer ~better:Higher "runtime.machine.hoist_hit_ratio" "ratio" (run_on [ "suite-threaded" ] @ storm_ratio);
      layer "idtables.check_hoisted_ns" "ns" (run_on [ "suite-threaded" ]);
      layer "idtables.read_pair_ns" "ns" (run_on [ "suite-byte" ]);
      layer "idtables.refresh_us" "us" updates;
      layer "idtables.update_us_p90" "us" updates;
      layer "idtables.update_us_p99" "us" updates;
      layer "idtables.quiesce_events" "count" storm;
      layer "idtables.installs" "count" startup;
      layer "cfg.ibs" "count" (run_on all_w);
      layer "cfg.ibts" "count" loads;
      layer "cfg.eqcs" "count" loads;
      layer ~better:Higher "storm.updates" "count" storm;
      layer "storm.lateness_us_p99" "us" storm;
      layer "storm.late_runs" "count" storm;
    ]

let find name = List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)

let better_name = function Lower -> "lower" | Higher -> "higher"

let strs l = Json.Arr (List.map (fun s -> Json.Str s) l)

let entry m =
  [ ("name", Json.Str m.name); ("unit", Str m.unit_); ("better", Str (better_name m.better)) ]
  @ match m.bound with Some b -> [ ("bound", Json.Num b) ] | None -> []

(* One entry per line, so a drift shows as a readable diff. *)
let block key lines =
  Printf.sprintf "  %S: [\n    %s\n  ]" key (String.concat ",\n    " (List.map Json.to_string lines))

let file fields = "{\n" ^ String.concat ",\n" fields ^ "\n}\n"

(* BENCHMARK.json: the keys of the repository benchmark format, and no
   others. *)
let benchmark_json () =
  file
    [
      "  \"command\": " ^ Json.to_string (strs command);
      "  \"paths\": " ^ Json.to_string (strs paths);
      Printf.sprintf "  \"run_seconds\": %d" run_seconds;
      block "workloads" (List.map (fun (n, why) -> Json.Obj [ ("name", Str n); ("why", Str why) ]) workloads);
      block "end_to_end" (List.map (fun m -> Json.Obj (entry m)) end_to_end);
      block "per_layer" (List.map (fun m -> Json.Obj (entry m)) per_layer);
    ]

(* benchmark/table.json: what the table holds beyond BENCHMARK.json's
   keys: the traced command, the default seed, the bounds' floors and the
   end-to-end metric each per-layer metric moves, on which workloads. *)
let table_json () =
  file
    [
      "  \"traced_command\": " ^ Json.to_string (strs traced_command);
      Printf.sprintf "  \"default_seed\": %d" default_seed;
      block "end_to_end" (List.map (fun m -> Json.Obj (entry m @ [ ("floor", Num m.floor) ])) end_to_end);
      block "per_layer"
        (List.map
           (fun m ->
             Json.Obj
               (entry m
               @ [ ("moves", Obj (List.map (fun (e, ws) -> (e, strs ws)) m.moves)) ]))
           per_layer);
    ]
