(* The four workloads.  Each one measures the system from outside, by
   timing calls into public functions (Pipeline, Process, Machine, Tx,
   Tables, Asm, Verifier) and reading their always-on accessors; nothing
   inside the system is instrumented for the benchmark. *)

module Process = Mcfi_runtime.Process
module Machine = Mcfi_runtime.Machine
module Objfile = Mcfi_compiler.Objfile
module Pipeline = Mcfi.Pipeline
module Tx = Idtables.Tx
module Tables = Idtables.Tables

(* How much work a run does.  The full size measures for the run's
   seconds; the runtest rule runs every workload at [toy] size. *)
type size = {
  programs : string list option;  (** suite programs; [None] = all twelve *)
  modules : int;  (** dlopen-chain modules per chain *)
  rounds : int option;  (** [Some n]: exactly n rounds; [None]: until the deadline *)
  max_updates : int;  (** storm updates per storm run *)
  late_limit_us : float;  (** a storm run whose lateness p99 exceeds this is invalid *)
}

let full = { programs = None; modules = 64; rounds = None; max_updates = max_int; late_limit_us = 1000. }

(* A toy storm run has 20 updates, so its p99 is its latest update: the
   toy size keeps every run, whatever the host's load. *)
let toy =
  {
    programs = Some [ "perlite"; "sjeng_mini" ];
    modules = 4;
    rounds = Some 1;
    max_updates = 20;
    late_limit_us = infinity;
  }

type config = { seed : int; seconds : float; trace : bool; expected_dir : string; size : size }

type result = {
  attempted : int;
  failed : int;
  errors : string list;
  values : (string * float) list;  (** every metric of the table this run measured *)
}

(* ---- run state: samples per (metric, item) and the failure tally ---- *)

type st = {
  cfg : config;
  workload : string;
  samples : (string * string, float list ref) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable setup_s : float;
  mutable round_loads : float list;  (** measured load latencies of the current round, ms *)
  mutable round_updates : float list;  (** update latencies of the current round, us *)
  mutable late : bool;  (** the last storm run missed its schedule *)
  order : Random.State.t;  (** program order per round *)
}

let add st metric item v =
  match Hashtbl.find_opt st.samples (metric, item) with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add st.samples (metric, item) (ref [ v ])

(* Sorted by item, so a sum or a geometric mean adds its terms in the
   same order whatever order the rounds ran the items in: exact counts
   then give bit-identical results. *)
let per_item st metric =
  List.sort compare (Hashtbl.fold (fun (m, item) r acc -> if m = metric then (item, !r) :: acc else acc) st.samples [])

(* Each item (program, module) contributes its median over repetitions;
   sums add those medians.  Metrics with no samples read 0. *)
let sum_medians st metric =
  List.fold_left (fun s (_, l) -> s +. Stats.median l) 0. (per_item st metric)

let pooled st metric = List.concat_map snd (per_item st metric)

let pct st p metric = match pooled st metric with [] -> 0. | l -> Stats.percentile p l

let geomean_medians st metric =
  match per_item st metric with [] -> 0. | l -> Stats.geomean (List.map (fun (_, l) -> Stats.median l) l)

(* Geometric mean over items of median [num] / median [den]. *)
let geomean_ratio st num den =
  match
    List.filter_map
      (fun (item, l) -> Option.map (fun d -> Stats.median l /. Stats.median !d) (Hashtbl.find_opt st.samples (den, item)))
      (per_item st num)
  with
  | [] -> 0.
  | l -> Stats.geomean l

let check st ok msg =
  st.attempted <- st.attempted + 1;
  if not ok then begin
    st.failed <- st.failed + 1;
    if List.length st.errors < 20 then st.errors <- msg () :: st.errors
  end

let pass st = st.attempted <- st.attempted + 1

(* ---- set-up ---- *)

(* Eleven toolchain passes, timed, each from a collected heap; the first
   pass's objects are used.  A suite pass takes about 9 ms, so the
   median needs many of them to hold still from run to run. *)
let setup st build =
  let first = ref None in
  let times =
    List.init 11 (fun _ ->
        Gc.full_major ();
        let v, s = Trace.timed "setup.pass" build in
        if !first = None then first := Some v;
        s)
  in
  st.setup_s <- Stats.median times;
  Option.get !first

let base = Vmisa.Abi.code_base

(* A standalone layout of one object, every external symbol resolved to
   a placeholder: the assembler's and the verifier's work on that object
   without the loader around them. *)
let assemble obj =
  Vmisa.Asm.assemble ~base ~resolve_code:(fun _ -> Some base) ~resolve_data:(fun _ -> Some 16) obj.Objfile.o_items

let code_bytes obj = match assemble obj with Ok p -> String.length p.Vmisa.Asm.image | Error _ -> 0

(* Traced run only: the toolchain's layers over the workload's distinct
   sources, as compile_module and instrument see them. *)
let toolchain_layers st sources =
  let plain = ref 0 and instr = ref 0 in
  List.iter
    (fun (name, src) ->
      let _, fe = Trace.timed "minic.frontend" (fun () -> Minic.Typecheck.check (Minic.Parser.parse ~name src)) in
      let obj, cc = Trace.timed "compiler.compile_module" (fun () -> Pipeline.compile_module ~name src) in
      let iobj, rw = Trace.timed "instrument.rewrite" (fun () -> Pipeline.instrument obj) in
      add st "minic.frontend_ms" name (fe *. 1e3);
      add st "compiler.codegen_ms" name ((cc -. fe) *. 1e3);
      add st "instrument.rewrite_ms" name (rw *. 1e3);
      plain := !plain + code_bytes obj;
      instr := !instr + code_bytes iobj)
    sources;
  add st "instrument.code_bytes_ratio" "all" (float_of_int !instr /. float_of_int (max 1 !plain))

let with_libc_header (name, src) = (name, Suite.Libc.header ^ src)

(* ---- one process: create, load, run ---- *)

let outcome m reason =
  Machine.output m
  ^
  match reason with
  | Machine.Exited c -> Printf.sprintf "exit %d\n" c
  | r -> Format.asprintf "%a\n" Machine.pp_exit_reason r

(* [record]: this load is part of the measured configuration, so its
   latency counts toward the load percentiles and startup. *)
let load st ~item ~record proc obj =
  let cfg0 = Process.cfg_gen_time_ms proc in
  match Trace.timed "runtime.load" (fun () -> Process.load proc obj) with
  | exception e ->
    check st false (fun () -> Printf.sprintf "%s: loading %s failed: %s" item obj.Objfile.o_name (Printexc.to_string e));
    None
  | (), s ->
    pass st;
    let ms = s *. 1e3 in
    if record then begin
      add st "load" item ms;
      st.round_loads <- ms :: st.round_loads;
      if st.cfg.trace then begin
        let prog, asm = Trace.timed "vmisa.assemble" (fun () -> assemble obj) in
        let verdict, ver =
          match prog with
          | Ok prog ->
            Trace.timed "verifier.verify" (fun () ->
                Verifier.verify ~obj ~prog ~slot_base:0 ~slot_count:(List.length obj.o_sites) ())
          | Error _ -> (Error [], 0.)
        in
        check st (Result.is_ok verdict) (fun () -> Printf.sprintf "%s: standalone verify of %s failed" item obj.o_name);
        let cfg = Process.cfg_gen_time_ms proc -. cfg0 and asm = asm *. 1e3 and ver = ver *. 1e3 in
        add st "cfg.gen_ms" item cfg;
        add st "vmisa.assemble_ms" item asm;
        add st "verifier.verify_ms" item ver;
        add st "runtime.load_rest_ms" item (ms -. cfg -. asm -. ver)
      end
    end;
    Some ms

let launch st ~item ~instrumented ~record ?dispatch exe =
  (* every start begins from a collected heap, as a fresh OS process
     would; the collection is outside the timed calls *)
  Gc.full_major ();
  let proc, create = Trace.timed "runtime.process_create" (fun () -> Process.create ~instrumented ?dispatch ()) in
  match load st ~item ~record proc exe with
  | None -> None
  | Some load_ms ->
    if record then begin
      add st "startup" item ((create *. 1e3) +. load_ms);
      add st "runtime.process_create_ms" item (create *. 1e3)
    end;
    Some proc

(* Runs the started process under [during] and checks what it printed
   and how it exited; returns (run ms, steps) when correct. *)
let run st ~item ~expected ?(during = fun f -> f ()) proc =
  Process.start proc;
  let m = Process.machine proc in
  (* collect the garbage loading left behind, outside the timed run *)
  Gc.full_major ();
  let reason, s = during (fun () -> Trace.timed "runtime.machine.run" (fun () -> Machine.run m)) in
  let got = outcome m reason in
  check st (got = expected) (fun () -> Printf.sprintf "%s: printed %S, expected %S" item got expected);
  if got = expected then Some (s *. 1e3, float_of_int (Machine.steps m)) else None

(* Exact fingerprints of the loaded inputs, plus (traced) the table
   micro-probes over the process's live tables. *)
let after_load st ~item proc =
  add st "idtables.installs" item (float_of_int (Process.updates proc));
  Option.iter
    (fun (s : Cfg.Cfggen.stats) ->
      add st "cfg.ibs" item (float_of_int s.n_ibs);
      add st "cfg.ibts" item (float_of_int s.n_ibts);
      add st "cfg.eqcs" item (float_of_int s.n_eqcs))
    (Process.cfg_stats proc);
  match Process.tables proc with
  | Some tables when st.cfg.trace ->
    (* passing (slot, target) pairs: a Bary slot and a Tary address that
       hold the identical ID *)
    let target = Hashtbl.create 1024 in
    List.iter (fun (addr, id) -> if not (Hashtbl.mem target id) then Hashtbl.add target id addr) (Tables.tary_entries tables);
    let pairs =
      Array.of_list
        (List.filter_map
           (fun (slot, id) -> Option.map (fun a -> (slot, a)) (Hashtbl.find_opt target id))
           (Tables.bary_entries tables))
    in
    let rng = Random.State.make [| st.cfg.seed; Hashtbl.hash item |] in
    let n = min 64 (Array.length pairs) in
    let pairs = Array.init n (fun _ -> pairs.(Random.State.int rng (Array.length pairs))) in
    if n > 0 then begin
      let reps = (20_000 / n) + 1 in
      let per_check s = s *. 1e9 /. float_of_int (reps * n) in
      let sites = Array.map (fun _ -> Tx.site ()) pairs in
      let passed = ref 0 in
      let (), s =
        Trace.timed "idtables.check_hoisted" (fun () ->
            for _ = 1 to reps do
              Array.iteri
                (fun i (slot, target) ->
                  if Tx.check_hoisted tables sites.(i) ~bary_index:slot ~target = Tx.Pass then incr passed)
                pairs
            done)
      in
      check st (!passed = reps * n) (fun () -> item ^ ": a sampled passing pair failed Tx.check_hoisted");
      add st "idtables.check_hoisted_ns" item (per_check s);
      let (), s =
        Trace.timed "idtables.read_pair" (fun () ->
            for _ = 1 to reps do
              Array.iter
                (fun (slot, target) ->
                  ignore (Sys.opaque_identity (Tables.bary_read tables slot, Tables.tary_read tables target)))
                pairs
            done)
      in
      add st "idtables.read_pair_ns" item (per_check s)
    end
  | _ -> ()

(* Off the storm, the update latency is that of back-to-back Tx.refresh
   probes on the process's live tables after its run. *)
let refresh_probes = 20

let after_run st ~item ~probe_refresh proc =
  let m = Process.machine proc in
  List.iter (fun (k, v) -> add st ("runtime.machine." ^ k) item (float_of_int v)) (Machine.dispatch_stats m);
  match Process.tables proc with
  | None -> ()
  | Some tables ->
    add st "idtables.quiesce_events" item (float_of_int (Tables.quiesce_events tables));
    if probe_refresh then
      for _ = 1 to refresh_probes do
        match Trace.timed "idtables.refresh" (fun () -> Tx.refresh tables) with
        | _, s ->
          pass st;
          st.round_updates <- (s *. 1e6) :: st.round_updates;
          add st "idtables.refresh_us" item (s *. 1e6)
        | exception e -> check st false (fun () -> item ^ ": Tx.refresh probe raised " ^ Printexc.to_string e)
      done

(* ---- the update storm ---- *)

let storm_hz = 10_000.
let storm_capacity = 200_000

type storm = { due : float array; start : float array; stop : float array; phase : float }

let storm_buffers ~seed =
  let a () = Array.make storm_capacity 0. in
  let phase = Random.State.float (Random.State.make [| seed; 0x5707 |]) (1. /. storm_hz) in
  { due = a (); start = a (); stop = a (); phase }

(* Runs in the second domain: one Tx.refresh per due time on a fixed
   schedule, sleeping until each due time and never spinning.  Returns
   (updates issued, updates that raised). *)
let storm_loop b tables ~max_updates ~halt =
  let t0 = Trace.now () +. b.phase in
  let rec go n failed =
    if Atomic.get halt || n >= max_updates || n >= storm_capacity then (n, failed)
    else begin
      let due = t0 +. (float_of_int n /. storm_hz) in
      let wait = due -. Trace.now () in
      if wait > 0. then Unix.sleepf wait;
      if Atomic.get halt then (n, failed)
      else begin
        let s = Trace.now () in
        let ok = match Tx.refresh tables with _ -> true | exception _ -> false in
        b.due.(n) <- due;
        b.start.(n) <- s;
        b.stop.(n) <- Trace.now ();
        go (n + 1) (if ok then failed else failed + 1)
      end
    end
  in
  go 0 0

(* Traced runs keep the first updates of each storm run as spans; the
   per-layer numbers use every update of the runs that kept their
   schedule. *)
let storm_spans = 64

let with_storm st b ~item tables f =
  let halt = Atomic.make false in
  let d = Domain.spawn (fun () -> storm_loop b tables ~max_updates:st.cfg.size.max_updates ~halt) in
  let joined = ref (0, 0) in
  let v =
    Fun.protect f ~finally:(fun () ->
        Atomic.set halt true;
        joined := Domain.join d)
  in
  let n, failed = !joined in
  let late = List.init n (fun i -> (b.start.(i) -. b.due.(i)) *. 1e6) in
  List.iter (add st "storm.lateness_us" item) late;
  (* a run the generator could not drive on schedule is invalid: it is
     counted, and its pair is measured again *)
  st.late <- late <> [] && Stats.percentile 0.99 late > st.cfg.size.late_limit_us;
  if st.late then add st "storm.late_runs" item 1.
  else begin
    for i = 0 to n - 1 do
      st.round_updates <- ((b.stop.(i) -. b.due.(i)) *. 1e6) :: st.round_updates;
      add st "idtables.refresh_us" item ((b.stop.(i) -. b.start.(i)) *. 1e6);
      if i < storm_spans then Trace.add "idtables.refresh" ~t0:b.start.(i) ~t1:b.stop.(i)
    done;
    add st "storm.updates" item (float_of_int n)
  end;
  st.attempted <- st.attempted + n;
  check st (failed = 0) (fun () -> Printf.sprintf "%s: %d storm updates raised" item failed);
  v

(* ---- rounds ---- *)

(* A round is one pass over the workload's programs (or one chain).  The
   load and update latency quantiles are taken per round, over that
   round's loads and updates, and reported as their median over rounds:
   every round does the same work, so its quantiles are comparable from
   round to round, and a round that met a host stall does not move the
   median.  A round starts only if one more round as long as the last
   still ends by the deadline, so a run measures no longer than its
   seconds, unless its first round alone takes longer. *)
let rounds st f =
  let deadline = Trace.now () +. st.cfg.seconds in
  let rec go r =
    let t0 = Trace.now () in
    st.round_loads <- [];
    st.round_updates <- [];
    f r;
    let quantiles l ps = if l <> [] then List.iter (fun (name, p) -> add st name "round" (Stats.percentile p l)) ps in
    quantiles st.round_loads [ ("load_p50", 0.5); ("load_p90", 0.9) ];
    quantiles st.round_updates [ ("update_p50", 0.5); ("update_p75", 0.75); ("update_p90", 0.9); ("update_p99", 0.99) ];
    let now = Trace.now () in
    let more = match st.cfg.size.rounds with Some n -> r + 1 < n | None -> now +. (now -. t0) <= deadline in
    if more then go (r + 1)
  in
  go 0

(* One measured run and one control run of the same program, in an
   order that alternates per round so slow drift hits both sides. *)
let pair st ~round ~item ~measured ~control =
  Trace.with_span "pair" (fun () ->
      let m, c =
        if round mod 2 = 0 then
          let m = measured () in
          (m, control ())
        else
          let c = control () in
          (measured (), c)
      in
      match (m, c) with
      | Some (mr, ms), Some (cr, cs) when not st.late ->
        add st "run" item mr;
        add st "base_run" item cr;
        add st "ratio" item (mr /. cr);
        add st "steps" item ms;
        add st "base_steps" item cs
      | _ -> ())

let request st ~round item = Trace.set_request (Printf.sprintf "%s/%s/%d" st.workload item round)

(* How often a pair whose storm run missed its schedule is measured, at
   most, in one round. *)
let storm_tries = 5

(* suite-byte, suite-threaded and update-storm: the twelve suite
   programs, linked once; every run is a fresh process.  The suites pair
   an instrumented run with a plain one, update-storm a storm run with a
   quiet one. *)
let suite st ~dispatch ~storm =
  let benches =
    List.filter
      (fun (b : Suite.Programs.benchmark) ->
        match st.cfg.size.programs with None -> true | Some l -> List.mem b.name l)
      Suite.Programs.all
  in
  let expected =
    List.map
      (fun (b : Suite.Programs.benchmark) ->
        (b.name, In_channel.with_open_bin (Filename.concat st.cfg.expected_dir (b.name ^ ".out")) In_channel.input_all))
      benches
  in
  let progs =
    setup st (fun () ->
        List.map
          (fun (b : Suite.Programs.benchmark) ->
            let sources = [ (b.name, b.source) ] in
            (b.name, Pipeline.link_executable ~sources (), Pipeline.link_executable ~instrumented:false ~sources ()))
          benches)
  in
  if st.cfg.trace then
    toolchain_layers st
      (("libc", Suite.Libc.source)
      :: List.map (fun (b : Suite.Programs.benchmark) -> with_libc_header (b.name, b.source)) benches);
  let plain ~item ~expected exe =
    Option.bind (launch st ~item ~instrumented:false ~record:false ~dispatch exe) (run st ~item ~expected)
  in
  let storm = if storm then Some (storm_buffers ~seed:st.cfg.seed) else None in
  (* update-storm's instr_ratio divides its quiet runs' steps by plain
     ones, counted once per program before the rounds *)
  if Option.is_some storm then
    List.iter
      (fun (item, _, plain_exe) ->
        Option.iter (fun (_, steps) -> add st "plain_steps" item steps) (plain ~item ~expected:(List.assoc item expected) plain_exe))
      progs;
  Gc.compact ();
  rounds st (fun round ->
      List.iter
        (fun (item, exe, plain_exe) ->
          let expected = List.assoc item expected in
          request st ~round item;
          let start () = launch st ~item ~instrumented:true ~record:true ~dispatch exe in
          let measured () =
            Option.bind (start ()) (fun proc ->
                after_load st ~item proc;
                let during = Option.map (fun b -> with_storm st b ~item (Option.get (Process.tables proc))) storm in
                let r = run st ~item ~expected ?during proc in
                after_run st ~item ~probe_refresh:(Option.is_none storm) proc;
                r)
          in
          let control () =
            if Option.is_some storm then Option.bind (start ()) (run st ~item ~expected) else plain ~item ~expected plain_exe
          in
          let rec attempt tries =
            st.late <- false;
            pair st ~round ~item ~measured ~control;
            if st.late && tries > 1 then attempt (tries - 1)
          in
          attempt storm_tries)
        (Stats.shuffle st.order progs));
  if Option.is_some storm then
    List.iter
      (fun (item, _, _) ->
        check st (Hashtbl.mem st.samples ("run", item)) (fun () -> item ^ ": no storm run kept its schedule"))
      progs

(* dlopen-chain: each round is a fresh process that loads main and then
   every module with Process.load, runs main, and is checked by the
   differential CFG oracle; the control is the same code linked
   statically into one executable. *)
let dlopen_chain st =
  let modules = Chain.draw ~seed:st.cfg.seed ~modules:st.cfg.size.modules in
  let sources = List.map (fun m -> (Chain.name m, Chain.source m)) modules in
  let main = ("main", Chain.main_source modules) in
  let expected = Chain.expected modules in
  let exe, objs, static =
    setup st (fun () ->
        let exe = Pipeline.link_executable ~sources:[ main ] ~dynamic:sources () in
        let objs = List.map (fun (name, src) -> Pipeline.instrument (Pipeline.compile_module ~name src)) sources in
        (exe, objs, Pipeline.link_executable ~sources:(main :: sources) ()))
  in
  if st.cfg.trace then toolchain_layers st ((("libc", Suite.Libc.source) :: [ with_libc_header main ]) @ sources);
  Gc.compact ();
  rounds st (fun round ->
      let item = "main" in
      request st ~round item;
      let measured () =
        Option.bind (launch st ~item ~instrumented:true ~record:true exe) (fun proc ->
            let loaded =
              List.for_all (fun obj -> load st ~item:obj.Objfile.o_name ~record:true proc obj <> None) objs
            in
            if not loaded then None
            else begin
              after_load st ~item proc;
              let r = run st ~item ~expected proc in
              (match Trace.with_span "runtime.oracle_check" (fun () -> Process.oracle_check proc) with
              | Ok () -> pass st
              | Error m -> check st false (fun () -> "dlopen-chain: oracle divergence: " ^ m));
              after_run st ~item ~probe_refresh:true proc;
              r
            end)
      in
      let control () =
        Option.bind (launch st ~item:"static" ~instrumented:true ~record:false static) (run st ~item ~expected)
      in
      pair st ~round ~item ~measured ~control)

(* ---- metrics ---- *)

let values st =
  let steps = sum_medians st "steps" and run_ms = sum_medians st "run" in
  let hits = sum_medians st "runtime.machine.hoist_hits" and misses = sum_medians st "runtime.machine.hoist_misses" in
  let instr_ratio =
    if st.workload = "update-storm" then geomean_ratio st "base_steps" "plain_steps"
    else geomean_ratio st "steps" "base_steps"
  in
  let median_pooled m = match pooled st m with [] -> 0. | l -> Stats.median l in
  [
    ("setup_s", st.setup_s);
    ("startup_ms", sum_medians st "startup");
    ("run_ms", run_ms);
    ("overhead_ratio", geomean_medians st "ratio");
    ("instr_ratio", instr_ratio);
    ("load_ms_p50", sum_medians st "load_p50");
    ("load_ms_p90", sum_medians st "load_p90");
    ("update_us_p50", sum_medians st "update_p50");
    ("update_us_p75", sum_medians st "update_p75");
    ("runtime.load_ms", sum_medians st "load");
    ("runtime.machine.run_ms", run_ms);
    ("runtime.machine.base_run_ms", sum_medians st "base_run");
    ("runtime.machine.steps", steps);
    ("runtime.machine.base_steps", sum_medians st "base_steps");
    ("runtime.machine.extra_steps", steps -. sum_medians st "base_steps");
    ("runtime.machine.ns_per_step", if steps > 0. then run_ms *. 1e6 /. steps else 0.);
    ("runtime.machine.hoist_hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
    ("idtables.check_hoisted_ns", median_pooled "idtables.check_hoisted_ns");
    ("idtables.read_pair_ns", median_pooled "idtables.read_pair_ns");
    ("idtables.refresh_us", median_pooled "idtables.refresh_us");
    ("idtables.update_us_p90", sum_medians st "update_p90");
    ("idtables.update_us_p99", sum_medians st "update_p99");
    ("storm.lateness_us_p99", pct st 0.99 "storm.lateness_us");
    ("storm.late_runs", List.fold_left ( +. ) 0. (pooled st "storm.late_runs"));
  ]
  @ List.map
      (fun name -> (name, sum_medians st name))
      ([
         "minic.frontend_ms"; "compiler.codegen_ms"; "instrument.rewrite_ms"; "instrument.code_bytes_ratio";
         "runtime.process_create_ms"; "vmisa.assemble_ms"; "verifier.verify_ms"; "cfg.gen_ms";
         "runtime.load_rest_ms"; "idtables.quiesce_events"; "idtables.installs"; "cfg.ibs"; "cfg.ibts";
         "cfg.eqcs"; "storm.updates";
       ]
      @ List.map (fun k -> "runtime.machine." ^ k) Table.dispatch_keys)

let run_workload cfg name =
  let st =
    {
      cfg;
      workload = name;
      samples = Hashtbl.create 256;
      attempted = 0;
      failed = 0;
      errors = [];
      setup_s = 0.;
      round_loads = [];
      round_updates = [];
      late = false;
      order = Random.State.make [| cfg.seed |];
    }
  in
  Trace.on := cfg.trace;
  Trace.set_request (name ^ "/setup/0");
  Gc.compact ();
  Trace.with_span name (fun () ->
      match name with
      | "suite-byte" -> suite st ~dispatch:Machine.Byte ~storm:false
      | "suite-threaded" -> suite st ~dispatch:Machine.Threaded ~storm:false
      | "update-storm" -> suite st ~dispatch:Machine.Threaded ~storm:true
      | "dlopen-chain" -> dlopen_chain st
      | w -> invalid_arg ("unknown workload " ^ w));
  { attempted = st.attempted; failed = st.failed; errors = List.rev st.errors; values = values st }
