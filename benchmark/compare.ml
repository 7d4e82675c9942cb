(* run.exe --compare PARENT.json CHANGE.json...: one row per workload and
   metric, each side's median and quartiles over its runs, and a verdict.

   A gain needs the change to win at least 9 of every 10 pairs (runs are
   paired in file order; ties count for neither side) and a median gap
   larger than the parent's own interquartile spread.  A regression is a
   median worse than the parent's by more than the metric's allowance:
   its bound times the parent's median, and never less than its floor.
   A metric whose spread is wider than that allowance, with neither
   verdict, is unresolved rather than unchanged.  A last row per
   workload compares fail_rate, failed over attempted operations across
   all of a side's runs: any increase is a regression. *)

(* A run set: what --out appends to, {"runs": [{"workload", "seed",
   "trace", "result"}, ...]}. *)
let runs path = match Json.member "runs" (Json.read_file path) with Some r -> Json.arr r | None -> []

let of_workload workload runs = List.filter (fun r -> Json.str (Json.get "workload" r) = workload) runs

let values runs ~traced name =
  List.filter_map
    (fun r ->
      if Json.num (Json.get "trace" r) <> traced then None
      else
        Option.map
          (fun m -> Json.num (Json.get "value" m))
          (Json.member name (Json.get "metrics" (Json.get "result" r))))
    runs

let fail_rate runs =
  let count key = List.fold_left (fun s r -> s +. Json.num (Json.get key (Json.get "result" r))) 0. runs in
  count "failed" /. Float.max 1. (count "attempted")

let verdict (m : Table.metric) parent change =
  let q1, pmed, q3 = Stats.quartiles parent and c1, cmed, c3 = Stats.quartiles change in
  let better a b = match m.better with Lower -> a < b | Higher -> a > b in
  let rec zip = function p :: ps, c :: cs -> (p, c) :: zip (ps, cs) | _ -> [] in
  let pairs = zip (parent, change) in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let losses = List.length (List.filter (fun (p, c) -> better p c) pairs) in
  let decisive n = pairs <> [] && 10 * n >= 9 * List.length pairs && Float.abs (cmed -. pmed) > q3 -. q1 in
  let worse = match m.better with Lower -> cmed -. pmed | Higher -> pmed -. cmed in
  let spread = Float.max (q3 -. q1) (c3 -. c1) in
  let v =
    if decisive wins then "gain"
    else
      match m.bound with
      | Some bound ->
        let allowed = Float.max (bound *. Float.abs pmed) m.floor in
        if worse > allowed then "REGRESSION" else if spread > allowed then "unresolved" else "no change"
      | None -> if decisive losses then "worse" else "-"
  in
  ((q1, pmed, q3), (c1, cmed, c3), wins, List.length pairs, v)

let run parent_path change_paths =
  let parent = runs parent_path in
  let regressions = ref 0 in
  List.iter
    (fun change_path ->
      let change = runs change_path in
      Printf.printf "%s -> %s\n%-15s %-32s %27s %27s %7s  %s\n" parent_path change_path "workload" "metric"
        "parent median [q1, q3]" "change median [q1, q3]" "wins" "verdict";
      List.iter
        (fun workload ->
          let parent = of_workload workload parent and change = of_workload workload change in
          List.iter
            (fun (m : Table.metric) ->
              let traced = if m.bound = None then 1. else 0. in
              match (values parent ~traced m.name, values change ~traced m.name) with
              | [], _ | _, [] -> ()
              | p, c ->
                let (q1, pm, q3), (c1, cm, c3), wins, pairs, v = verdict m p c in
                if v = "REGRESSION" then incr regressions;
                Printf.printf "%-15s %-32s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %3d/%-3d  %s\n" workload
                  (m.name ^ " (" ^ m.unit_ ^ ")") pm q1 q3 cm c1 c3 wins pairs v)
            (Table.end_to_end @ Table.per_layer);
          if parent <> [] && change <> [] then begin
            let p = fail_rate parent and c = fail_rate change in
            if c > p then incr regressions;
            Printf.printf "%-15s %-32s %27.4g %27.4g %7s  %s\n" workload "fail_rate (ratio)" p c ""
              (if c > p then "REGRESSION" else "no change")
          end)
        Table.workload_names)
    change_paths;
  !regressions = 0
