(* Order statistics shared by the workloads and the compare mode, and the
   seeded shuffle the workloads draw their orders with. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* The three quartiles exactly as Python's [statistics.quantiles(v, n=4)]
   computes them (its default "exclusive" method), so the spreads this
   benchmark reports are the ones a reader recomputes from the JSON. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let geomean l =
  exp (List.fold_left (fun s x -> s +. log x) 0. l /. float_of_int (List.length l))

(* Fisher-Yates over [l], drawing from [rng]. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
