(* The dlopen-chain inputs: seeded synthetic modules, the main program
   that calls into them, and an OCaml reference model of what main must
   print.  The model is the oracle, so a compiler, loader or PLT bug
   that changes the arithmetic cannot hide behind its own output.

   Every module defines int(int) and int(int,int) functions, all
   address-taken into local function-pointer arrays and called
   indirectly.  The two pointer types are the same in every module, so
   each load grows the equivalence classes earlier modules created. *)

let modulus = 65521
let sum_modulus = 1000003

type t = {
  k : int;
  us : (int * int) array;  (** u_i(x) = (x * a + b) mod 65521 *)
  vs : int array;  (** v_i(x, y) = (x + y * c) mod 65521 *)
}

let name m = Printf.sprintf "m%d" m.k

(* The seed deals the shapes (20-28 u functions, 8-16 v functions) to
   the modules from a fixed multiset, and draws every constant.  No
   branch depends on a constant, so the chain's instruction counts, and
   with them instr_ratio, are the same for every seed; the order in
   which the classes grow, and so the loads' work, is not. *)
let draw ~seed ~modules =
  let rng = Random.State.make [| seed; 0xd1 |] in
  let shapes = Stats.shuffle rng (List.init modules (fun k -> (20 + (k mod 9), 8 + (k * 4 mod 9)))) in
  List.mapi
    (fun k (nu, nv) ->
      {
        k;
        us = Array.init nu (fun _ -> (2 + Random.State.int rng 96, Random.State.int rng 1000));
        vs = Array.init nv (fun _ -> 2 + Random.State.int rng 96);
      })
    shapes

let source m =
  let b = Buffer.create 2048 in
  let p fmt = Printf.bprintf b fmt in
  let nu = Array.length m.us and nv = Array.length m.vs in
  Array.iteri (fun i (a, c) -> p "int m%d_u%d(int x) { return (x * %d + %d) %% %d; }\n" m.k i a c modulus) m.us;
  Array.iteri (fun i c -> p "int m%d_v%d(int x, int y) { return (x + y * %d) %% %d; }\n" m.k i c modulus) m.vs;
  p "int m%d_go(int n) {\n  int (*fu[%d])(int);\n  int (*fv[%d])(int, int);\n  int s;\n  int i;\n" m.k nu nv;
  Array.iteri (fun i _ -> p "  fu[%d] = m%d_u%d;\n" i m.k i) m.us;
  Array.iteri (fun i _ -> p "  fv[%d] = m%d_v%d;\n" i m.k i) m.vs;
  p "  s = %d;\n  for (i = 0; i < n; i = i + 1) {\n" m.k;
  p "    s = fu[i %% %d](s);\n    s = fv[i %% %d](s, i);\n  }\n  return s;\n}\n" nu nv;
  Buffer.contents b

(* main calls every module's entry [passes] times through the PLT, with
   a small varying argument so a call's cost is dominated by the
   cross-module transfer and the checks around it. *)
let passes = 150

let arg r = (r mod 7) + 1

let main_source ms =
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  List.iter (fun m -> p "extern int m%d_go(int n);\n" m.k) ms;
  p "int main() {\n  int s;\n  int r;\n  s = 0;\n  for (r = 0; r < %d; r = r + 1) {\n" passes;
  List.iter (fun m -> p "    s = (s + m%d_go(r %% 7 + 1)) %% %d;\n" m.k sum_modulus) ms;
  p "  }\n  print_int(s);\n  print_str(\"\\n\");\n  return 0;\n}\n";
  Buffer.contents b

let go m n =
  let s = ref m.k in
  for i = 0 to n - 1 do
    let a, c = m.us.(i mod Array.length m.us) in
    s := ((!s * a) + c) mod modulus;
    s := (!s + (i * m.vs.(i mod Array.length m.vs))) mod modulus
  done;
  !s

(* What main prints and how it exits, in the expected-file format. *)
let expected ms =
  let s = ref 0 in
  for r = 0 to passes - 1 do
    List.iter (fun m -> s := (!s + go m (arg r)) mod sum_modulus) ms
  done;
  Printf.sprintf "%d\nexit 0\n" !s
