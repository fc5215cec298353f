type t = { n : int; a : float array }

let create n =
  if n < 0 then invalid_arg "Matrix.create: negative dimension";
  { n; a = Array.make (n * n) 0.0 }

let dim m = m.n

let check m i j =
  if i < 0 || i >= m.n || j < 0 || j >= m.n then
    invalid_arg "Matrix: index out of bounds"

let get m i j =
  check m i j;
  m.a.((i * m.n) + j)

let set m i j v =
  check m i j;
  m.a.((i * m.n) + j) <- v

let add_to m i j v =
  check m i j;
  m.a.((i * m.n) + j) <- m.a.((i * m.n) + j) +. v

let copy m = { n = m.n; a = Array.copy m.a }
let fill_zero m = Array.fill m.a 0 (Array.length m.a) 0.0

let storage m = m.a

type lu = { ln : int; lu : float array; perm : int array }

exception Singular of int

let lu_create n =
  if n < 0 then invalid_arg "Matrix.lu_create: negative dimension";
  { ln = n; lu = Array.make (n * n) 0.0; perm = Array.make n 0 }

let lu_factor_into m f =
  let n = m.n in
  if f.ln <> n then invalid_arg "Matrix.lu_factor_into: dimension mismatch";
  let a = f.lu and perm = f.perm in
  Array.blit m.a 0 a 0 (n * n);
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  for k = 0 to n - 1 do
    (* Partial pivoting: pick the largest magnitude in column k. *)
    let pivot_row = ref k in
    let pivot_mag = ref (abs_float a.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let mag = abs_float a.((i * n) + k) in
      if mag > !pivot_mag then begin
        pivot_mag := mag;
        pivot_row := i
      end
    done;
    if !pivot_mag < 1e-300 then raise (Singular k);
    if !pivot_row <> k then begin
      let r = !pivot_row in
      for j = 0 to n - 1 do
        let tmp = a.((k * n) + j) in
        a.((k * n) + j) <- a.((r * n) + j);
        a.((r * n) + j) <- tmp
      done;
      let tp = perm.(k) in
      perm.(k) <- perm.(r);
      perm.(r) <- tp
    end;
    let pivot = a.((k * n) + k) in
    for i = k + 1 to n - 1 do
      let factor = a.((i * n) + k) /. pivot in
      a.((i * n) + k) <- factor;
      if factor <> 0.0 then
        for j = k + 1 to n - 1 do
          a.((i * n) + j) <- a.((i * n) + j) -. (factor *. a.((k * n) + j))
        done
    done
  done

let lu_factor m =
  let f = lu_create m.n in
  lu_factor_into m f;
  f

type pivot_range = { mutable pivot_min : float; mutable pivot_max : float }

let empty_pivot_range () = { pivot_min = infinity; pivot_max = 0.0 }

(* Widen [r] by the pivot magnitudes of a completed factorisation — the
   U diagonal under partial pivoting. Their ratio is the cheap
   conditioning proxy the solver telemetry reports: a ratio near
   1/epsilon means the solve is running out of significant digits. *)
let widen_pivot_range r f =
  let n = f.ln in
  for i = 0 to n - 1 do
    let p = abs_float f.lu.((i * n) + i) in
    if p < r.pivot_min then r.pivot_min <- p;
    if p > r.pivot_max then r.pivot_max <- p
  done

let lu_solve_into f ~b ~x =
  let n = f.ln in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Matrix.lu_solve_into: dimension mismatch";
  (* Forward substitution on the permuted RHS. *)
  for i = 0 to n - 1 do
    let s = ref b.(f.perm.(i)) in
    for j = 0 to i - 1 do
      s := !s -. (f.lu.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s
  done;
  (* Backward substitution. *)
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (f.lu.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s /. f.lu.((i * n) + i)
  done

let lu_solve f b =
  let x = Array.make f.ln 0.0 in
  lu_solve_into f ~b ~x;
  x

let solve m b = lu_solve (lu_factor m) b

let mat_vec m v =
  if Array.length v <> m.n then invalid_arg "Matrix.mat_vec: dimension mismatch";
  Array.init m.n (fun i ->
      let s = ref 0.0 in
      for j = 0 to m.n - 1 do
        s := !s +. (m.a.((i * m.n) + j) *. v.(j))
      done;
      !s)
