module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component

(* A device with its node, branch-current, control and input indices
   resolved once at [build], so that stamping does no lookup. *)
type dev = {
  comp : Component.t;
  a : int;  (* positive node; -1 for ground *)
  b : int;  (* negative node; -1 for ground *)
  k : int;  (* branch-current unknown; -1 when the device has none *)
  cp : int;  (* controlling positive node of a Vccs/Vcvs; -1 otherwise *)
  cn : int;  (* controlling negative node of a Vccs/Vcvs; -1 otherwise *)
  slot : int;  (* input slot of an [Input] source; -1 otherwise *)
}

type t = {
  circuit : Circuit.t;
  devs : dev array;
  node_index : (string, int) Hashtbl.t;  (* non-ground nodes -> 0.. *)
  current_index : (string, int) Hashtbl.t;  (* device name -> unknown *)
  inputs : string array;  (* slot -> external input signal *)
  nnodes : int;
  size : int;
}

let needs_current_unknown (d : Component.t) =
  match d.kind with
  | Vsource _ | Inductor _ | Vcvs _ -> true
  | Resistor _ | Capacitor _ | Isource _ | Vccs _ | Pwl_conductance _ -> false

(* Node index, or -1 for ground. *)
let find_node node_index n =
  match Hashtbl.find_opt node_index n with Some i -> i | None -> -1

let build circuit =
  (match Circuit.validate circuit with
  | Ok () -> ()
  | Error msg -> invalid_arg ("System.build: " ^ msg));
  let ground = Circuit.ground circuit in
  let node_index = Hashtbl.create 16 in
  List.iteri
    (fun i n -> Hashtbl.add node_index n i)
    (List.filter (fun n -> n <> ground) (Circuit.nodes circuit));
  let nnodes = Hashtbl.length node_index in
  let devices = Array.of_list (Circuit.devices circuit) in
  let current_index = Hashtbl.create 8 in
  let next = ref nnodes in
  Array.iter
    (fun (d : Component.t) ->
      if needs_current_unknown d then begin
        Hashtbl.add current_index d.name !next;
        incr next
      end)
    devices;
  let slots = Hashtbl.create 4 in
  let slot = function
    | Component.Input u -> (
        match Hashtbl.find_opt slots u with
        | Some i -> i
        | None ->
            let i = Hashtbl.length slots in
            Hashtbl.add slots u i;
            i)
    | Component.Dc _ -> -1
  in
  let node = find_node node_index in
  let resolve (d : Component.t) =
    let k =
      match Hashtbl.find_opt current_index d.name with Some k -> k | None -> -1
    in
    let cp, cn, slot =
      match d.kind with
      | Vccs { ctrl_pos; ctrl_neg; _ } | Vcvs { ctrl_pos; ctrl_neg; _ } ->
          (node ctrl_pos, node ctrl_neg, -1)
      | Vsource src | Isource src -> (-1, -1, slot src)
      | Resistor _ | Capacitor _ | Inductor _ | Pwl_conductance _ -> (-1, -1, -1)
    in
    { comp = d; a = node d.pos; b = node d.neg; k; cp; cn; slot }
  in
  let devs = Array.map resolve devices in
  let inputs = Array.make (Hashtbl.length slots) "" in
  Hashtbl.iter (fun u i -> inputs.(i) <- u) slots;
  { circuit; devs; node_index; current_index; inputs; nnodes; size = !next }

let size s = s.size
let node_voltage_count s = s.nnodes
let has_pwl s = Circuit.has_pwl s.circuit

let inputs s = s.inputs
let nid s n = find_node s.node_index n

(* Value of unknown [i] (a node voltage), 0 for ground. *)
let[@inline] value state i = if i < 0 then 0.0 else state.(i)

(* Where the stamps go: the row-major storage of a dense matrix, or a
   triplet list for the sparse back-end. Both back-ends share the one
   device loop below. The target kind is a constant constructor and
   [add] is inlined into the loop, so a dense stamp goes through no
   closure and allocates nothing. *)
type _ target =
  | Dense : float array target
  | Triplets : (int * int * float) list ref target

let[@inline] add (type a) (tgt : a target) (into : a) n i j v =
  match tgt with
  | Dense -> into.((i * n) + j) <- into.((i * n) + j) +. v
  | Triplets -> into := (i, j, v) :: !into

let[@inline] stamp_conductance tgt into n i j g =
  if i >= 0 then add tgt into n i i g;
  if j >= 0 then add tgt into n j j g;
  if i >= 0 && j >= 0 then begin
    add tgt into n i j (-.g);
    add tgt into n j i (-.g)
  end

(* The +-1 incidence of branch current [k] on nodes [a] and [b]. *)
let[@inline] stamp_branch tgt into n a b k =
  if a >= 0 then begin
    add tgt into n a k 1.0;
    add tgt into n k a 1.0
  end;
  if b >= 0 then begin
    add tgt into n b k (-1.0);
    add tgt into n k b (-1.0)
  end

let stamp_into (type a) s ~h ~state (tgt : a target) (into : a) =
  let n = s.size in
  for i = 0 to Array.length s.devs - 1 do
    let { comp; a; b; k; cp; cn; _ } = s.devs.(i) in
    match comp.kind with
    | Resistor r -> stamp_conductance tgt into n a b (1.0 /. r)
    | Pwl_conductance { g_on; g_off; threshold } ->
        (* Region selected by the current solution estimate: the
           SPICE-like engine re-stamps at every pass, so the region
           follows the Newton iteration. *)
        let v = value state a -. value state b in
        stamp_conductance tgt into n a b (if v >= threshold then g_on else g_off)
    | Capacitor c -> stamp_conductance tgt into n a b (c /. h)
    | Isource _ -> ()
    | Vccs { gm; _ } ->
        if a >= 0 && cp >= 0 then add tgt into n a cp gm;
        if a >= 0 && cn >= 0 then add tgt into n a cn (-.gm);
        if b >= 0 && cp >= 0 then add tgt into n b cp (-.gm);
        if b >= 0 && cn >= 0 then add tgt into n b cn gm
    | Vsource _ -> stamp_branch tgt into n a b k
    | Vcvs { gain; _ } ->
        stamp_branch tgt into n a b k;
        if cp >= 0 then add tgt into n k cp (-.gain);
        if cn >= 0 then add tgt into n k cn gain
    | Inductor l ->
        stamp_branch tgt into n a b k;
        add tgt into n k k (-.(l /. h))
  done

let pwl_count s =
  Array.fold_left
    (fun acc d -> match d.comp.kind with Pwl_conductance _ -> acc + 1 | _ -> acc)
    0 s.devs

let pwl_regions_into s state ~regions =
  let r = ref 0 in
  for i = 0 to Array.length s.devs - 1 do
    let d = s.devs.(i) in
    match d.comp.kind with
    | Pwl_conductance { threshold; _ } ->
        let v = value state d.a -. value state d.b in
        regions.(!r) <- v >= threshold;
        incr r
    | _ -> ()
  done

let zero_state s = function Some x -> x | None -> Array.make s.size 0.0

let stamp_matrix_into s ~h ~state m =
  if Matrix.dim m <> s.size then
    invalid_arg "System.stamp_matrix_into: dimension mismatch";
  Matrix.fill_zero m;
  stamp_into s ~h ~state Dense (Matrix.storage m)

let stamp_matrix ?state s ~h =
  let m = Matrix.create s.size in
  stamp_matrix_into s ~h ~state:(zero_state s state) m;
  m

let stamp_triplets ?state s ~h =
  let acc = ref [] in
  stamp_into s ~h ~state:(zero_state s state) Triplets acc;
  !acc

let stamp_rhs_values s ~h ~state ~inputs ~rhs =
  Array.fill rhs 0 (Array.length rhs) 0.0;
  for i = 0 to Array.length s.devs - 1 do
    let { comp; a; b; k; slot; _ } = s.devs.(i) in
    match comp.kind with
    | Resistor _ | Vccs _ | Pwl_conductance _ | Vcvs _ -> ()
    | Capacitor c ->
        (* History current of the backward-Euler companion model. *)
        let v_prev = value state a -. value state b in
        let ieq = c /. h *. v_prev in
        if a >= 0 then rhs.(a) <- rhs.(a) +. ieq;
        if b >= 0 then rhs.(b) <- rhs.(b) -. ieq
    | Isource src ->
        let j = match src with Dc v -> v | Input _ -> inputs.(slot) in
        if a >= 0 then rhs.(a) <- rhs.(a) -. j;
        if b >= 0 then rhs.(b) <- rhs.(b) +. j
    | Vsource src ->
        rhs.(k) <- (match src with Dc v -> v | Input _ -> inputs.(slot))
    | Inductor l -> rhs.(k) <- -.(l /. h) *. state.(k)
  done

let stamp_rhs s ~h ~state ~input ~rhs =
  stamp_rhs_values s ~h ~state ~inputs:(Array.map input s.inputs) ~rhs

(* An output quantity resolved against the unknown vector. *)
type output =
  | Voltage of int * int  (* e_a - e_b, -1 for ground *)
  | Unknown of int  (* a branch-current unknown *)
  | Resistor_current of int * int * float  (* (e_a - e_b) / r *)

let output s v =
  if v.Expr.delay <> 0 then
    invalid_arg "System.output_value: delayed quantity";
  match v.Expr.base with
  | Expr.Potential (a, b) -> Voltage (nid s a, nid s b)
  | Expr.Flow (name, "") -> (
      match Hashtbl.find_opt s.current_index name with
      | Some k -> Unknown k
      | None -> (
          match Circuit.find s.circuit name with
          | Some { Component.kind = Component.Resistor r; pos; neg; _ } ->
              Resistor_current (nid s pos, nid s neg, r)
          | Some _ ->
              invalid_arg
                ("System.output_value: no current unknown for device " ^ name)
          | None -> invalid_arg ("System.output_value: unknown device " ^ name)))
  | Expr.Flow _ | Expr.Signal _ | Expr.Param _ ->
      invalid_arg "System.output_value: unsupported quantity"

let read_output o state =
  match o with
  | Voltage (a, b) -> value state a -. value state b
  | Unknown k -> state.(k)
  | Resistor_current (a, b, r) -> (value state a -. value state b) /. r

let output_value s v state = read_output (output s v) state
