type method_ = Backward_euler | Trapezoidal

type chunk = {
  times : float array;
  states : float array array;
  final : float array;
}

let dc_operating_point (sys : Mna.t) =
  Numeric.Backend.solve (Mna.factor_g sys) (sys.Mna.rhs 0.0)

let run (sys : Mna.t) ~method_ ~x0 ~t0 ~dt ~steps ~probes =
  if dt <= 0.0 then invalid_arg "Transient.run: dt must be positive";
  if steps <= 0 then invalid_arg "Transient.run: steps must be positive";
  if Array.length x0 <> sys.Mna.size then
    invalid_arg "Transient.run: state size mismatch";
  let n = sys.Mna.size in
  (* Entries are the float expressions Matrix.scale/add/sub compute on
     dense G and C. The G∪C ordering fits any timestep or method. *)
  let combine f = Numeric.Sparse.Csc.combine f sys.Mna.g_csc sys.Mna.c_csc in
  let lhs, explicit =
    match method_ with
    | Backward_euler ->
        (* (G + C/h) x' = (C/h) x + b(t') *)
        let s = 1.0 /. dt in
        (combine (fun g c -> g +. (s *. c)), combine (fun _ c -> s *. c))
    | Trapezoidal ->
        (* (G + 2C/h) x' = (2C/h - G) x + b(t) + b(t') *)
        let s = 2.0 /. dt in
        (combine (fun g c -> g +. (s *. c)), combine (fun g c -> (s *. c) -. g))
  in
  let lu =
    match Numeric.Backend.try_factor_csc ~symbolic:sys.Mna.lhs_sym lhs with
    | Ok f -> f
    | Error k -> raise (Numeric.Lu.Singular k)
  in
  let num_probes = Array.length probes in
  let times = Array.make steps 0.0 in
  let states = Array.init num_probes (fun _ -> Array.make steps 0.0) in
  let x = Array.copy x0 in
  let rhs = Array.make n 0.0 in
  let b_prev = ref (sys.Mna.rhs t0) in
  for s = 0 to steps - 1 do
    let t' = t0 +. (float_of_int (s + 1) *. dt) in
    let b' = sys.Mna.rhs t' in
    Numeric.Sparse.Csc.mul_vec_into explicit x rhs;
    (match method_ with
    | Backward_euler ->
        for i = 0 to n - 1 do
          Array.unsafe_set rhs i
            (Array.unsafe_get rhs i +. Array.unsafe_get b' i)
        done
    | Trapezoidal ->
        let bp = !b_prev in
        for i = 0 to n - 1 do
          Array.unsafe_set rhs i
            (Array.unsafe_get rhs i +. Array.unsafe_get bp i
            +. Array.unsafe_get b' i)
        done);
    Numeric.Backend.solve_in_place lu rhs;
    Array.blit rhs 0 x 0 n;
    b_prev := b';
    times.(s) <- t';
    for p = 0 to num_probes - 1 do
      states.(p).(s) <- x.(probes.(p))
    done
  done;
  { times; states; final = x }
