type method_ = Backward_euler | Trapezoidal

type chunk = {
  times : float array;
  states : float array array;
  final : float array;
}

let dc_operating_point (sys : Mna.t) =
  Numeric.Backend.solve (Mna.factor_g sys) (Mna.rhs sys 0.0)

let check_args fn (sys : Mna.t) ~x0 ~dt ~steps =
  if dt <= 0.0 then invalid_arg (fn ^ ": dt must be positive");
  if steps <= 0 then invalid_arg (fn ^ ": steps must be positive");
  if Array.length x0 <> sys.Mna.size then
    invalid_arg (fn ^ ": state size mismatch")

let integrate (sys : Mna.t) ~method_ ~x0 ~t0 ~dt ~steps ~on_step =
  check_args "Transient.integrate" sys ~x0 ~dt ~steps;
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
  (* Four n-vectors serve the whole run: the state, the solve buffer,
     and b(t) and b(t'), which swap roles after each step. *)
  let x = Array.copy x0 in
  let rhs = Array.make n 0.0 in
  let rec step s b b' =
    if s = steps then s
    else begin
      let t' = t0 +. (float_of_int (s + 1) *. dt) in
      sys.Mna.rhs_into t' b';
      Numeric.Sparse.Csc.mul_vec_into explicit x rhs;
      (match method_ with
      | Backward_euler ->
          for i = 0 to n - 1 do
            Array.unsafe_set rhs i
              (Array.unsafe_get rhs i +. Array.unsafe_get b' i)
          done
      | Trapezoidal ->
          for i = 0 to n - 1 do
            Array.unsafe_set rhs i
              (Array.unsafe_get rhs i +. Array.unsafe_get b i
              +. Array.unsafe_get b' i)
          done);
      Numeric.Backend.solve_in_place lu rhs;
      Array.blit rhs 0 x 0 n;
      if on_step s t' x then step (s + 1) b' b else s + 1
    end
  in
  let b0 = Array.make n 0.0 in
  sys.Mna.rhs_into t0 b0;
  (x, step 0 b0 (Array.make n 0.0))

let run (sys : Mna.t) ~method_ ~x0 ~t0 ~dt ~steps ~probes =
  check_args "Transient.run" sys ~x0 ~dt ~steps;
  let times = Array.make steps 0.0 in
  let states = Array.map (fun _ -> Array.make steps 0.0) probes in
  let record s t x =
    times.(s) <- t;
    for p = 0 to Array.length probes - 1 do
      states.(p).(s) <- x.(probes.(p))
    done;
    true
  in
  let final, _ = integrate sys ~method_ ~x0 ~t0 ~dt ~steps ~on_step:record in
  { times; states; final }
