(* Command-line terms shared by bin/tables and bin/compare, so the two
   executables spell, default and document these flags identically. *)

open Cmdliner

let matrix_backend =
  Arg.(
    value
    & opt
        (enum [ ("sparse", Numeric.Backend.Sparse); ("dense", Numeric.Backend.Dense) ])
        Numeric.Backend.Sparse
    & info [ "matrix-backend" ] ~docv:"KIND"
        ~doc:
          "Linear-algebra backend for MNA factorisations: sparse (CSC + \
           fill-reducing ordering, the default) or dense LU. Either backend \
           prints the same bytes; only wall time and factorisation counters \
           change.")

let metrics_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"PATH"
        ~doc:
          "Write a nontree-obs-v1 run manifest (git describe, argv, run \
           parameters, counters, histograms, trace spans) to $(docv). \
           Enables span recording; stdout is unchanged.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record tracing spans and print a per-span summary (call count, \
           total wall time) to stderr after the run.")

(* Switch on the process-wide settings the three flags above select;
   call before any work is done. *)
let setup ~matrix_backend ~metrics_json ~trace =
  if trace || metrics_json <> None then Obs.set_enabled true;
  Numeric.Backend.set_kind matrix_backend

let print_span_summary ~trace =
  if trace then
    match Obs.span_summary () with
    | Some s -> Printf.eprintf "%s%!" s
    | None -> ()
