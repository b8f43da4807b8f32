(* The execution context record: pool, budget and metrics sink passed
   to every solver as one [?ctx].  See exec.mli. *)

type t = {
  pool : Pool.t option;
  budget : Budget.t option;
  metrics : Metrics.t;
}

let default = { pool = None; budget = None; metrics = Metrics.disabled }

let make ?pool ?budget ?(metrics = Metrics.disabled) () =
  { pool; budget; metrics }
