(** The execution context: one first-class record for the three
    resource handles a solver entry point may run under - a domain
    pool, a tick/deadline budget and a metrics sink.

    Every entry point that can use any of them takes a single
    [?ctx:Exec.t] defaulting to {!default}, and nothing else for pool,
    budget or metrics.  Callers build a context with {!make} from the
    parts at hand and forward it unchanged; a solver reads only the
    fields it uses (a sequential kernel ignores [pool], an ungoverned
    one [budget]). *)

type t = {
  pool : Pool.t option;  (** Domain-parallel execution, when present *)
  budget : Budget.t option;  (** tick/deadline governance, when present *)
  metrics : Metrics.t;  (** counter sink; {!Metrics.disabled} = off *)
}

(** No pool, no budget, the disabled metrics sink: sequential,
    ungoverned, uninstrumented - the default of every entry point. *)
val default : t

(** [make ?pool ?budget ?metrics ()] builds a context from the parts at
    hand; omitted fields are {!default}'s. *)
val make : ?pool:Pool.t -> ?budget:Budget.t -> ?metrics:Metrics.t -> unit -> t
