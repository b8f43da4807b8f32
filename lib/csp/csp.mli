(** Constraint satisfaction problem instances (Section 2.2): variables
    [\[0, nvars)], a shared domain [\[0, domain_size)], and constraints
    given as scopes with explicit allowed-tuple lists - the
    database-style representation where relations are part of the
    input. *)

type constraint_ = {
  scope : int array;
  allowed : int array list;  (** each of width [|scope|] *)
}

type t

(** Validates ranges and widths. *)
val create : nvars:int -> domain_size:int -> constraint_ list -> t

val nvars : t -> int

val domain_size : t -> int

val constraints : t -> constraint_ list

val constraint_count : t -> int

val is_binary : t -> bool

val max_arity : t -> int

(** Total cells of the explicit representation - the "input size n" of
    the paper's running-time statements. *)
val size : t -> int

val constraint_satisfied : constraint_ -> int array -> bool

val satisfies : t -> int array -> bool

(** Primal (Gaifman) graph on the variables. *)
val primal_graph : t -> Lb_graph.Graph.t

val hypergraph : t -> Lb_hypergraph.Hypergraph.t

(** Exhaustive search in variable order with early constraint checking;
    worst case [|D|^{|V|}].  The baseline of Sections 5-7.  Ticks
    [ctx]'s budget once per value attempt (raising
    {!Lb_util.Budget.Budget_exhausted} when spent). *)
val solve_bruteforce : ?ctx:Lb_util.Exec.t -> t -> int array option

(** Exhaustive solution count (tests only); ticks [ctx]'s budget once
    per assignment. *)
val count_bruteforce : ?ctx:Lb_util.Exec.t -> t -> int

val pp : Format.formatter -> t -> unit
