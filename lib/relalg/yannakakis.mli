(** Yannakakis' algorithm for alpha-acyclic join queries (the tractable
    class of Section 4): a full reducer (semijoin passes along a join
    tree) followed by bottom-up joins, with no intermediate ever
    exceeding the output. *)

type stats = { max_intermediate : int; semijoins : int }

exception Cyclic

(** Semijoin-reduce all relations along a join tree.  Returns (reduced
    relations, parent array, post-order, semijoin count).  Raises
    {!Cyclic} on cyclic queries.  The [ctx] budget is ticked once per
    semijoin; the [ctx] metrics sink is left to the caller. *)
val full_reducer :
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  Relation.t array * int array * int list * int

(** Full answer plus execution stats.  Raises {!Cyclic}.  The [ctx]
    budget is ticked once per semijoin and per tree join (raising
    {!Lb_util.Budget.Budget_exhausted} when spent); the [ctx] metrics
    sink receives [yannakakis.semijoins] and
    [yannakakis.max_intermediate]. *)
val answer : ?ctx:Lb_util.Exec.t -> Database.t -> Query.t -> Relation.t * stats

(** Nonempty-answer decision without materializing anything beyond the
    reducer.  Honors [ctx] like {!answer}. *)
val boolean_answer : ?ctx:Lb_util.Exec.t -> Database.t -> Query.t -> bool

val is_acyclic : Query.t -> bool

(** Enumeration with linear preprocessing and per-answer delay bounded
    by the query size (the constant-delay regime the paper cites for
    acyclic queries).  [f] receives each answer parallel to
    [Query.attributes q]; the array is reused.  The [ctx] budget governs
    the reducer phase. *)
val iter_answers :
  ?ctx:Lb_util.Exec.t -> Database.t -> Query.t -> (int array -> unit) -> unit
