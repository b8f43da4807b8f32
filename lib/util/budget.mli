(** Resource governance for the deliberately-exponential solvers.

    Every theorem the harness measures is a claim about a runtime
    *shape*, and several implementations (DPLL, the generic CSP search,
    Freuder's DP at high width) are exponential by design - a bad
    instance would otherwise wedge the process with no way to
    interrupt or attribute the time.  A [Budget.t] bounds a run by a
    deterministic tick count and/or a wall-clock deadline and supports
    cooperative cancellation from another domain; solvers consume it
    through [tick] on their innermost search steps and surface
    exhaustion as the typed {!Budget_exhausted}, carrying how far the
    run got.  Tick limits are exact and reproducible; deadlines are
    polled once per {!quantum} ticks, so exhaustion fires within one
    quantum of the limit. *)

type reason =
  | Ticks  (** the tick limit was consumed *)
  | Deadline  (** the wall-clock deadline passed *)
  | Cancelled  (** {!cancel} was called *)

(** Partial-progress information carried by {!Budget_exhausted}: how
    the budget ran out, how many ticks the solver had consumed, and
    the wall-clock seconds since the budget was created (or last
    {!reset}).  Solvers taking a [?stats] argument leave it filled up
    to the interruption point, so counters survive exhaustion. *)
type exhausted = { reason : reason; ticks : int; elapsed : float }

exception Budget_exhausted of exhausted

type t

(** Deadline polling period: [tick] reads the clock every [quantum]
    ticks, so a deadline overshoots by at most one quantum of solver
    steps. *)
val quantum : int

(** [create ?ticks ?seconds ()] allows at most [ticks] calls of {!tick}
    and at most [seconds] of wall clock from now; omitted dimensions
    are unlimited.  Raises [Invalid_argument] on nonpositive limits. *)
val create : ?ticks:int -> ?seconds:float -> unit -> t

(** [child ~ticks parent] is a budget of [ticks] ticks nested in
    [parent]: each of its ticks also charges [parent], and [parent]'s
    tick limit, deadline and cancellation apply to it, raising
    [parent]'s own exhaustion.  When the child's own limit fires,
    {!used} of the child equals [ticks]; when [parent] fires first, it
    is below [ticks] - so a caller can tell its local cap from the
    enclosing request's limits.  [None] makes a standalone budget of
    [ticks] ticks.  Raises [Invalid_argument] on nonpositive [ticks]. *)
val child : ticks:int -> t option -> t

(** Consume one tick; raises {!Budget_exhausted} when the budget is
    spent, the deadline has passed, or the budget was cancelled. *)
val tick : t -> unit

(** Re-check limits without consuming a tick (deadline and
    cancellation only, a child's parent included; cheap). *)
val check : t -> unit

(** Cooperative cancellation: the next [tick]/[check] (from any
    domain) raises.  Safe to call from another domain. *)
val cancel : t -> unit

val cancelled : t -> bool

(** Ticks consumed so far. *)
val used : t -> int

(** Seconds since creation or the last {!reset}. *)
val elapsed : t -> float

(** Restore the full budget: zero the tick count, restart the
    deadline clock, clear cancellation.  A budget that fired is
    reusable after [reset]; solvers keep no hidden state, so the same
    instance can be re-solved. *)
val reset : t -> unit

(** The result of running a solver under a budget: either its answer
    or the typed exhaustion report.  [Exhausted] is the "unknown"
    verdict - the instance was neither solved nor refuted within the
    allotted resources. *)
type 'a outcome = Done of 'a | Exhausted of exhausted

(** [protect f] runs [f ()], turning an escaping {!Budget_exhausted}
    into [Exhausted] - the standard wrapper behind every solver's
    [*_bounded] entry point. *)
val protect : (unit -> 'a) -> 'a outcome

val pp_reason : Format.formatter -> reason -> unit

(** One-line human description ("exhausted after 4096 ticks (12.3ms):
    tick limit"). *)
val describe : exhausted -> string
