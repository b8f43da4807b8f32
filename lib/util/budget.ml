(* Tick budgets, wall-clock deadlines and cooperative cancellation.

   Design constraints:
   - [tick] sits on solver hot paths (one call per DPLL decision /
     search node / trie intersection), so the common case must be a
     couple of integer operations: one increment, two compares.  The
     clock is only read once per [quantum] ticks.
   - Tick-limit exhaustion is deterministic: the same instance, seed
     and limit fail at exactly the same step, which the reproducible
     bench output relies on.  Deadlines are inherently racy against
     the clock and are only guaranteed to fire within one quantum.
   - [cancel] may be called from another domain; the flag is a plain
     bool (immediate ints do not tear in OCaml) read on every tick, so
     cancellation latency is one tick. *)

type reason = Ticks | Deadline | Cancelled

type exhausted = { reason : reason; ticks : int; elapsed : float }

exception Budget_exhausted of exhausted

type t = {
  limit : int; (* max ticks; max_int = unlimited *)
  seconds : float; (* deadline length; infinity = unlimited *)
  mutable deadline : float; (* absolute deadline *)
  mutable started : float; (* for [elapsed] *)
  mutable used : int;
  mutable next_poll : int; (* used-value at which to read the clock *)
  mutable cancelled : bool;
  parent : t option; (* charged on every tick; its limits also apply *)
}

let quantum = 256

let now () = Unix.gettimeofday ()

let create ?ticks ?seconds () =
  (match ticks with
  | Some n when n <= 0 -> invalid_arg "Budget.create: ticks must be positive"
  | _ -> ());
  (match seconds with
  | Some s when s <= 0.0 ->
      invalid_arg "Budget.create: seconds must be positive"
  | _ -> ());
  let t0 = now () in
  let seconds = Option.value ~default:infinity seconds in
  {
    limit = Option.value ~default:max_int ticks;
    seconds;
    deadline = t0 +. seconds;
    started = t0;
    used = 0;
    next_poll = quantum;
    cancelled = false;
    parent = None;
  }

let child ~ticks parent = { (create ~ticks ()) with parent }

let used t = t.used

let elapsed t = now () -. t.started

let cancelled t = t.cancelled

let exhaust t reason =
  raise (Budget_exhausted { reason; ticks = t.used; elapsed = elapsed t })

let rec check t =
  if t.cancelled then exhaust t Cancelled;
  if t.seconds < infinity && now () > t.deadline then exhaust t Deadline;
  Option.iter check t.parent

(* A child checks its own limit before charging the parent, so when
   the parent raises, the child's count is still below its limit. *)
let rec tick t =
  if t.cancelled then exhaust t Cancelled;
  if t.used >= t.limit then exhaust t Ticks;
  (match t.parent with Some p -> tick p | None -> ());
  t.used <- t.used + 1;
  if t.used >= t.next_poll then begin
    t.next_poll <- t.used + quantum;
    if t.seconds < infinity && now () > t.deadline then exhaust t Deadline
  end

let cancel t = t.cancelled <- true

let reset t =
  let t0 = now () in
  t.used <- 0;
  t.next_poll <- quantum;
  t.started <- t0;
  t.deadline <- t0 +. t.seconds;
  t.cancelled <- false

type 'a outcome = Done of 'a | Exhausted of exhausted

let protect f = try Done (f ()) with Budget_exhausted e -> Exhausted e

let reason_string = function
  | Ticks -> "tick limit"
  | Deadline -> "deadline"
  | Cancelled -> "cancelled"

let pp_reason fmt r = Format.pp_print_string fmt (reason_string r)

let describe e =
  Printf.sprintf "exhausted after %d ticks (%s): %s" e.ticks
    (Stopwatch.pretty_seconds e.elapsed)
    (reason_string e.reason)
