(** Extra-resource adaptation policies — §2.2 of the paper — as
    first-class values.

    When bandwidth beyond the floors is available, the network walks
    eligible channels and grants one increment at a time (water-filling).
    A policy owns that walk: it decides {e who gets the next increment}
    and {e in what discipline} the grants are issued.  The paper
    evaluates with equal utilities ("fair distribution"); the
    coefficient/proportional and max-utility schemes it describes are
    also provided, and compared in the ablation benches.

    Policies used to be a closed variant baked into the service; they are
    now values, so alternative redistribution strategies (slice-weighted,
    survivability-priced, …) plug in without touching the hot path. *)

type claim = { utility : float; extras_granted : int }
(** A channel's standing in the current water-filling round:
    [extras_granted] counts increments already granted above the floor. *)

(** What the redistribution core hands a policy: how to read a
    candidate's claim, whether one more increment fits on its whole
    path, how to grant it, and the deterministic last-resort tie-break
    (the service compares channel ids).  The element type stays abstract
    to the policy — it never inspects channels directly.

    Within one [run] the environment must keep three promises:
    - [can_upgrade] is monotone: once false for a candidate it stays
      false.  Grants only raise link reservations, so spare only falls
      and a candidate that did not fit never fits again;
    - [grant c] changes only [c]'s claim;
    - [tie] is a total order on the candidates: it returns 0 only for a
      candidate compared with itself. *)
type 'a env = {
  claim : 'a -> claim;
  can_upgrade : 'a -> bool;
  grant : 'a -> unit;
  tie : 'a -> 'a -> int;
}

type t = {
  name : string;  (** stable identifier; {!of_string} accepts it. *)
  order : claim -> claim -> int;
      (** total preorder: negative when the first claim deserves the
          next increment more. *)
  run : 'a. 'a env -> 'a array -> int -> unit;
      (** [run env a n] water-fills the candidates [a.(0) .. a.(n-1)] to
          a fixed point: afterwards none of them may have [can_upgrade]
          true.  It may permute and overwrite those [n] slots and leaves
          the rest of [a] alone.  Must terminate — every grant consumes
          one increment of finite link capacity. *)
}

val make :
  name:string ->
  order:(claim -> claim -> int) ->
  style:[ `Rounds | `Exact | `Drain ] ->
  t
(** Build a policy from an ordering and a grant discipline.  Ties under
    [order] break via the environment's [tie]; the styles rest on the
    monotone [can_upgrade] of {!env}, so a candidate that fails once is
    dropped for good.  Each style first drops the candidates that do not
    fit at the start; then, for [G] grants over the [k] that remain:

    - [`Rounds]: each round grants one increment to every candidate that
      fits, in [order], repeating while any grant landed.  Sorts once
      ([O(k log k)]); each round costs [O(survivors)]: it compacts the
      survivors in place and checks that they are still in order,
      re-sorting only if not.  An order invariant under +1 extra (such
      as {!equal_share}'s) never re-sorts: every survivor gained exactly
      one increment.  An order such as extras per utility can reorder
      survivors, and pays a re-sort in those rounds;
    - [`Exact]: each step grants exactly the best candidate that fits.
      A binary heap keyed by [(order, tie)]: [O((k + G) log k)];
    - [`Drain]: sort once, then drain each candidate to its ceiling
      before the next sees anything: [O(k log k + G)]. *)

val equal_share : t
(** ["equal-share"], [`Rounds] by fewest extras granted: round-robin by
    current extra allocation, lowest first.  With equal utilities this is
    the paper's fair distribution. *)

val proportional : t
(** ["proportional"], [`Exact] by fewest increments per unit of utility —
    the coefficient scheme (Han, PhD 1998) on the increment grid. *)

val max_utility : t
(** ["max-utility"], [`Drain] by highest utility: the highest-utility
    channel takes all it can before anyone else — may monopolise, as the
    paper warns. *)

val pp : Format.formatter -> t -> unit
(** Prints {!val-name}. *)

val name : t -> string

val equal : t -> t -> bool
(** By {!val-name} — policy values carry closures, so structural
    equality would raise. *)

val of_string : string -> t option
(** Resolves the built-in policies by name (plus the historical aliases
    [equal], [coefficient], [max]). *)

val all : t list
(** The built-in policies, in presentation order. *)

val compare_claims : t -> claim -> claim -> int
(** [compare_claims t] is [t.order] — kept as a function for callers
    that only rank claims. *)
