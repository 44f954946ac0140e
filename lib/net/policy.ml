type claim = { utility : float; extras_granted : int }

type 'a env = {
  claim : 'a -> claim;
  can_upgrade : 'a -> bool;
  grant : 'a -> unit;
  tie : 'a -> 'a -> int;
}

type t = {
  name : string;
  order : claim -> claim -> int;
  run : 'a. 'a env -> 'a array -> int -> unit;
}

(* The three grant disciplines rest on one fact: within a flush grants
   only raise link reservations, so spare only falls and [can_upgrade]
   is monotone — a candidate that fails once never fits again, and is
   dropped for good.  Candidates are ranked by the policy order first
   and the environment's tie-break second, a total order, so results are
   deterministic whatever order the candidates arrive in. *)

let by order env a b =
  match order (env.claim a) (env.claim b) with 0 -> env.tie a b | c -> c

(* A binary heap on the prefix [a.(0) .. a.(n-1)], least under [cmp] at
   the root. *)
let rec sift_down cmp a n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let m = if l + 1 < n && cmp a.(l + 1) a.(l) < 0 then l + 1 else l in
    if cmp a.(m) a.(i) < 0 then begin
      let x = a.(i) in
      a.(i) <- a.(m);
      a.(m) <- x;
      sift_down cmp a n m
    end
  end

let heapify cmp a n =
  for i = (n / 2) - 1 downto 0 do
    sift_down cmp a n i
  done

(* In-place heapsort of the prefix, ascending under [cmp]. *)
let sort cmp a n =
  let rev x y = cmp y x in
  heapify rev a n;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift_down rev a last 0
  done

(* Compact to the front, in order, the candidates that fit — granting
   each one increment when [grant] — and return their count.  The rest
   never fit again in this flush.  Run first without granting, it drops
   them before ranking: that changes no grant and spares the sort. *)
let compact ~grant env a n =
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let c = a.(i) in
    if env.can_upgrade c then begin
      if grant then env.grant c;
      a.(!kept) <- c;
      incr kept
    end
  done;
  !kept

let sorted cmp a n =
  let rec from i = i >= n || (cmp a.(i - 1) a.(i) <= 0 && from (i + 1)) in
  from 1

(* Sort once; each round grants one increment to every survivor in
   order.  Every survivor gained one increment, so an order invariant
   under +1 keeps them sorted and the O(k) check skips the re-sort. *)
let run_rounds order env a n =
  let cmp = by order env in
  let n = ref (compact ~grant:false env a n) in
  sort cmp a !n;
  while !n > 0 do
    n := compact ~grant:true env a !n;
    if not (sorted cmp a !n) then sort cmp a !n
  done

(* Grant the single best candidate at a time.  Only the granted
   candidate's claim changes, so it is re-sifted in place; a top that no
   longer fits is dropped. *)
let run_exact order env a n =
  let cmp = by order env in
  let n = compact ~grant:false env a n in
  heapify cmp a n;
  let n = ref n in
  while !n > 0 do
    let top = a.(0) in
    if env.can_upgrade top then env.grant top
    else begin
      decr n;
      a.(0) <- a.(!n)
    end;
    sift_down cmp a !n 0
  done

let run_drain order env a n =
  let n = compact ~grant:false env a n in
  sort (by order env) a n;
  for i = 0 to n - 1 do
    let c = a.(i) in
    while env.can_upgrade c do
      env.grant c
    done
  done

let make ~name ~order ~style =
  match style with
  | `Rounds -> { name; order; run = (fun env a n -> run_rounds order env a n) }
  | `Exact -> { name; order; run = (fun env a n -> run_exact order env a n) }
  | `Drain -> { name; order; run = (fun env a n -> run_drain order env a n) }

let equal_share =
  make ~name:"equal-share"
    ~order:(fun a b -> compare a.extras_granted b.extras_granted)
    ~style:`Rounds

let proportional =
  (* Fewest granted increments per unit of utility first. *)
  make ~name:"proportional"
    ~order:(fun a b ->
      Float.compare
        (float_of_int a.extras_granted /. a.utility)
        (float_of_int b.extras_granted /. b.utility))
    ~style:`Exact

let max_utility =
  make ~name:"max-utility"
    ~order:(fun a b ->
      match Float.compare b.utility a.utility with
      | 0 -> compare a.extras_granted b.extras_granted
      | c -> c)
    ~style:`Drain

let pp ppf t = Format.pp_print_string ppf t.name

let name t = t.name

let equal a b = String.equal a.name b.name

let of_string = function
  | "equal-share" | "equal" -> Some equal_share
  | "proportional" | "coefficient" -> Some proportional
  | "max-utility" | "max" -> Some max_utility
  | _ -> None

let all = [ equal_share; proportional; max_utility ]

let compare_claims t = t.order
