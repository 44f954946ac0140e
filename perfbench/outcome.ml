(* What one workload run hands back to the printer. *)
type t = {
  failures : string list;  (** failed correctness checks, as messages. *)
  attempted : int;
  failed : int;
  e2e : Pb.metric list;  (** every end-to-end metric, untraced window. *)
  extra : Pb.metric list;  (** printed for reading, not bounded. *)
  layers : (string * float) list;  (** per-layer values, traced run only. *)
}
