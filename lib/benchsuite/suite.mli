(** The 6-benchmark suite of the paper's §8 evaluation, with laptop-scale
    default inputs. [scale] multiplies the work (≈ linearly, except [fib]
    and [knapsack] whose depth parameters grow logarithmically). *)

(** [all ?seed ?scale ()] is the suite in the paper's table order
    (collision, dedup, ferret, fib, knapsack, pbfs). *)
val all : ?seed:int -> ?scale:float -> unit -> Bench_def.t list

(** [find name] is the element of [all ()] named [name], built alone:
    no other benchmark's inputs are generated.
    @raise Not_found for unknown names. *)
val find : ?seed:int -> ?scale:float -> string -> Bench_def.t

(** [names] in table order. *)
val names : string list
