(** Instrumented hash tables: fixed-bucket separate chaining with every
    bucket in a shadow-tracked {!Cell}.

    Supports dictionary-style user-defined reducers (word counts,
    key→value aggregations): {!merge_into} is the Reduce, folding one
    table's bindings into another with a user combiner for duplicate
    keys, with every bucket access instrumented — so a buggy dictionary
    monoid (say, one whose views share buckets after a shallow copy, like
    the paper's Figure-1 list) produces real detectable shadow traffic.

    The bucket count is fixed at creation (no rehashing); use a
    generous [buckets] for large tables. *)

type ('k, 'v) t

(** [create ctx ~buckets ()] is an empty table; allocation untracked. *)
val create : Engine.ctx -> buckets:int -> unit -> ('k, 'v) t

(** [add ctx h k v ~combine] inserts [k → v], combining with [combine
    old_v v] when [k] is already bound. Instrumented bucket
    read/write. *)
val add : Engine.ctx -> ('k, 'v) t -> 'k -> 'v -> combine:('v -> 'v -> 'v) -> unit

(** [find ctx h k] is the binding of [k], if any. Instrumented read. *)
val find : Engine.ctx -> ('k, 'v) t -> 'k -> 'v option

(** [size ctx h] is the number of bindings (instrumented). *)
val size : Engine.ctx -> ('k, 'v) t -> int

(** [bindings ctx h] is all bindings, sorted by key (instrumented scan;
    polymorphic compare on keys). *)
val bindings : Engine.ctx -> ('k, 'v) t -> ('k * 'v) list

(** [merge_into ctx ~dst ~src ~combine] folds every binding of [src] into
    [dst] — the dictionary Reduce. [src] is left unchanged. *)
val merge_into :
  Engine.ctx -> dst:('k, 'v) t -> src:('k, 'v) t -> combine:('v -> 'v -> 'v) -> unit

(** [monoid ~buckets ~combine ()] is the dictionary reducer monoid:
    identity = fresh empty table, reduce = [merge_into] left. *)
val monoid : buckets:int -> combine:('v -> 'v -> 'v) -> unit -> ('k, 'v) t Reducer.monoid
