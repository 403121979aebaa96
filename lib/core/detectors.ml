type attach =
  reach:Rader_reach.Reach.backend option -> Rader_runtime.Engine.t -> unit ->
  Report.t list

let table : (string * attach) list =
  [
    ( "peerset",
      fun ~reach eng ->
        let d = Peer_set.attach ?reach eng in
        fun () -> Peer_set.races d );
    ( "spbags",
      fun ~reach:_ eng ->
        let d = Sp_bags.attach eng in
        fun () -> Sp_bags.races d );
    ( "sporder",
      fun ~reach:_ eng ->
        let d = Sp_order.attach eng in
        fun () -> Sp_order.races d );
    ( "offsetspan",
      fun ~reach:_ eng ->
        let d = Offset_span.attach eng in
        fun () -> Offset_span.races d );
    ( "sp+",
      fun ~reach eng ->
        let d = Sp_plus.attach ?reach eng in
        fun () -> Sp_plus.races d );
  ]
