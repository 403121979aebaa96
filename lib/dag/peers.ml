module Bitset = Rader_support.Bitset

type t = { n : int; peer : Bitset.t array }

let compute dag =
  let reach = Dag.closure dag in
  let n = Dag.n_strands dag in
  let peer =
    Array.init n (fun u ->
        let p = Bitset.create n in
        for v = 0 to n - 1 do
          if Dag.parallel reach u v then Bitset.add p v
        done;
        p)
  in
  { n; peer }

let check t u = if u < 0 || u >= t.n then invalid_arg "Peers: unknown strand"

let peers t u =
  check t u;
  t.peer.(u)

let equal_peers t u v =
  check t u;
  check t v;
  Bitset.equal t.peer.(u) t.peer.(v)

let n_peers t u =
  check t u;
  Bitset.cardinal t.peer.(u)
