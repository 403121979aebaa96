module Engine = Rader_runtime.Engine
module Tool = Rader_runtime.Tool
include Rader_runtime.Peer_hot

let create ?reach eng =
  create ?backend:reach ~strand:(fun () -> Engine.current_strand eng) ()

let tool = Tool.peer_set

let attach ?reach eng =
  let d = create ?reach eng in
  Engine.set_tool eng (tool d);
  d
