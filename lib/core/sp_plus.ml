module Engine = Rader_runtime.Engine
module Tool = Rader_runtime.Tool
include Rader_runtime.Sp_hot

let create ?reach eng =
  create ?backend:reach ~label:(Engine.loc_label eng)
    ~strand:(fun () -> Engine.current_strand eng)
    ()

let tool = Tool.sp_plus

let attach ?reach eng =
  let d = create ?reach eng in
  Engine.set_tool eng (tool d);
  d
