include Rader_runtime.Fault

type status = Clean | Races | Partial

let status ~complete ~racy =
  if not complete then Partial else if racy then Races else Clean

let exit_code = function Clean -> 0 | Races -> 1 | Partial -> 3
