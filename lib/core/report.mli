(** Race reports (core-layer name).

    The report type and its deduplicating collector are defined in
    [Rader_runtime.Report] — the detector cores ({!Rader_runtime.Sp_hot},
    {!Rader_runtime.Peer_hot}) build reports themselves, and the runtime
    layer sits below core — and re-exported here, with type equalities,
    under the name the core layer and the CLI use, the way {!Diag}
    re-exports [Rader_runtime.Fault]. *)

include module type of struct
  include Rader_runtime.Report
end
