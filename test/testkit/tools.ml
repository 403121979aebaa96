open Rader_runtime

let recorder push =
  {
    Tool.on_frame_enter =
      (fun ~frame ~parent ~spawned ~kind ->
        push
          (Printf.sprintf "enter %d %d %b %s" frame parent spawned
             (Tool.frame_kind_name kind)));
    on_frame_return =
      (fun ~frame ~parent ~spawned ~kind ->
        push
          (Printf.sprintf "return %d %d %b %s" frame parent spawned
             (Tool.frame_kind_name kind)));
    on_sync = (fun ~frame -> push (Printf.sprintf "sync %d" frame));
    on_steal =
      (fun ~frame ~region -> push (Printf.sprintf "steal %d %d" frame region));
    on_reduce =
      (fun ~frame ~into_region ~from_region ->
        push (Printf.sprintf "reduce %d %d %d" frame into_region from_region));
    on_read =
      (fun ~frame ~loc ~view_aware ->
        push (Printf.sprintf "read %d %d %b" frame loc view_aware));
    on_write =
      (fun ~frame ~loc ~view_aware ->
        push (Printf.sprintf "write %d %d %b" frame loc view_aware));
    on_reducer_read =
      (fun ~frame ~reducer -> push (Printf.sprintf "rread %d %d" frame reducer));
  }

let seq a b =
  {
    Tool.on_frame_enter =
      (fun ~frame ~parent ~spawned ~kind ->
        a.Tool.on_frame_enter ~frame ~parent ~spawned ~kind;
        b.Tool.on_frame_enter ~frame ~parent ~spawned ~kind);
    on_frame_return =
      (fun ~frame ~parent ~spawned ~kind ->
        a.Tool.on_frame_return ~frame ~parent ~spawned ~kind;
        b.Tool.on_frame_return ~frame ~parent ~spawned ~kind);
    on_sync =
      (fun ~frame ->
        a.Tool.on_sync ~frame;
        b.Tool.on_sync ~frame);
    on_steal =
      (fun ~frame ~region ->
        a.Tool.on_steal ~frame ~region;
        b.Tool.on_steal ~frame ~region);
    on_reduce =
      (fun ~frame ~into_region ~from_region ->
        a.Tool.on_reduce ~frame ~into_region ~from_region;
        b.Tool.on_reduce ~frame ~into_region ~from_region);
    on_read =
      (fun ~frame ~loc ~view_aware ->
        a.Tool.on_read ~frame ~loc ~view_aware;
        b.Tool.on_read ~frame ~loc ~view_aware);
    on_write =
      (fun ~frame ~loc ~view_aware ->
        a.Tool.on_write ~frame ~loc ~view_aware;
        b.Tool.on_write ~frame ~loc ~view_aware);
    on_reducer_read =
      (fun ~frame ~reducer ->
        a.Tool.on_reducer_read ~frame ~reducer;
        b.Tool.on_reducer_read ~frame ~reducer);
  }
