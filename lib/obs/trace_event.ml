(* Kept for halobench, which writes its traced pass through [write]. *)
let write ?process_name ~path t =
  Out_channel.with_open_text path (fun oc ->
      Obs.export ?process_name (Obs.Channel oc) t)
