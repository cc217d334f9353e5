module Flow = Cals_core.Flow
module Incremental = Cals_core.Incremental
module Check = Cals_verify.Check
module Equiv = Cals_verify.Equiv
module Estimate = Cals_estimate.Estimate
module Congestion = Cals_route.Congestion

let run ?(k_schedule = Flow.default_k_schedule) ?router_config
    ?(checks = Check.Off) ?(estimate = Estimate.Prune) ?(t = 0.0)
    ?(session = true) ~subject ~library ~floorplan ~rng () =
  let positions = Cals_place.Placement.place_subject subject ~floorplan ~rng in
  let session =
    if session then begin
      let s = Incremental.create ~subject ~library ~positions () in
      Incremental.warm s;
      Some s
    end
    else None
  in
  let route_session = Option.map Incremental.route_session session in
  let rec loop acc = function
    | [] ->
      { Flow.iterations = List.rev acc; accepted = None; mapped = None;
        placement = None; routing = None }
    | k :: rest ->
      let iteration, (mapped, placement, routing) =
        Flow.evaluate_k ?router_config ~checks ~estimate ?session
          ?route_session ~t ~subject ~library ~floorplan ~positions ~k ()
      in
      if Congestion.acceptable iteration.Flow.report then begin
        if checks = Check.Cheap then
          Equiv.check_exn ~rounds:(Check.rounds checks)
            ~rng:(Cals_util.Rng.create (Flow.equiv_seed ~k))
            ~stage:"equiv" (Equiv.of_subject subject)
            (Equiv.of_mapped ~label:(Printf.sprintf "mapped@K=%g" k) mapped);
        { Flow.iterations = List.rev (iteration :: acc);
          accepted = Some iteration; mapped = Some mapped; placement;
          routing }
      end
      else loop (iteration :: acc) rest
  in
  loop [] k_schedule
