(* Percentiles over pause-sample lists, for fleet reports and benches. *)

let percentile samples ~p =
  match samples with
  | [] -> 0
  | _ ->
    let sorted = List.sort compare samples in
    let n = List.length sorted in
    (* Nearest-rank: the ceil(p/100 * n)-th smallest sample, 1-based. *)
    let rank =
      let r = int_of_float (ceil (p /. 100. *. float_of_int n)) in
      max 1 (min n r)
    in
    List.nth sorted (rank - 1)
