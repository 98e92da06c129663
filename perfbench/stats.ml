let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank, 1-based; the epsilon keeps [0.999 *. 20000.] at 19980. *)
let rank n p =
  max 1 (min n (int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9))))

let central_mean sorted =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let lo = rank n 45. - 1 and hi = rank n 55. - 1 in
    let s = ref 0 in
    for i = lo to hi do
      s := !s + sorted.(i)
    done;
    float_of_int !s /. float_of_int (hi - lo + 1)
  end

let tail_ladder = [ 99.9; 99.; 90.; 50. ]

let tail sorted =
  let n = Array.length sorted in
  let p =
    match List.find_opt (fun p -> n - rank n p >= 10) tail_ladder with
    | Some p -> p
    | None -> 50.
  in
  (p, if n = 0 then 0 else sorted.(rank n p - 1))
