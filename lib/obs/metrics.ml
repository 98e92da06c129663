type counter = { mutable count : int }

type gauge = { mutable value : int }

(* Log-scale histogram: bucket 0 holds values <= 0, bucket k (k >= 1)
   holds values in [2^(k-1), 2^k). 63 buckets cover the int range. *)
let histogram_buckets = 63

type histogram = {
  buckets : int array;
  mutable observations : int;
  mutable sum : int;
}

type series = { ring : int array Ring.t }

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  series_tbl : (string, series) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 32;
    histograms = Hashtbl.create 8;
    series_tbl = Hashtbl.create 4;
  }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { count = 0 } in
    Hashtbl.add t.counters name c;
    c

let incr ?(by = 1) c = c.count <- c.count + by

let set_counter c v = c.count <- v

let counter_value c = c.count

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { value = 0 } in
    Hashtbl.add t.gauges name g;
    g

let set_gauge g v = g.value <- v

let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    min (bits v 0) (histogram_buckets - 1)
  end

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h =
      { buckets = Array.make histogram_buckets 0; observations = 0; sum = 0 }
    in
    Hashtbl.add t.histograms name h;
    h

let observe h v =
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.observations <- h.observations + 1;
  h.sum <- h.sum + v

let series t ~retain name =
  match Hashtbl.find_opt t.series_tbl name with
  | Some s -> s
  | None ->
    let s = { ring = Ring.create ~capacity:retain } in
    Hashtbl.add t.series_tbl name s;
    s

let record s values = Ring.push s.ring (Array.copy values)

type histogram_view = {
  observations : int;
  sum : int;
  buckets : (int * int) list;  (* (bucket index, count), non-empty only *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * histogram_view) list;
  series : (string * int array list) list;  (* retained snapshots, oldest first *)
}

let sorted_bindings tbl value =
  Hashtbl.fold (fun name v acc -> (name, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot (t : t) =
  {
    counters = sorted_bindings t.counters (fun c -> c.count);
    gauges = sorted_bindings t.gauges (fun g -> g.value);
    histograms =
      sorted_bindings t.histograms (fun h ->
          let buckets = ref [] in
          for i = histogram_buckets - 1 downto 0 do
            if h.buckets.(i) > 0 then buckets := (i, h.buckets.(i)) :: !buckets
          done;
          { observations = h.observations; sum = h.sum; buckets = !buckets });
    series =
      sorted_bindings t.series_tbl (fun s ->
          List.map Array.copy (Ring.to_list s.ring));
  }

let find_counter snap name = List.assoc_opt name snap.counters

let find_gauge snap name = List.assoc_opt name snap.gauges

let find_series snap name = List.assoc_opt name snap.series

let to_text snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "counter %s %d\n" name v))
    snap.counters;
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "gauge %s %d\n" name v))
    snap.gauges;
  List.iter
    (fun (name, h) ->
      Buffer.add_string buf
        (Printf.sprintf "histogram %s observations=%d sum=%d" name h.observations
           h.sum);
      List.iter
        (fun (b, n) ->
          (* bucket b >= 1 covers [2^(b-1), 2^b); bucket 0 covers <= 0 *)
          let lo = if b = 0 then 0 else 1 lsl (b - 1) in
          Buffer.add_string buf (Printf.sprintf " le%d=%d" (max lo 0) n))
        h.buckets;
      Buffer.add_char buf '\n')
    snap.histograms;
  List.iter
    (fun (name, snaps) ->
      List.iteri
        (fun i values ->
          Buffer.add_string buf (Printf.sprintf "series %s[%d]" name i);
          Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v)) values;
          Buffer.add_char buf '\n')
        snaps)
    snap.series;
  Buffer.contents buf
