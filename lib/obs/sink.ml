type t = {
  ring : Event.stamped Ring.t;
  clock : unit -> int;
  mutable seq : int;
}

let default_capacity = 65_536

let create ?(capacity = default_capacity) ~clock () =
  { ring = Ring.create ~capacity; clock; seq = 0 }

let emit t ev =
  Ring.push t.ring { Event.seq = t.seq; at = t.clock (); ev };
  t.seq <- t.seq + 1

let events t = Ring.to_list t.ring

let iter t f = Ring.iter t.ring f

let length t = Ring.length t.ring

let dropped t = Ring.dropped t.ring

let clear t = Ring.clear t.ring
