type t = { slots : (int * int, unit) Hashtbl.t }

let create () = { slots = Hashtbl.create 256 }

let add t ~src_id ~field = Hashtbl.replace t.slots (src_id, field) ()

(* The strict verifier asks after every collection, most often of a VM
   that is not generational: an empty set answers without walking its
   buckets. *)
let iter t f =
  if Hashtbl.length t.slots > 0 then
    Hashtbl.iter (fun (src_id, field) () -> f ~src_id ~field) t.slots

let clear t = Hashtbl.reset t.slots
