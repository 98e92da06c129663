type t = { slots : (int * int, unit) Hashtbl.t }

let create () = { slots = Hashtbl.create 256 }

let add t ~src_id ~field = Hashtbl.replace t.slots (src_id, field) ()

let iter t f = Hashtbl.iter (fun (src_id, field) () -> f ~src_id ~field) t.slots

let clear t = Hashtbl.reset t.slots
