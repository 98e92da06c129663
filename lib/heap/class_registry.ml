type id = int

type t = {
  by_name : (string, id) Hashtbl.t;
  mutable names : string array;
  mutable count : int;
}

let create () = { by_name = Hashtbl.create 64; names = Array.make 64 ""; count = 0 }

let grow t =
  if t.count = Array.length t.names then begin
    let names = Array.make (2 * t.count) "" in
    Array.blit t.names 0 names 0 t.count;
    t.names <- names
  end

let register t name =
  match Hashtbl.find_opt t.by_name name with
  | Some id -> id
  | None ->
    grow t;
    let id = t.count in
    t.names.(id) <- name;
    t.count <- t.count + 1;
    Hashtbl.add t.by_name name id;
    id

let name t id =
  if id < 0 || id >= t.count then invalid_arg "Class_registry.name";
  t.names.(id)

let find t n = Hashtbl.find_opt t.by_name n

let count t = t.count
