open Lp_heap
open Lp_runtime

let string_class = "java.lang.String"
let char_array_class = "char[]"

let alloc_string vm ~chars =
  Vm.with_frame vm ~n_slots:1 (fun frame ->
      let arr = Vm.alloc vm ~class_name:char_array_class ~scalar_bytes:chars ~n_fields:0 () in
      Roots.set_slot frame 0 (Heap_obj.index arr);
      let str = Vm.alloc vm ~class_name:string_class ~n_fields:1 () in
      Mutator.write_obj vm str 0 (Vm.deref vm (Roots.get_slot frame 0));
      str)

let string_length vm str =
  let arr = Mutator.read_exn vm str 0 in
  Store.scalar_bytes (Vm.store vm) arr

let alloc_array vm ?(class_name = "Object[]") ~len () =
  Vm.alloc vm ~class_name ~n_fields:len ()

module List_field = struct
  let push vm ~node_class ~holder ~field ~payload =
    Vm.with_frame vm ~n_slots:2 (fun frame ->
        (match payload with
        | Some p -> Roots.set_slot frame 0 (Heap_obj.index p)
        | None -> ());
        let node = Vm.alloc vm ~class_name:node_class ~n_fields:2 () in
        Roots.set_slot frame 1 (Heap_obj.index node);
        (match Mutator.read vm holder field with
        | Some head -> Mutator.write_obj vm node 0 head
        | None -> ());
        (match payload with
        | Some _ ->
          Mutator.write_obj vm node 1 (Vm.deref vm (Roots.get_slot frame 0))
        | None -> ());
        Mutator.write_obj vm holder field node;
        node)

  let iter vm ~holder ~field f =
    let rec walk = function
      | None -> ()
      | Some node ->
        f node;
        walk (Mutator.read vm node 0)
    in
    walk (Mutator.read vm holder field)

  let length vm ~holder ~field =
    let n = ref 0 in
    iter vm ~holder ~field (fun _ -> incr n);
    !n
end

module Vector = struct
  type t = {
    vm : Vm.t;
    holder : Heap_obj.t;
    field : int;
    mutable size : int;
    mutable capacity : int;
  }

  let vector_class = "java.util.Vector"

  let create vm ~holder ~field ~initial_capacity =
    Vm.with_frame vm ~n_slots:1 (fun frame ->
        let vec = Vm.alloc vm ~class_name:vector_class ~n_fields:1 () in
        Roots.set_slot frame 0 (Heap_obj.index vec);
        let backing = alloc_array vm ~len:initial_capacity () in
        let vec = Vm.deref vm (Roots.get_slot frame 0) in
        Mutator.write_obj vm vec 0 backing;
        Mutator.write_obj vm holder field vec);
    { vm; holder; field; size = 0; capacity = initial_capacity }

  let size t = t.size

  let vector t = Mutator.read_exn t.vm t.holder t.field

  let grow t =
    let vm = t.vm in
    Vm.with_frame vm ~n_slots:1 (fun frame ->
        let vec = vector t in
        Roots.set_slot frame 0 (Heap_obj.index vec);
        let bigger = alloc_array vm ~len:(2 * t.capacity) () in
        let vec = Vm.deref vm (Roots.get_slot frame 0) in
        let old = Mutator.read_exn vm vec 0 in
        Mutator.arraycopy vm ~src:old ~src_pos:0 ~dst:bigger ~dst_pos:0
          ~len:t.capacity;
        Mutator.write_obj vm vec 0 bigger);
    t.capacity <- 2 * t.capacity

  let add t payload =
    let vm = t.vm in
    Vm.with_frame vm ~n_slots:1 (fun frame ->
        Roots.set_slot frame 0 (Heap_obj.index payload);
        if t.size = t.capacity then grow t;
        let backing = Mutator.read_exn vm (vector t) 0 in
        Mutator.write_obj vm backing t.size (Vm.deref vm (Roots.get_slot frame 0)));
    t.size <- t.size + 1

  let get t i =
    if i < 0 || i >= t.size then invalid_arg "Jheap.Vector.get";
    let backing = Mutator.read_exn t.vm (vector t) 0 in
    Mutator.read t.vm backing i

  let iter t f =
    if t.size > 0 then begin
      let backing = Mutator.read_exn t.vm (vector t) 0 in
      for i = 0 to t.size - 1 do
        f i (Mutator.read t.vm backing i)
      done
    end

  let exchange a b =
    let size = a.size and capacity = a.capacity in
    a.size <- b.size;
    a.capacity <- b.capacity;
    b.size <- size;
    b.capacity <- capacity
end

module Hash_table = struct
  type t = {
    vm : Vm.t;
    holder : Heap_obj.t;
    field : int;
    keys : (int, int) Hashtbl.t;  (* entry object id -> key (bookkeeping) *)
    mutable buckets : int;
    mutable count : int;
    mutable rehashes : int;
  }

  let entry_class = "HashEntry"

  let create vm ~holder ~field ~initial_buckets =
    let backing = alloc_array vm ~len:initial_buckets () in
    Mutator.write_obj vm holder field backing;
    {
      vm;
      holder;
      field;
      keys = Hashtbl.create 64;
      buckets = initial_buckets;
      count = 0;
      rehashes = 0;
    }

  let bucket_of key n = (key * 0x9E3779B1) land max_int mod n

  let entry_count t = t.count

  let rehash_count t = t.rehashes

  (* Reads every entry and its payload reference while redistributing the
     chains into a bigger backing array — the access pattern that keeps
     MySQL's statement objects live (Section 6). *)
  let rehash t =
    t.rehashes <- t.rehashes + 1;
    let vm = t.vm in
    let new_buckets = 2 * t.buckets in
    Vm.with_frame vm ~n_slots:2 (fun frame ->
        let fresh = alloc_array vm ~len:new_buckets () in
        Roots.set_slot frame 0 (Heap_obj.index fresh);
        let old = Mutator.read_exn vm t.holder t.field in
        for b = 0 to t.buckets - 1 do
          let rec move entry_opt =
            match entry_opt with
            | None -> ()
            | Some entry ->
              let next = Mutator.read vm entry 0 in
              (* Touch the payload, as Java rehashing recomputes hash
                 codes from the stored objects. *)
              ignore (Mutator.read vm entry 1);
              let key =
                Option.value ~default:0 (Hashtbl.find_opt t.keys (Heap_obj.index entry))
              in
              let fresh = Vm.deref vm (Roots.get_slot frame 0) in
              let nb = bucket_of key new_buckets in
              (match Mutator.read vm fresh nb with
              | Some head -> Mutator.write_obj vm entry 0 head
              | None -> Mutator.clear vm entry 0);
              Mutator.write_obj vm fresh nb entry;
              move next
          in
          move (Mutator.read vm old b)
        done;
        let fresh = Vm.deref vm (Roots.get_slot frame 0) in
        Mutator.write_obj vm t.holder t.field fresh);
    t.buckets <- new_buckets

  let lookup_sweep t ?touch_payloads_in ~stride ~offset () =
    if stride <= 0 then invalid_arg "Jheap.Hash_table.lookup_sweep";
    let vm = t.vm in
    let backing = Mutator.read_exn vm t.holder t.field in
    let payload_bucket =
      match touch_payloads_in with Some b -> b mod t.buckets | None -> -1
    in
    let scan_bucket b =
      let payloads = b = payload_bucket in
      let rec scan = function
        | None -> ()
        | Some e ->
          if payloads then ignore (Mutator.read vm e 1);
          scan (Mutator.read vm e 0)
      in
      scan (Mutator.read vm backing b)
    in
    if payload_bucket >= 0 then scan_bucket payload_bucket;
    let b = ref (offset mod stride) in
    while !b < t.buckets do
      if !b <> payload_bucket then scan_bucket !b;
      b := !b + stride
    done

  let buckets t = t.buckets

  let insert t ~key ~payload =
    let vm = t.vm in
    Vm.with_frame vm ~n_slots:2 (fun frame ->
        (* Root the payload before any rehash/allocation can collect. *)
        Roots.set_slot frame 0 (Heap_obj.index payload);
        if t.count + 1 > t.buckets * 3 / 4 then rehash t;
        let entry = Vm.alloc vm ~class_name:entry_class ~n_fields:2 () in
        Roots.set_slot frame 1 (Heap_obj.index entry);
        Hashtbl.replace t.keys (Heap_obj.index entry) key;
        let backing = Mutator.read_exn vm t.holder t.field in
        let b = bucket_of key t.buckets in
        (* Walk the bucket chain as a real HashMap's key-equality scan
           does; this reads every entry (keeping entries fresh) but never
           the payloads. *)
        let rec scan = function
          | None -> ()
          | Some e -> scan (Mutator.read vm e 0)
        in
        scan (Mutator.read vm backing b);
        (match Mutator.read vm backing b with
        | Some head -> Mutator.write_obj vm entry 0 head
        | None -> ());
        Mutator.write_obj vm entry 1 (Vm.deref vm (Roots.get_slot frame 0));
        Mutator.write_obj vm backing b entry);
    t.count <- t.count + 1
end
