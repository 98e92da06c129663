(* Static liveness oracle over [Lp_jit.Bytecode] programs.

   A forward abstract interpretation types every stack slot and local
   with the set of classes it can hold ([Access_graph.aval]), records
   which (class, field) slots the program loads and what each slot can
   contain, and iterates method summaries to an interprocedural
   fixpoint. Verdicts then fall out of the access graph read backward:
   a slot the program never loads is dead the moment it is written
   ([Dead_beyond 0]); a loaded slot's remaining dereference depth is
   the longest path through loaded slots of its content classes
   ([Dead_beyond d], d >= 1); a cycle or an untyped value makes the
   remaining traversal unbounded ([Maybe_live]).

   Everything is deterministic: methods are processed in name order,
   global state lives in canonically ordered maps, and the per-method
   worklist is a sorted set whose processing order — permutable via
   [worklist_seed] for the determinism test — cannot change the least
   fixpoint of the monotone transfer functions. *)

open Lp_jit
module AG = Access_graph

type verdict = Dead_beyond of int | Maybe_live | Unanalyzed

let pp_verdict ppf = function
  | Dead_beyond d -> Format.fprintf ppf "dead-beyond-%d" d
  | Maybe_live -> Format.pp_print_string ppf "maybe-live"
  | Unanalyzed -> Format.pp_print_string ppf "unanalyzed"

type oracle = { graph : AG.t; verdicts : verdict AG.Map.t }

(* ------------------------------------------------------------------ *)
(* Field-name resolution: a dotted name qualifies its receiver class
   statically ("PhasedCache$Entry.payload" — the class is everything
   before the last dot, so dotted class names survive); a bare name is
   resolved against the abstract receiver. *)

let split_field name =
  match String.rindex_opt name '.' with
  | Some i ->
    `Qualified
      (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | None -> `Unqualified name

(* ------------------------------------------------------------------ *)
(* Abstract machine state: an operand stack (head = top) and locals.
   States join pointwise; stacks of different depths (ill-disciplined
   input) join over their common top segment. *)

type state = { stack : AG.aval list; locals : AG.aval array }

let pop = function [] -> (AG.Any, []) | v :: rest -> (v, rest)

let rec take n l =
  if n <= 0 then [] else match l with [] -> [] | x :: r -> x :: take (n - 1) r

let join_stack a b =
  let n = min (List.length a) (List.length b) in
  List.map2 AG.join (take n a) (take n b)

let join_state a b =
  {
    stack = join_stack a.stack b.stack;
    locals = Array.map2 AG.join a.locals b.locals;
  }

let state_equal a b =
  List.length a.stack = List.length b.stack
  && List.for_all2 AG.aval_equal a.stack b.stack
  && Array.for_all2 AG.aval_equal a.locals b.locals

(* ------------------------------------------------------------------ *)

module SMap = AG.SMap

type env = {
  mutable graph : AG.t;
  mutable returns : AG.aval SMap.t;  (* method name -> return value *)
  mutable args : AG.aval array SMap.t;  (* method name -> argument seeds *)
  known : (string, Bytecode.methd) Hashtbl.t;
}

let record_args env name popped nargs =
  (* [popped] is top-first, i.e. the last argument first *)
  let supplied = Array.of_list (List.rev popped) in
  let cur =
    match SMap.find_opt name env.args with
    | Some a when Array.length a >= nargs -> a
    | Some a -> Array.append a (Array.make (nargs - Array.length a) AG.bot)
    | None -> Array.make nargs AG.bot
  in
  let next = Array.copy cur in
  Array.iteri
    (fun i v -> if i < Array.length next then next.(i) <- AG.join next.(i) v)
    supplied;
  env.args <- SMap.add name next env.args

(* The transfer function for one instruction. Returns the out state;
   global effects (reads, writes, call seeds, return summaries) land in
   [env]. *)
let transfer env (m : Bytecode.methd) st = function
  | Bytecode.Const _ -> Some { st with stack = AG.bot :: st.stack }
  | Bytecode.Load_local i ->
    let v = if i < Array.length st.locals then st.locals.(i) else AG.Any in
    Some { st with stack = v :: st.stack }
  | Bytecode.Store_local i ->
    let v, stack = pop st.stack in
    let locals = Array.copy st.locals in
    if i < Array.length locals then locals.(i) <- v;
    Some { stack; locals }
  | Bytecode.New_object c -> Some { st with stack = AG.of_class c :: st.stack }
  | Bytecode.Get_field name -> (
    let recv, stack = pop st.stack in
    match split_field name with
    | `Qualified (c, f) ->
      let key = (c, f) in
      env.graph <- AG.add_read env.graph key;
      Some { st with stack = AG.content_of env.graph key :: stack }
    | `Unqualified f -> (
      match recv with
      | AG.Any ->
        env.graph <- AG.add_wild_read env.graph f;
        Some { st with stack = AG.Any :: stack }
      | AG.Classes cs ->
        let v =
          AG.Names.fold
            (fun c acc ->
              let key = (c, f) in
              env.graph <- AG.add_read env.graph key;
              AG.join acc (AG.content_of env.graph key))
            cs AG.bot
        in
        Some { st with stack = v :: stack }))
  | Bytecode.Put_field name -> (
    let v, stack = pop st.stack in
    let recv, stack = pop stack in
    (match split_field name with
    | `Qualified (c, f) -> env.graph <- AG.add_write env.graph (c, f) v
    | `Unqualified f -> (
      match recv with
      | AG.Any -> env.graph <- AG.add_wild_write env.graph f v
      | AG.Classes cs ->
        AG.Names.iter
          (fun c -> env.graph <- AG.add_write env.graph (c, f) v)
          cs));
    Some { st with stack })
  | Bytecode.Get_static name ->
    (* statics loads take no receiver; a bare name is filed under the
       pseudo-class so it still gets a canonical slot *)
    let key =
      match split_field name with
      | `Qualified (c, f) -> (c, f)
      | `Unqualified f -> ("<statics>", f)
    in
    env.graph <- AG.add_read env.graph key;
    Some { st with stack = AG.content_of env.graph key :: st.stack }
  | Bytecode.Array_load -> (
    let _idx, stack = pop st.stack in
    let arr, stack = pop stack in
    match arr with
    | AG.Any ->
      env.graph <- AG.add_wild_read env.graph "[]";
      Some { st with stack = AG.Any :: stack }
    | AG.Classes cs ->
      let v =
        AG.Names.fold
          (fun c acc ->
            let key = (c, "[]") in
            env.graph <- AG.add_read env.graph key;
            AG.join acc (AG.content_of env.graph key))
          cs AG.bot
      in
      Some { st with stack = v :: stack })
  | Bytecode.Array_store ->
    let v, stack = pop st.stack in
    let _idx, stack = pop stack in
    let arr, stack = pop stack in
    (match arr with
    | AG.Any -> env.graph <- AG.add_wild_write env.graph "[]" v
    | AG.Classes cs ->
      AG.Names.iter
        (fun c -> env.graph <- AG.add_write env.graph (c, "[]") v)
        cs);
    Some { st with stack }
  | Bytecode.Add | Bytecode.Sub | Bytecode.Mul | Bytecode.Compare ->
    let _, stack = pop st.stack in
    let _, stack = pop stack in
    Some { st with stack = AG.bot :: stack }
  | Bytecode.Jump _ -> Some st
  | Bytecode.Jump_if_zero _ ->
    let _, stack = pop st.stack in
    Some { st with stack }
  | Bytecode.Call (name, nargs) ->
    let rec pop_n n stack acc =
      if n <= 0 then (acc, stack)
      else
        let v, stack = pop stack in
        pop_n (n - 1) stack (v :: acc)
    in
    let popped_rev, stack = pop_n nargs st.stack [] in
    record_args env name (List.rev popped_rev) nargs;
    let ret =
      if Hashtbl.mem env.known name then
        match SMap.find_opt name env.returns with
        | Some v -> v
        | None -> AG.bot
      else AG.Any  (* a call into code we were not given *)
    in
    Some { st with stack = ret :: stack }
  | Bytecode.Return ->
    (match st.stack with
    | top :: _ ->
      let cur =
        match SMap.find_opt m.Bytecode.name env.returns with
        | Some v -> v
        | None -> AG.bot
      in
      env.returns <- SMap.add m.Bytecode.name (AG.join cur top) env.returns
    | [] -> ());
    None  (* no fallthrough *)

(* One intraprocedural pass to a local fixpoint under the current
   global [env]. The worklist is a sorted pc set; [worklist_seed]
   rotates which element is processed next — the least fixpoint of the
   monotone transfer cannot depend on that order, which is exactly what
   the determinism test asserts. *)
let interp_method env ~worklist_seed (m : Bytecode.methd) =
  let n = Array.length m.Bytecode.code in
  if n > 0 then begin
    let module IS = Set.Make (Int) in
    let states : state option array = Array.make n None in
    let entry_locals = Array.make (max m.Bytecode.n_locals 0) AG.bot in
    (match SMap.find_opt m.Bytecode.name env.args with
    | Some seeds ->
      Array.iteri
        (fun i v -> if i < Array.length entry_locals then entry_locals.(i) <- v)
        seeds
    | None -> ());
    states.(0) <- Some { stack = []; locals = entry_locals };
    let work = ref (IS.singleton 0) in
    let pick = ref worklist_seed in
    while not (IS.is_empty !work) do
      let elts = IS.elements !work in
      let pc = List.nth elts (abs !pick mod List.length elts) in
      pick := !pick + 1;
      work := IS.remove pc !work;
      match states.(pc) with
      | None -> ()
      | Some st -> (
        match transfer env m st m.Bytecode.code.(pc) with
        | None -> ()
        | Some out ->
          List.iter
            (fun succ ->
              let joined =
                match states.(succ) with
                | None -> out
                | Some prev -> join_state prev out
              in
              let changed =
                match states.(succ) with
                | None -> true
                | Some prev -> not (state_equal prev joined)
              in
              if changed then begin
                states.(succ) <- Some joined;
                work := IS.add succ !work
              end)
            (Cfg.successors m pc))
    done
  end

(* ------------------------------------------------------------------ *)

let args_equal a b =
  SMap.equal
    (fun x y -> Array.length x = Array.length y && Array.for_all2 AG.aval_equal x y)
    a b

let max_rounds = 1_000

let verdicts_of_graph g =
  let keys = AG.universe g in
  let memo : (AG.Key.t, verdict) Hashtbl.t = Hashtbl.create 64 in
  let rec eval on_stack key =
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      if AG.Set_.mem key on_stack then Maybe_live  (* cycle: unbounded *)
      else if not (AG.is_read g key) then begin
        Hashtbl.replace memo key (Dead_beyond 0);
        Dead_beyond 0
      end
      else
        let v =
          match AG.content_of g key with
          | AG.Any -> Maybe_live
          | AG.Classes cs ->
            if AG.has_wild_reads g && not (AG.Names.is_empty cs) then
              (* an untyped load exists somewhere: anything reachable
                 from here may be traversed arbitrarily far *)
              Maybe_live
            else
              let on_stack = AG.Set_.add key on_stack in
              let succs =
                List.filter
                  (fun (d, _) -> AG.Names.mem d cs)
                  (List.filter (AG.is_read g) keys)
              in
              List.fold_left
                (fun acc succ ->
                  match (acc, eval on_stack succ) with
                  | Maybe_live, _ | _, Maybe_live -> Maybe_live
                  | Dead_beyond a, Dead_beyond b -> Dead_beyond (max a (1 + b))
                  | x, Unanalyzed | Unanalyzed, x -> x)
                (Dead_beyond 1) succs
        in
        Hashtbl.replace memo key v;
        v
  in
  List.fold_left
    (fun acc key -> AG.Map.add key (eval AG.Set_.empty key) acc)
    AG.Map.empty keys

let analyze ?(worklist_seed = 0) methods =
  (* canonical method order; duplicate names keep the first definition *)
  let methods =
    List.sort_uniq
      (fun (a : Bytecode.methd) b -> compare a.Bytecode.name b.Bytecode.name)
      (List.sort
         (fun (a : Bytecode.methd) b -> compare a.Bytecode.name b.Bytecode.name)
         methods)
  in
  let known = Hashtbl.create 16 in
  List.iter (fun (m : Bytecode.methd) -> Hashtbl.replace known m.Bytecode.name m) methods;
  let env =
    { graph = AG.empty; returns = SMap.empty; args = SMap.empty; known }
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < max_rounds do
    incr rounds;
    let g0 = env.graph and r0 = env.returns and a0 = env.args in
    List.iter (interp_method env ~worklist_seed) methods;
    changed :=
      not
        (AG.equal g0 env.graph
        && SMap.equal AG.aval_equal r0 env.returns
        && args_equal a0 env.args)
  done;
  let verdicts =
    if !changed then
      (* the safety cap fired before the (finite, monotone) fixpoint
         converged — cannot happen for sane inputs, but if it does the
         only sound answer is "everything may still be live" *)
      List.fold_left
        (fun acc key -> AG.Map.add key Maybe_live acc)
        AG.Map.empty (AG.universe env.graph)
    else verdicts_of_graph env.graph
  in
  { graph = env.graph; verdicts }

let graph (o : oracle) = o.graph

let verdict o ~class_name ~field =
  match AG.Map.find_opt (class_name, field) o.verdicts with
  | Some v -> v
  | None -> Unanalyzed

let verdicts o = AG.Map.bindings o.verdicts

let resolve o ~class_id ~field_map =
  let entries = List.sort_uniq compare field_map in
  List.concat_map
    (fun (cname, fname, indices) ->
      match class_id cname with
      | None -> []
      | Some cid ->
        let v = verdict o ~class_name:cname ~field:fname in
        List.map (fun ix -> ((cid, ix), v)) (List.sort_uniq compare indices))
    entries
