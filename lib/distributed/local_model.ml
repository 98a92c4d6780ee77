type 'msg outbox = (int * 'msg) list

type ('state, 'msg) step =
  round:int -> me:int -> neighbors:int array -> 'state -> (int * 'msg) list -> 'state * 'msg outbox

type stats = { rounds : int; messages : int }

(* Observed LOCAL complexity: rounds and messages accumulate across every
   simulated protocol run, so "rounds per run" vs. the paper's O(1)/O(log n)
   bounds is a checkable metric ([local.runs] gives the divisor). *)
let m_runs = Metrics.counter "local.runs"
let m_rounds = Metrics.counter "local.rounds"
let m_messages = Metrics.counter "local.messages"
let m_round_messages = Metrics.gauge "local.round_messages"

let run g ~rounds ~init ~step =
  Trace.with_span ~name:"local.run" @@ fun () ->
  let n = Graph.n g in
  let neighbors =
    Array.init n (fun v ->
        let ns = Array.make (Graph.degree g v) 0 in
        let i = ref 0 in
        Graph.iter_neighbors g v (fun x ->
            ns.(!i) <- x;
            incr i);
        ns)
  in
  let states = Array.init n init in
  let inboxes = Array.make n [] in
  let messages = ref 0 in
  for round = 0 to rounds - 1 do
    let at_round_start = !messages in
    let next_inboxes = Array.make n [] in
    for v = 0 to n - 1 do
      let inbox = List.sort (fun (a, _) (b, _) -> compare a b) inboxes.(v) in
      let state, outbox = step ~round ~me:v ~neighbors:neighbors.(v) states.(v) inbox in
      states.(v) <- state;
      List.iter
        (fun (dst, msg) ->
          if not (Graph.mem_edge g v dst) then
            invalid_arg "Local_model.run: message to a non-neighbor";
          incr messages;
          next_inboxes.(dst) <- (v, msg) :: next_inboxes.(dst))
        outbox
    done;
    Metrics.set_gauge m_round_messages (!messages - at_round_start);
    Array.blit next_inboxes 0 inboxes 0 n
  done;
  Metrics.incr m_runs;
  Metrics.add m_rounds rounds;
  Metrics.add m_messages !messages;
  (states, { rounds; messages = !messages })
