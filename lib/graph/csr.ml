type t = Graph.csr = private {
  n : int;
  xadj : Csr_store.ba;
  adjncy : Csr_store.ba;
  weights : Csr_store.ba option;
  max_weight : int;
}

let of_graph = Graph.to_csr

let snapshot = Graph.snapshot

let of_stream = Csr_store.of_stream

let of_weighted_stream = Csr_store.of_weighted_stream

let empty = Csr_store.empty

let n = Csr_store.n

let m = Csr_store.m

let degree = Csr_store.degree

let iter_neighbors = Csr_store.iter_row

let fold_neighbors = Csr_store.fold_row

let mem_edge = Csr_store.mem

let iter_edges = Csr_store.iter_edges

let is_weighted = Csr_store.is_weighted

let max_weight = Csr_store.max_weight

let edge_weight = Csr_store.weight

let iter_neighbors_w = Csr_store.iter_row_w

let iter_edges_w = Csr_store.iter_edges_w
