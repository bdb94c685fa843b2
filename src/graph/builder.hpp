// Edge-list accumulation and conversion to CSR.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace g10::graph {

/// Accumulates (src, dst) pairs and finalizes into a Graph.
///
/// Finalization sorts rows, optionally removes self-loops and duplicate
/// edges, and optionally symmetrizes (adds the reverse of every edge) for
/// undirected datasets. Edges are held as parallel source and target
/// arrays; the weight array exists only once a weighted edge arrives.
class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId vertex_count);

  void add_edge(VertexId src, VertexId dst);

  /// Weighted variant; mixing with the unweighted overload gives the
  /// unweighted edges weight 1.
  void add_edge(VertexId src, VertexId dst, double weight);

  void reserve(std::size_t edges);

  std::size_t pending_edges() const { return src_.size(); }
  VertexId vertex_count() const { return n_; }

  struct Options {
    bool symmetrize = false;       ///< add reverse edges (undirected graph)
    bool remove_self_loops = true; ///< drop (v, v)
    bool deduplicate = true;       ///< collapse parallel edges
    std::string name = "graph";
  };

  /// Consumes the builder. The builder is empty afterwards. Rows come out
  /// sorted by (target, weight); deduplication keeps the lightest of each
  /// set of parallel edges.
  Graph build(const Options& options);

 private:
  VertexId n_;
  std::vector<VertexId> src_;
  std::vector<VertexId> dst_;
  std::vector<double> weights_;  ///< empty until the first weighted edge
};

}  // namespace g10::graph
