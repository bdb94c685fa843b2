// Compressed-sparse-row graph storage.
//
// Both simulated engines and the reference algorithm implementations operate
// on this structure. Graphs are stored directed; undirected datasets are
// symmetrized at build time. Optional in-edge (reverse CSR) indexes are built
// lazily because only some algorithms (e.g. pull-based PageRank, GAS gather
// over in-edges) need them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace g10::graph {

using VertexId = std::uint32_t;
using EdgeIndex = std::uint64_t;

/// Immutable CSR graph. Construct via GraphBuilder.
class Graph {
 public:
  Graph() = default;

  /// Takes ownership of validated CSR arrays. offsets.size() == n + 1,
  /// offsets.front() == 0, offsets.back() == targets.size(), rows sorted.
  Graph(std::vector<EdgeIndex> out_offsets, std::vector<VertexId> out_targets,
        bool undirected, std::string name);

  /// Attaches per-edge weights (indexed by global edge id / CSR position).
  /// Must match edge_count(). Unweighted graphs report weight 1 everywhere.
  void set_weights(std::vector<double> weights);
  bool weighted() const { return !weights_.empty(); }
  double edge_weight(EdgeIndex id) const {
    return weights_.empty() ? 1.0 : weights_[id];
  }
  /// Weights aligned with out_neighbors(v); empty span when unweighted.
  std::span<const double> out_weights(VertexId v) const {
    if (weights_.empty()) return {};
    return {weights_.data() + out_offsets_[v],
            weights_.data() + out_offsets_[v + 1]};
  }
  /// Weight of the in-edge aligned with in_neighbors(v)[i].
  double in_weight(VertexId v, EdgeIndex i) const;

  VertexId vertex_count() const {
    return out_offsets_.empty()
               ? 0
               : static_cast<VertexId>(out_offsets_.size() - 1);
  }
  EdgeIndex edge_count() const { return out_targets_.size(); }
  bool undirected() const { return undirected_; }
  const std::string& name() const { return name_; }

  /// Out-neighbors of v, sorted ascending.
  std::span<const VertexId> out_neighbors(VertexId v) const {
    return {out_targets_.data() + out_offsets_[v],
            out_targets_.data() + out_offsets_[v + 1]};
  }
  EdgeIndex out_degree(VertexId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }

  /// In-neighbors of v; builds the reverse index on first use.
  std::span<const VertexId> in_neighbors(VertexId v) const;
  EdgeIndex in_degree(VertexId v) const;

  /// Global edge ids aligned with in_neighbors(v): in_edge_ids(v)[i] is the
  /// CSR id of the edge (in_neighbors(v)[i], v). Lets callers batch-resolve
  /// in-edge weights and edge ownership without per-edge in_weight() calls.
  std::span<const EdgeIndex> in_edge_ids(VertexId v) const;

  /// Global edge id of the e-th out-edge of v (CSR position).
  EdgeIndex edge_id(VertexId v, EdgeIndex e_local) const {
    return out_offsets_[v] + e_local;
  }

  /// True if the directed edge (u, v) exists (binary search).
  bool has_edge(VertexId u, VertexId v) const;

  const std::vector<EdgeIndex>& out_offsets() const { return out_offsets_; }
  const std::vector<VertexId>& out_targets() const { return out_targets_; }

  /// Builds the reverse index now. The lazy build on first use is not
  /// synchronized: call this before sharing one graph across threads.
  void ensure_in_index() const;

 private:

  std::vector<EdgeIndex> out_offsets_;
  std::vector<VertexId> out_targets_;
  std::vector<double> weights_;  ///< empty = unweighted
  bool undirected_ = false;
  std::string name_;

  // Reverse CSR, built lazily (logically const: derived data).
  mutable std::vector<EdgeIndex> in_offsets_;
  mutable std::vector<VertexId> in_sources_;
  mutable std::vector<EdgeIndex> in_edge_ids_;  ///< original edge id
  mutable bool in_built_ = false;
};

}  // namespace g10::graph
