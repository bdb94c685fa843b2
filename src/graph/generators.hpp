// Synthetic graph generators standing in for the Graphalytics datasets used
// in the paper's evaluation (see DESIGN.md §1). All generators are
// deterministic given their seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "graph/graph.hpp"

namespace g10::graph {

/// R-MAT / graph500-style power-law generator.
struct RmatParams {
  int scale = 14;            ///< 2^scale vertices
  double edge_factor = 16.0; ///< edges = edge_factor * vertices
  double a = 0.57, b = 0.19, c = 0.19;  ///< quadrant probabilities; d = 1-a-b-c
  bool undirected = false;
  std::uint64_t seed = 1;
};
Graph generate_rmat(const RmatParams& params);

/// Attaches uniform-random edge weights in [lo, hi) — the stand-in for
/// Graphalytics' weighted datasets (SSSP workloads). Deterministic by seed.
/// Symmetrized graphs get symmetric weights: each undirected pair {u, v}
/// carries the same weight in both directions.
void assign_random_weights(Graph& graph, double lo, double hi,
                           std::uint64_t seed);

/// LDBC-Datagen-like clustered power-law graph: vertices are grouped into
/// communities with Zipf-distributed sizes; most edges stay inside a
/// community, the rest connect communities preferentially by degree. This
/// reproduces the community structure that makes CDLP workloads interesting
/// and the degree skew that drives load imbalance.
struct DatagenParams {
  VertexId vertices = 1 << 14;
  double mean_degree = 20.0;
  double intra_community_fraction = 0.7;  ///< fraction of edges inside
  double community_zipf_s = 1.3;          ///< community size skew
  std::uint32_t communities = 256;
  bool undirected = true;
  std::uint64_t seed = 1;
};
Graph generate_datagen_like(const DatagenParams& params);

/// A dataset as the tools name it: "rmat:<scale>" (2^scale vertices) or
/// "datagen:<vertices>", generated with otherwise default parameters.
struct DatasetSpec {
  enum class Kind { kUnknown, kRmat, kDatagen };
  Kind kind = Kind::kUnknown;
  /// The scale or vertex count; nullopt unless a whole number in the
  /// generator's range.
  std::optional<std::int64_t> size;

  bool ok() const { return kind != Kind::kUnknown && size.has_value(); }
};
DatasetSpec parse_dataset(std::string_view spec);

/// Generates a dataset whose spec is ok().
Graph generate_dataset(const DatasetSpec& spec);

}  // namespace g10::graph
