#include "graph/builder.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.hpp"

namespace g10::graph {

GraphBuilder::GraphBuilder(VertexId vertex_count) : n_(vertex_count) {}

void GraphBuilder::add_edge(VertexId src, VertexId dst) {
  G10_CHECK_MSG(src < n_ && dst < n_,
                "edge (" << src << "," << dst << ") out of range, n=" << n_);
  src_.push_back(src);
  dst_.push_back(dst);
  if (!weights_.empty()) weights_.push_back(1.0);
}

void GraphBuilder::add_edge(VertexId src, VertexId dst, double weight) {
  G10_CHECK_MSG(src < n_ && dst < n_,
                "edge (" << src << "," << dst << ") out of range, n=" << n_);
  if (weights_.empty()) {
    // The first weighted edge: every earlier edge weighs 1.
    weights_.reserve(src_.capacity());
    weights_.assign(src_.size(), 1.0);
  }
  src_.push_back(src);
  dst_.push_back(dst);
  weights_.push_back(weight);
}

void GraphBuilder::reserve(std::size_t edges) {
  src_.reserve(edges);
  dst_.reserve(edges);
}

Graph GraphBuilder::build(const Options& options) {
  const bool weighted = !weights_.empty();
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n_) + 1, 0);
  std::vector<VertexId> targets;
  std::vector<double> target_weights;
  {
    // The pending edges are released at the end of this scope.
    const std::vector<VertexId> src = std::exchange(src_, {});
    const std::vector<VertexId> dst = std::exchange(dst_, {});
    const std::vector<double> weights = std::exchange(weights_, {});
    const auto kept = [&](std::size_t i) {
      return !options.remove_self_loops || src[i] != dst[i];
    };
    // Counting sort by source: the row sizes are the CSR offsets. A
    // symmetrized edge also lands in its target's row.
    for (std::size_t i = 0; i < src.size(); ++i) {
      if (!kept(i)) continue;
      ++offsets[src[i] + 1];
      if (options.symmetrize) ++offsets[dst[i] + 1];
    }
    for (VertexId v = 0; v < n_; ++v) offsets[v + 1] += offsets[v];
    targets.resize(offsets[n_]);
    if (weighted) target_weights.resize(offsets[n_]);
    std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
    const auto place = [&](VertexId from, VertexId to, std::size_t i) {
      const EdgeIndex slot = cursor[from]++;
      targets[slot] = to;
      if (weighted) target_weights[slot] = weights[i];
    };
    for (std::size_t i = 0; i < src.size(); ++i) {
      if (!kept(i)) continue;
      place(src[i], dst[i], i);
      if (options.symmetrize) place(dst[i], src[i], i);
    }
  }

  // Sort each row by (target, weight) and compact in place. The first of
  // a run of parallel edges is the lightest, which deduplication keeps.
  std::vector<std::pair<VertexId, double>> row;
  EdgeIndex out = 0;
  EdgeIndex begin = 0;
  for (VertexId v = 0; v < n_; ++v) {
    const EdgeIndex end = offsets[v + 1];
    const std::span<VertexId> ids(targets.data() + begin, end - begin);
    if (weighted) {
      row.clear();
      for (EdgeIndex e = begin; e < end; ++e) {
        row.emplace_back(targets[e], target_weights[e]);
      }
      std::sort(row.begin(), row.end());
      for (EdgeIndex i = 0; i < row.size(); ++i) {
        ids[i] = row[i].first;
        target_weights[begin + i] = row[i].second;
      }
    } else {
      std::sort(ids.begin(), ids.end());
    }
    const EdgeIndex row_out = out;
    for (EdgeIndex e = begin; e < end; ++e) {
      if (options.deduplicate && out > row_out &&
          targets[out - 1] == targets[e]) {
        continue;
      }
      targets[out] = targets[e];
      if (weighted) target_weights[out] = target_weights[e];
      ++out;
    }
    offsets[v + 1] = out;
    begin = end;
  }
  if (out < targets.size()) {
    targets.resize(out);
    targets.shrink_to_fit();
    if (weighted) {
      target_weights.resize(out);
      target_weights.shrink_to_fit();
    }
  }

  Graph graph(std::move(offsets), std::move(targets), options.symmetrize,
              options.name);
  if (weighted) graph.set_weights(std::move(target_weights));
  return graph;
}

}  // namespace g10::graph
