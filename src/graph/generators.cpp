#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "graph/builder.hpp"

namespace g10::graph {

Graph generate_rmat(const RmatParams& params) {
  G10_CHECK(params.scale > 0 && params.scale < 31);
  G10_CHECK(params.a > 0 && params.b >= 0 && params.c >= 0);
  const double d = 1.0 - params.a - params.b - params.c;
  G10_CHECK_MSG(d >= 0.0, "RMAT quadrant probabilities must sum to <= 1");

  const auto n = static_cast<VertexId>(1u << params.scale);
  const auto m = static_cast<EdgeIndex>(
      params.edge_factor * static_cast<double>(n));
  // Per-bit quadrant choice: the top half (src bit 0) with probability
  // (a + b) * noise, then the right half (dst bit 1) with probability
  // 1 - a_frac on top, 1 - c_frac at the bottom.
  const double ab_base = params.a + params.b;
  const double a_frac = params.a / ab_base;
  const double c_frac = (params.c + d) > 0 ? params.c / (params.c + d) : 0.0;
  Rng rng(params.seed);
  GraphBuilder builder(n);
  builder.reserve(m);
  for (EdgeIndex e = 0; e < m; ++e) {
    VertexId src = 0;
    VertexId dst = 0;
    for (int bit = params.scale - 1; bit >= 0; --bit) {
      // Noise on the quadrant probabilities avoids exact self-similarity
      // artifacts (standard "smoothing" used by graph500 generators).
      const double noise = 0.9 + 0.2 * rng.next_double();
      const double ab = ab_base * noise;
      const double r1 = rng.next_double();
      const double r2 = rng.next_double();
      const bool lower = r1 >= ab;
      src |= static_cast<VertexId>(lower) << bit;
      dst |= static_cast<VertexId>(r2 >= (lower ? c_frac : a_frac)) << bit;
    }
    builder.add_edge(src, dst);
  }
  GraphBuilder::Options options;
  options.symmetrize = params.undirected;
  options.name = "rmat-s" + std::to_string(params.scale);
  return builder.build(options);
}

void assign_random_weights(Graph& graph, double lo, double hi,
                           std::uint64_t seed) {
  G10_CHECK(lo <= hi);
  std::vector<double> weights(graph.edge_count());
  for (VertexId u = 0; u < graph.vertex_count(); ++u) {
    const auto nbrs = graph.out_neighbors(u);
    for (EdgeIndex i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      // Derive the weight from the (unordered) endpoint pair so both
      // directions of a symmetrized edge agree, independent of iteration
      // order.
      const VertexId a = std::min(u, v);
      const VertexId b = std::max(u, v);
      std::uint64_t mix = seed ^ (static_cast<std::uint64_t>(a) << 32) ^
                          static_cast<std::uint64_t>(b);
      const std::uint64_t bits = splitmix64_next(mix);
      const double unit =
          static_cast<double>(bits >> 11) * 0x1.0p-53;  // [0, 1)
      weights[graph.edge_id(u, i)] = lo + (hi - lo) * unit;
    }
  }
  graph.set_weights(std::move(weights));
}

Graph generate_datagen_like(const DatagenParams& params) {
  G10_CHECK(params.vertices > 1);
  G10_CHECK(params.communities > 0);
  G10_CHECK(params.intra_community_fraction >= 0.0 &&
            params.intra_community_fraction <= 1.0);
  Rng rng(params.seed);

  // Assign every vertex to a community with Zipf-skewed popularity.
  std::vector<std::uint32_t> community(params.vertices);
  for (auto& c : community) {
    c = static_cast<std::uint32_t>(
        rng.next_zipf(params.communities, params.community_zipf_s));
  }
  // Bucket members per community for fast intra-community sampling.
  std::vector<std::vector<VertexId>> members(params.communities);
  for (VertexId v = 0; v < params.vertices; ++v) {
    members[community[v]].push_back(v);
  }

  const auto target_edges = static_cast<EdgeIndex>(
      params.mean_degree * static_cast<double>(params.vertices) /
      (params.undirected ? 2.0 : 1.0));
  GraphBuilder builder(params.vertices);
  builder.reserve(target_edges);
  const auto n64 = static_cast<std::uint64_t>(params.vertices);
  for (EdgeIndex e = 0; e < target_edges; ++e) {
    const auto src = static_cast<VertexId>(rng.next_below(n64));
    VertexId dst = src;
    if (rng.next_bool(params.intra_community_fraction) &&
        members[community[src]].size() > 1) {
      const auto& bucket = members[community[src]];
      dst = bucket[rng.next_below(bucket.size())];
    } else {
      // Preferential cross-community edge: sample a Zipf-skewed vertex so a
      // few vertices become global hubs (degree skew drives imbalance).
      dst = static_cast<VertexId>(rng.next_zipf(n64, 0.8));
    }
    if (dst == src) continue;
    builder.add_edge(src, dst);
  }
  GraphBuilder::Options options;
  options.symmetrize = params.undirected;
  options.name = "datagen-n" + std::to_string(params.vertices);
  return builder.build(options);
}

DatasetSpec parse_dataset(std::string_view spec) {
  DatasetSpec parsed;
  const std::size_t colon = spec.find(':');
  const std::string_view kind = spec.substr(0, colon);
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  if (kind == "rmat") {
    parsed.kind = DatasetSpec::Kind::kRmat;
    lo = 1;
    hi = 30;  // 2^scale vertex ids must fit a VertexId
  } else if (kind == "datagen") {
    parsed.kind = DatasetSpec::Kind::kDatagen;
    lo = 2;
    hi = std::numeric_limits<VertexId>::max();
  } else {
    return parsed;
  }
  if (colon == std::string_view::npos) return parsed;
  const auto size = parse_int(spec.substr(colon + 1));
  if (size && *size >= lo && *size <= hi) parsed.size = size;
  return parsed;
}

Graph generate_dataset(const DatasetSpec& spec) {
  G10_CHECK(spec.ok());
  if (spec.kind == DatasetSpec::Kind::kRmat) {
    RmatParams params;
    params.scale = static_cast<int>(*spec.size);
    return generate_rmat(params);
  }
  DatagenParams params;
  params.vertices = static_cast<VertexId>(*spec.size);
  return generate_datagen_like(params);
}

}  // namespace g10::graph
