#include "graph/partition.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace g10::graph {

EdgeCutPartition partition_by_hash(const Graph& graph, PartitionId parts) {
  G10_CHECK(parts > 0);
  EdgeCutPartition result;
  result.partition_count = parts;
  result.owner.resize(graph.vertex_count());
  for (VertexId v = 0; v < graph.vertex_count(); ++v) {
    // Multiplicative hash avoids correlating with generator id patterns.
    const std::uint64_t h = (static_cast<std::uint64_t>(v) + 1) *
                            0x9E3779B97F4A7C15ULL;
    result.owner[v] = static_cast<PartitionId>((h >> 32) % parts);
  }
  return result;
}

std::vector<EdgeIndex> VertexCutPartition::edge_counts() const {
  std::vector<EdgeIndex> counts(partition_count, 0);
  for (PartitionId p : edge_owner) ++counts[p];
  return counts;
}

double VertexCutPartition::replication_factor() const {
  std::size_t present = 0;
  for (std::size_t v = 0; v + 1 < replica_offsets.size(); ++v) {
    if (replica_offsets[v + 1] > replica_offsets[v]) ++present;
  }
  return present == 0 ? 0.0
                      : static_cast<double>(replica_parts.size()) /
                            static_cast<double>(present);
}

namespace {

/// Shared finalization: derive per-vertex replica sets and masters from an
/// edge assignment. The master is the replica holding the most of the
/// vertex's edges (ties to the lowest partition id).
VertexCutPartition finalize_vertex_cut(const Graph& graph, PartitionId parts,
                                       std::vector<PartitionId> edge_owner) {
  VertexCutPartition result;
  result.partition_count = parts;
  result.edge_owner = std::move(edge_owner);
  const VertexId n = graph.vertex_count();
  result.replica_offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  result.replica_parts.reserve(n);  // a non-isolated vertex has at least one
  result.master.assign(n, 0);

  // Per-vertex edge counts in one dense counter per partition; the touched
  // list names the nonzero ones, so each vertex resets only what it used.
  std::vector<EdgeIndex> count(parts, 0);
  std::vector<PartitionId> touched;
  const auto add = [&](EdgeIndex id) {
    const PartitionId p = result.edge_owner[id];
    if (count[p]++ == 0) touched.push_back(p);
  };
  const auto& offsets = graph.out_offsets();
  for (VertexId v = 0; v < n; ++v) {
    for (EdgeIndex e = offsets[v]; e < offsets[v + 1]; ++e) add(e);
    for (const EdgeIndex id : graph.in_edge_ids(v)) add(id);
    std::sort(touched.begin(), touched.end());
    EdgeIndex best = 0;
    for (const PartitionId p : touched) {
      if (count[p] > best) {
        best = count[p];
        result.master[v] = p;
      }
      count[p] = 0;
    }
    // An isolated vertex touches nothing: an empty replica row.
    result.replica_parts.insert(result.replica_parts.end(), touched.begin(),
                                touched.end());
    result.replica_offsets[static_cast<std::size_t>(v) + 1] =
        result.replica_parts.size();
    touched.clear();
  }
  return result;
}

}  // namespace

VertexCutPartition partition_vertex_cut_greedy(const Graph& graph,
                                               PartitionId parts) {
  G10_CHECK(parts > 0);
  const VertexId n = graph.vertex_count();
  std::vector<PartitionId> edge_owner(graph.edge_count());
  std::vector<EdgeIndex> load(parts, 0);
  // Per-vertex replica bitmask; fine for the partition counts we simulate.
  G10_CHECK_MSG(parts <= 64, "greedy vertex-cut supports up to 64 partitions");
  std::vector<std::uint64_t> present(n, 0);

  // PowerGraph/HDRF-style greedy: prefer partitions already holding the
  // endpoints, plus a normalized balance term. The balance coefficient is
  // above 1 so that once a hub's partition becomes the most loaded, the
  // hub is replicated onto an emptier partition instead of clumping all of
  // its edges in one place.
  constexpr double kBalanceWeight = 1.2;
  for (VertexId u = 0; u < n; ++u) {
    const auto nbrs = graph.out_neighbors(u);
    for (EdgeIndex i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      EdgeIndex min_load = std::numeric_limits<EdgeIndex>::max();
      EdgeIndex max_load = 0;
      for (PartitionId p = 0; p < parts; ++p) {
        min_load = std::min(min_load, load[p]);
        max_load = std::max(max_load, load[p]);
      }
      const double spread =
          static_cast<double>(max_load - min_load) + 1.0;
      PartitionId target = 0;
      double best_score = -1.0;
      for (PartitionId p = 0; p < parts; ++p) {
        const double has_u = (present[u] >> p) & 1u ? 1.0 : 0.0;
        const double has_v = (present[v] >> p) & 1u ? 1.0 : 0.0;
        const double balance =
            static_cast<double>(max_load - load[p]) / spread;
        const double score = has_u + has_v + kBalanceWeight * balance;
        if (score > best_score) {
          best_score = score;
          target = p;
        }
      }
      edge_owner[graph.edge_id(u, i)] = target;
      ++load[target];
      present[u] |= (1ull << target);
      present[v] |= (1ull << target);
    }
  }
  return finalize_vertex_cut(graph, parts, std::move(edge_owner));
}

VertexCutPartition partition_vertex_cut_random(const Graph& graph,
                                               PartitionId parts,
                                               std::uint64_t seed) {
  G10_CHECK(parts > 0);
  Rng rng(seed);
  std::vector<PartitionId> edge_owner(graph.edge_count());
  for (auto& p : edge_owner) {
    p = static_cast<PartitionId>(rng.next_below(parts));
  }
  return finalize_vertex_cut(graph, parts, std::move(edge_owner));
}

VertexCutPartition partition_vertex_cut_range_source(const Graph& graph,
                                                     PartitionId parts) {
  G10_CHECK(parts > 0);
  std::vector<PartitionId> edge_owner(graph.edge_count());
  const auto n = static_cast<std::uint64_t>(graph.vertex_count());
  for (VertexId u = 0; u < graph.vertex_count(); ++u) {
    const auto p =
        static_cast<PartitionId>(static_cast<std::uint64_t>(u) * parts / n);
    for (EdgeIndex e = graph.out_offsets()[u]; e < graph.out_offsets()[u + 1];
         ++e) {
      edge_owner[e] = p;
    }
  }
  return finalize_vertex_cut(graph, parts, std::move(edge_owner));
}

VertexCutPartition partition_vertex_cut_hash_source(const Graph& graph,
                                                    PartitionId parts) {
  G10_CHECK(parts > 0);
  std::vector<PartitionId> edge_owner(graph.edge_count());
  for (VertexId u = 0; u < graph.vertex_count(); ++u) {
    const std::uint64_t h =
        (static_cast<std::uint64_t>(u) + 1) * 0x9E3779B97F4A7C15ULL;
    const auto p = static_cast<PartitionId>((h >> 32) % parts);
    for (EdgeIndex e = graph.out_offsets()[u]; e < graph.out_offsets()[u + 1];
         ++e) {
      edge_owner[e] = p;
    }
  }
  return finalize_vertex_cut(graph, parts, std::move(edge_owner));
}

}  // namespace g10::graph
