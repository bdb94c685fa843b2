// Graph partitioning.
//
// The Pregel-style engine (Giraph stand-in) uses *edge-cut* partitioning:
// each vertex — with all its out-edges — is owned by exactly one partition,
// and messages crossing partitions traverse the network.
//
// The GAS engine (PowerGraph stand-in) uses *vertex-cut* partitioning: edges
// are distributed across partitions and high-degree vertices are replicated
// (one master plus mirrors), with gather/apply/scatter exchanges between
// them. The greedy heuristic mirrors PowerGraph's default edge placement.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace g10::graph {

using PartitionId = std::uint32_t;

/// Vertex → partition assignment (edge-cut).
struct EdgeCutPartition {
  PartitionId partition_count = 0;
  std::vector<PartitionId> owner;  ///< indexed by VertexId
};

/// Modulo-hash of the vertex id (Giraph's default partitioner).
EdgeCutPartition partition_by_hash(const Graph& graph, PartitionId parts);

/// Edge → partition assignment with vertex replication (vertex-cut).
/// Every vertex-cut function below walks each vertex's in-edges, so it
/// builds the graph's in-edge index if that is not built yet (see
/// Graph::ensure_in_index for sharing a graph across threads).
struct VertexCutPartition {
  PartitionId partition_count = 0;
  /// Owning partition of each edge, indexed by global edge id (CSR order).
  std::vector<PartitionId> edge_owner;
  /// Master partition of each vertex.
  std::vector<PartitionId> master;
  /// Replica lists as a CSR: vertex v's replicas are
  /// replica_parts[replica_offsets[v], replica_offsets[v + 1]). Read them
  /// through replicas(v).
  std::vector<std::uint64_t> replica_offsets;  ///< size n + 1
  std::vector<PartitionId> replica_parts;

  /// All partitions where v has a replica (sorted, includes the master);
  /// empty for an isolated vertex.
  std::span<const PartitionId> replicas(VertexId v) const {
    return {replica_parts.data() + replica_offsets[v],
            replica_parts.data() + replica_offsets[v + 1]};
  }

  std::vector<EdgeIndex> edge_counts() const;
  /// Mean number of replicas per vertex (PowerGraph's replication factor λ).
  double replication_factor() const;
};

/// PowerGraph-style greedy vertex-cut: place each edge in a partition that
/// already holds both endpoints, else one endpoint (least loaded among
/// candidates), else the least-loaded partition overall.
VertexCutPartition partition_vertex_cut_greedy(const Graph& graph,
                                               PartitionId parts);

/// Random vertex-cut baseline: uniform edge placement.
VertexCutPartition partition_vertex_cut_random(const Graph& graph,
                                               PartitionId parts,
                                               std::uint64_t seed);

/// Hash-by-source vertex-cut: every out-edge of u lands on hash(u)'s
/// partition. Cheap and common in practice, but a high-degree hub drags its
/// whole edge list onto one partition — the "poor workload distribution,
/// typical for graph applications" the paper observes in §IV-D.
VertexCutPartition partition_vertex_cut_hash_source(const Graph& graph,
                                                    PartitionId parts);

/// Range-by-source vertex-cut: contiguous source-id ranges with equal
/// vertex counts, the placement that input-file splits produce in practice.
/// Degree skew concentrated in an id range (e.g. R-MAT hubs at low ids)
/// then lands wholesale on one partition — the strongest realistic source
/// of the inter-worker imbalance of §IV-D.
VertexCutPartition partition_vertex_cut_range_source(const Graph& graph,
                                                     PartitionId parts);

}  // namespace g10::graph
