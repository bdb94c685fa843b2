#include "engine/gas/gas_engine.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "engine/resource_names.hpp"
#include "graph/partition.hpp"

namespace g10::engine {

namespace {

using algorithms::GasProgram;
using graph::EdgeIndex;
using graph::Graph;

/// Deterministic closed-form makespan estimate; anchors percent-based fault
/// times. Capped at 64 iterations for convergence-bounded programs.
TimeNs gas_nominal_horizon(const GasConfig& cfg, const Graph& g,
                           const algorithms::GasProgram& prog) {
  const double n = static_cast<double>(g.vertex_count());
  const double m = static_cast<double>(g.edge_count());
  const double cluster_rate = static_cast<double>(cfg.cluster.machine_count) *
                              static_cast<double>(cfg.cluster.machine.cores) *
                              cfg.cluster.machine.core_work_per_sec;
  const int steps = std::min(prog.max_iterations(), 64);
  const double step_work =
      n * cfg.costs.work_per_apply +
      m * (cfg.costs.work_per_gather_edge + cfg.costs.work_per_scatter_edge);
  const double total_work = m * cfg.costs.work_per_load_edge +
                            n * cfg.costs.work_per_store_vertex +
                            static_cast<double>(steps) * step_work;
  const double seconds =
      total_work / cluster_rate +
      static_cast<double>(steps) * 4.0 * cfg.costs.step_barrier_seconds;
  return std::max<TimeNs>(
      kMillisecond,
      static_cast<TimeNs>(seconds * static_cast<double>(kSecond)));
}
using graph::VertexId;
using trace::PathRef;

/// Phase-type names interned once per process; the engine then builds paths
/// from symbols without touching the symbol table's mutex.
struct GasSymbols {
  trace::Symbol iteration, gather_step, worker_gather, gather_thread,
      apply_step, worker_apply, apply_thread, scatter_step, worker_scatter,
      scatter_thread, exchange_step, worker_exchange;
};

const GasSymbols& gas_symbols() {
  static const GasSymbols symbols = [] {
    auto& table = trace::SymbolTable::global();
    GasSymbols s;
    s.iteration = table.intern("Iteration");
    s.gather_step = table.intern("GatherStep");
    s.worker_gather = table.intern("WorkerGather");
    s.gather_thread = table.intern("GatherThread");
    s.apply_step = table.intern("ApplyStep");
    s.worker_apply = table.intern("WorkerApply");
    s.apply_thread = table.intern("ApplyThread");
    s.scatter_step = table.intern("ScatterStep");
    s.worker_scatter = table.intern("WorkerScatter");
    s.scatter_thread = table.intern("ScatterThread");
    s.exchange_step = table.intern("ExchangeStep");
    s.worker_exchange = table.intern("WorkerExchange");
    return s;
  }();
  return symbols;
}

/// Whole-run mutable state; the run skeleton, crash handling, checkpoints
/// and the simulated machines live in FaultHarness (DESIGN.md §10). Each
/// iteration runs the program once, in compute_iteration_effects(), before
/// its four steps are simulated from per-worker work counts. That pass fans
/// out on the host over vertex ranges; every slot it writes has one owner
/// and the work counts are integers, so values and traces are independent
/// of the host thread count.
class GasRun final : public FaultHarness {
 public:
  GasRun(const GasConfig& cfg, const Graph& g, const GasProgram& prog)
      : FaultHarness(cfg,
                     IoCosts{cfg.costs.work_per_load_edge,
                             cfg.costs.bytes_per_load_edge,
                             cfg.costs.work_per_store_vertex},
                     gas_nominal_horizon(cfg, g, prog),
                     gas_symbols().iteration),
        cfg_(cfg),
        g_(g),
        prog_(prog),
        threads_(cfg.effective_threads()),
        pool_(cfg.host_threads) {
    G10_CHECK(g_.vertex_count() > 0);
    G10_CHECK_MSG(threads_ <= cfg_.cluster.machine.cores,
                  "threads per worker must not exceed cores");
  }

  LoggedRun execute() {
    load_graph();
    return simulate(value_);
  }

 private:
  /// One barriered compute step (gather/apply/scatter) in flight.
  struct StepRuntime {
    PathRef step_path;
    std::vector<PathRef> worker_paths;  ///< cached step_path/WorkerX.w
    trace::Symbol worker_type = 0;
    trace::Symbol thread_type = 0;
    std::vector<std::vector<DurationNs>> chunks;  ///< per-worker queues
    std::vector<std::size_t> next_chunk;
    std::vector<int> threads_left;
    std::vector<TimeNs> worker_begin;
    std::vector<double> bug_extra;  ///< 0 = this worker has no injected bug
    std::vector<TimeNs> worker_end;
    int workers_left = 0;
    int stage = 0;  ///< this step's Stage
    // Crash-teardown bookkeeping: what is still open / charged to the CPU.
    bool active = false;
    std::vector<double> running;  ///< in-flight CPU intensity per thread slot
    std::vector<char> thread_open;
    std::vector<char> worker_open;
  };

  /// Splits `total_work` units into chunk durations of roughly
  /// chunk_edges-equivalent work, with multiplicative jitter per chunk.
  std::vector<DurationNs> make_chunks(double total_work, double chunk_work);

  /// Per-worker counts of one vertex range's work in an iteration.
  struct WorkCounts {
    std::uint64_t gather = 0;   ///< in-edges gathered on the worker
    std::uint64_t scatter = 0;  ///< out-edges scattered on the worker
    std::uint64_t apply = 0;    ///< applies of vertices it masters
    std::uint64_t values = 0;   ///< values it sends in the exchange

    WorkCounts& operator+=(const WorkCounts& o) {
      gather += o.gather;
      scatter += o.scatter;
      apply += o.apply;
      values += o.values;
      return *this;
    }
  };

  /// Vertices per task of compute_iteration_effects' passes.
  static constexpr VertexId kComputeRange = 1024;

  void load_graph();
  void start_iteration(TimeNs t);
  void compute_iteration_effects();  ///< correctness: apply + activation
  void gather_apply_range(VertexId begin, VertexId end, WorkCounts* counts);
  bool activate_range(VertexId begin, VertexId end);
  void split_exchange_by_dst();
  /// The iteration's steps in order; the exchange's barrier retires it.
  enum Stage { kGather, kApply, kScatter, kExchange };
  void start_stage(int stage, TimeNs t);
  void run_compute_step(TimeNs t, int stage, trace::Symbol step_type,
                        trace::Symbol worker_type, trace::Symbol thread_type,
                        const std::vector<double>& per_worker_work,
                        bool allow_bug);
  void step_thread_continue(int w, int th);
  void step_worker_finished(int w, TimeNs t);
  void run_exchange(TimeNs t);
  void finalize_exchange_worker(int w, TimeNs begin, TimeNs send_done);
  void finish_iteration(TimeNs t);

  // ---- FaultHarness hooks -------------------------------------------------
  void save_snapshot() override;
  void restore_snapshot() override;
  void teardown_worker(int w, TimeNs now, bool truncate) override;
  void abort_step(TimeNs close, bool truncate) override;
  void start_step(TimeNs t) override { start_iteration(t); }

  GasConfig cfg_;
  const Graph& g_;
  const GasProgram& prog_;
  int threads_;
  ThreadPool pool_;  ///< host threads of compute_iteration_effects' passes

  graph::VertexCutPartition cut_;

  std::vector<double> value_;
  std::vector<double> new_value_;
  std::vector<char> active_;
  std::vector<char> next_active_;
  std::vector<char> changed_;
  /// Whether active_ holds an active vertex, known when pass 2 of the last
  /// iteration produced it; unset before the first iteration and after a
  /// snapshot restore.
  std::optional<bool> any_active_;
  bool next_any_active_ = false;  ///< the same for next_active_

  /// Pass 1's per-range work counts, row-major ranges x workers, and pass
  /// 2's per-range "activated a vertex" flags.
  std::vector<WorkCounts> range_counts_;
  std::vector<char> range_activates_;

  // Per-iteration work aggregates (recomputed each iteration).
  std::vector<double> gather_work_;
  std::vector<double> apply_work_;
  std::vector<double> scatter_work_;
  std::vector<double> exchange_bytes_;
  std::vector<double> exchange_values_;

  /// Per-vertex edge-ownership CSR: for each vertex, the distinct owning
  /// partitions of its out- (or in-) edges and how many edges each owns.
  /// Built once at load — edge placement is static — so the per-iteration
  /// work aggregation walks one entry per (vertex, partition) instead of
  /// resolving edge_owner per edge.
  struct OwnerCsr {
    std::vector<std::uint64_t> off;  ///< size n+1
    std::vector<std::uint32_t> part;
    std::vector<std::uint32_t> cnt;
  };
  OwnerCsr out_owner_;
  OwnerCsr in_owner_;

  StepRuntime step_;

  struct Snapshot {
    std::vector<double> value;
    std::vector<char> active;
  };
  Snapshot snapshot_;

  // ---- event-driven exchange (non-trivial channel only) ----
  PathRef exchange_path_;
  bool exchange_active_ = false;
  int exchange_left_ = 0;
  TimeNs exchange_latest_ = 0;
  std::vector<char> exchange_open_;
  /// Per-(src,dst) exchange bytes, row-major workers x workers; filled only
  /// when sends travel through the reliable channel (otherwise the aggregate
  /// per-src totals suffice). Flat and reused across iterations instead of a
  /// per-iteration vector-of-vectors.
  std::vector<double> exchange_by_dst_;

  double& exchange_to(int src, int dst) {
    return exchange_by_dst_[static_cast<std::size_t>(src) *
                                static_cast<std::size_t>(workers_) +
                            static_cast<std::size_t>(dst)];
  }
};

std::vector<DurationNs> GasRun::make_chunks(double total_work,
                                            double chunk_work) {
  std::vector<DurationNs> chunks;
  double remaining = total_work;
  while (remaining > 0.0) {
    const double piece = std::min(remaining, chunk_work);
    remaining -= piece;
    chunks.push_back(std::max<DurationNs>(
        1, ns_for_work(piece * jitter(cfg_.costs.work_jitter))));
  }
  return chunks;
}

void GasRun::load_graph() {
  // compute_iteration_effects' passes read the in-edge index from several
  // host threads: build it before they start.
  g_.ensure_in_index();
  switch (cfg_.partitioning) {
    case VertexCutStrategy::kHashSource:
      cut_ = graph::partition_vertex_cut_hash_source(
          g_, static_cast<std::uint32_t>(workers_));
      break;
    case VertexCutStrategy::kRangeSource:
      cut_ = graph::partition_vertex_cut_range_source(
          g_, static_cast<std::uint32_t>(workers_));
      break;
    case VertexCutStrategy::kGreedy:
      cut_ = graph::partition_vertex_cut_greedy(
          g_, static_cast<std::uint32_t>(workers_));
      break;
    case VertexCutStrategy::kRandom:
      cut_ = graph::partition_vertex_cut_random(
          g_, static_cast<std::uint32_t>(workers_), cfg_.seed ^ 0x9E37);
      break;
  }

  const VertexId n = g_.vertex_count();
  // Vertices mastered per worker size its checkpoint, reload and store work.
  std::vector<double> masters(static_cast<std::size_t>(workers_), 0.0);
  for (VertexId v = 0; v < n; ++v) {
    if (cut_.replicas(v).empty()) {
      // Isolated vertices are mastered on a hash-chosen worker.
      cut_.master[v] = v % static_cast<VertexId>(workers_);
    }
    masters[cut_.master[v]] += 1.0;
  }

  // Edge-ownership CSRs: resolve each edge's owning partition once, here,
  // instead of per edge per iteration in the work aggregation.
  out_owner_.off.assign(static_cast<std::size_t>(n) + 1, 0);
  out_owner_.part.clear();
  out_owner_.cnt.clear();
  in_owner_.off.assign(static_cast<std::size_t>(n) + 1, 0);
  in_owner_.part.clear();
  in_owner_.cnt.clear();
  std::vector<std::uint32_t> owner_count(static_cast<std::size_t>(workers_),
                                         0);
  // A vertex's replica list names, ascending, exactly the partitions its
  // out- and in-edges touch: a row visits only those.
  const auto emit_owner_row = [&](OwnerCsr& csr, VertexId v) {
    for (const graph::PartitionId p : cut_.replicas(v)) {
      if (owner_count[p] == 0) continue;
      csr.part.push_back(p);
      csr.cnt.push_back(owner_count[p]);
      owner_count[p] = 0;
    }
    csr.off[static_cast<std::size_t>(v) + 1] = csr.part.size();
  };
  for (VertexId v = 0; v < n; ++v) {
    const EdgeIndex deg = g_.out_degree(v);
    for (EdgeIndex i = 0; i < deg; ++i) {
      ++owner_count[cut_.edge_owner[g_.edge_id(v, i)]];
    }
    emit_owner_row(out_owner_, v);
    for (const EdgeIndex id : g_.in_edge_ids(v)) {
      ++owner_count[cut_.edge_owner[id]];
    }
    emit_owner_row(in_owner_, v);
  }

  value_.resize(n);
  for (VertexId v = 0; v < n; ++v) value_[v] = prog_.initial_value(v, g_);
  new_value_ = value_;
  active_.assign(n, 0);
  next_active_.assign(n, 0);
  changed_.assign(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    active_[v] = prog_.initially_active(v, g_) ? 1 : 0;
  }

  std::vector<double> edges;
  std::vector<double> reingest;
  for (const auto count : cut_.edge_counts()) {
    edges.push_back(static_cast<double>(count));
    // A restarted victim re-ingests its edge partition from storage.
    reingest.push_back(edges.back() * cfg_.costs.work_per_load_edge);
  }
  start_job(edges, std::move(masters), std::move(reingest));
}

void GasRun::compute_iteration_effects() {
  // Pass 1 gathers, applies and counts work over contiguous vertex ranges;
  // pass 2 pulls activation from the changed_ flags pass 1 left behind.
  // Each vertex's slots have one writer, and each range counts into its own
  // row.
  const VertexId n = g_.vertex_count();
  const std::size_t ranges = (n + kComputeRange - 1) / kComputeRange;
  const auto workers = static_cast<std::size_t>(workers_);
  range_counts_.resize(ranges * workers);
  range_activates_.resize(ranges);
  pool_.parallel_for(ranges, 1, [&](std::size_t range) {
    const VertexId begin = static_cast<VertexId>(range) * kComputeRange;
    gather_apply_range(begin, std::min(n, begin + kComputeRange),
                       &range_counts_[range * workers]);
  });
  pool_.parallel_for(ranges, 1, [&](std::size_t range) {
    const VertexId begin = static_cast<VertexId>(range) * kComputeRange;
    range_activates_[range] =
        activate_range(begin, std::min(n, begin + kComputeRange)) ? 1 : 0;
  });
  next_any_active_ = std::ranges::any_of(range_activates_,
                                         [](char a) { return a != 0; });

  // Per-worker work for the timed steps: the rows summed as integers, then
  // scaled once. The default costs are exact binary integers, so each
  // product equals the per-vertex sum of cost terms bit for bit.
  std::vector<WorkCounts> totals(workers);
  for (std::size_t range = 0; range < ranges; ++range) {
    for (std::size_t w = 0; w < workers; ++w) {
      totals[w] += range_counts_[range * workers + w];
    }
  }
  gather_work_.resize(workers);
  apply_work_.resize(workers);
  scatter_work_.resize(workers);
  exchange_values_.resize(workers);
  exchange_bytes_.resize(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    gather_work_[w] = cfg_.costs.work_per_gather_edge *
                      static_cast<double>(totals[w].gather);
    apply_work_[w] =
        cfg_.costs.work_per_apply * static_cast<double>(totals[w].apply);
    scatter_work_[w] = cfg_.costs.work_per_scatter_edge *
                       static_cast<double>(totals[w].scatter);
    exchange_values_[w] = static_cast<double>(totals[w].values);
    exchange_bytes_[w] = cfg_.costs.bytes_per_value * exchange_values_[w];
  }
  // Per-destination breakdown is needed only when exchange traffic travels
  // through the reliable channel, one ack'd transfer per destination.
  if (!channel_.trivial()) split_exchange_by_dst();
}

/// Pass 1 over [begin, end): gathers and applies every active vertex, which
/// writes only its own new_value_ and changed_ slots, and counts the
/// range's per-worker work into `counts`, one WorkCounts per worker.
void GasRun::gather_apply_range(VertexId begin, VertexId end,
                                WorkCounts* counts) {
  std::fill(counts, counts + workers_, WorkCounts{});
  const bool weighted = g_.weighted();
  const int iteration = logical_step();
  std::vector<double> nbr_values;
  std::vector<double> nbr_weights;
  for (VertexId v = begin; v < end; ++v) {
    changed_[v] = 0;
    if (!active_[v]) {
      new_value_[v] = value_[v];
      continue;
    }
    // Gather over the in-edges, directly from graph storage: neighbor ids
    // are a span into the reverse index; values — and, on weighted graphs,
    // in-edge weights — are copied into the task's scratch. An empty weight
    // span means every edge weighs 1 (see GasProgram::apply).
    const std::span<const VertexId> ids = g_.in_neighbors(v);
    nbr_values.clear();
    for (const VertexId u : ids) nbr_values.push_back(value_[u]);
    std::span<const double> weights;
    if (weighted) {
      nbr_weights.clear();
      for (const EdgeIndex id : g_.in_edge_ids(v)) {
        nbr_weights.push_back(g_.edge_weight(id));
      }
      weights = nbr_weights;
    }
    new_value_[v] = prog_.apply(v, value_[v], ids, nbr_values, weights,
                                iteration, g_);

    const graph::PartitionId master = cut_.master[v];
    const auto replicas = cut_.replicas(v);
    for (std::uint64_t k = in_owner_.off[v]; k < in_owner_.off[v + 1]; ++k) {
      counts[in_owner_.part[k]].gather += in_owner_.cnt[k];
    }
    ++counts[master].apply;
    // Mirrors push partial gather accumulators to the master.
    for (const auto r : replicas) {
      if (r != master) ++counts[r].values;
    }
    if (!prog_.scatter_activates(v, value_[v], new_value_[v], iteration)) {
      continue;
    }
    changed_[v] = 1;
    for (std::uint64_t k = out_owner_.off[v]; k < out_owner_.off[v + 1];
         ++k) {
      counts[out_owner_.part[k]].scatter += out_owner_.cnt[k];
    }
    // The master broadcasts the new value to every mirror.
    if (!replicas.empty()) counts[master].values += replicas.size() - 1;
  }
}

/// Pass 2 over [begin, end): a vertex is active next iteration if any
/// in-neighbor changed in this one, so each vertex writes only its own
/// next_active_ byte. Returns whether it activated any vertex.
bool GasRun::activate_range(VertexId begin, VertexId end) {
  bool any = false;
  for (VertexId u = begin; u < end; ++u) {
    const bool next = std::ranges::any_of(
        g_.in_neighbors(u), [this](VertexId v) { return changed_[v] != 0; });
    next_active_[u] = next ? 1 : 0;
    any = any || next;
  }
  return any;
}

/// Fills exchange_by_dst_ in ascending vertex id: each (src, dst) cell gets
/// a vertex's mirror push or its master's broadcast, never both.
void GasRun::split_exchange_by_dst() {
  exchange_by_dst_.assign(static_cast<std::size_t>(workers_) *
                              static_cast<std::size_t>(workers_),
                          0.0);
  const double bytes = cfg_.costs.bytes_per_value;
  for (VertexId v = 0; v < g_.vertex_count(); ++v) {
    if (!active_[v]) continue;
    const auto master = static_cast<int>(cut_.master[v]);
    for (const auto r : cut_.replicas(v)) {
      const auto mirror = static_cast<int>(r);
      if (mirror == master) continue;
      exchange_to(mirror, master) += bytes;
      if (changed_[v]) exchange_to(master, mirror) += bytes;
    }
  }
}

void GasRun::start_iteration(TimeNs t) {
  // Pass 2 reports whether it activated any vertex; the first iteration
  // and a restored snapshot scan active_ instead.
  const bool any_active =
      any_active_ ? *any_active_
                  : std::ranges::any_of(active_, [](char a) { return a != 0; });
  if (!any_active || logical_step() >= prog_.max_iterations()) {
    finish_job(t);
    return;
  }
  compute_iteration_effects();
  log_.begin(step_path(), t, trace::kGlobalMachine);
  start_stage(kGather, t);
}

void GasRun::start_stage(int stage, TimeNs t) {
  const GasSymbols& s = gas_symbols();
  switch (stage) {
    case kGather:
      run_compute_step(t, stage, s.gather_step, s.worker_gather,
                       s.gather_thread, gather_work_, cfg_.sync_bug.enabled);
      break;
    case kApply:
      run_compute_step(t, stage, s.apply_step, s.worker_apply, s.apply_thread,
                       apply_work_, false);
      break;
    case kScatter:
      run_compute_step(t, stage, s.scatter_step, s.worker_scatter,
                       s.scatter_thread, scatter_work_, false);
      break;
    case kExchange:
      run_exchange(t);
      break;
  }
}

void GasRun::run_compute_step(TimeNs t, int stage, trace::Symbol step_type,
                              trace::Symbol worker_type,
                              trace::Symbol thread_type,
                              const std::vector<double>& per_worker_work,
                              bool allow_bug) {
  step_ = StepRuntime{};
  step_.step_path = step_path().child(step_type, 0);
  step_.worker_type = worker_type;
  step_.thread_type = thread_type;
  step_.stage = stage;
  step_.workers_left = workers_;
  step_.chunks.resize(static_cast<std::size_t>(workers_));
  step_.next_chunk.assign(static_cast<std::size_t>(workers_), 0);
  step_.threads_left.assign(static_cast<std::size_t>(workers_), threads_);
  step_.worker_begin.assign(static_cast<std::size_t>(workers_), t);
  step_.worker_end.assign(static_cast<std::size_t>(workers_), t);
  step_.bug_extra.assign(static_cast<std::size_t>(workers_), 0.0);
  step_.active = true;
  step_.running.assign(static_cast<std::size_t>(workers_ * threads_), 0.0);
  step_.thread_open.assign(static_cast<std::size_t>(workers_ * threads_), 1);
  step_.worker_open.assign(static_cast<std::size_t>(workers_), 1);

  log_.begin(step_.step_path, t, trace::kGlobalMachine);
  const double chunk_work = static_cast<double>(cfg_.chunk_edges) *
                            cfg_.costs.work_per_gather_edge;
  step_.worker_paths.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    step_.chunks[static_cast<std::size_t>(w)] =
        make_chunks(per_worker_work[static_cast<std::size_t>(w)], chunk_work);
    if (allow_bug && rng_.next_bool(cfg_.sync_bug.probability)) {
      step_.bug_extra[static_cast<std::size_t>(w)] = rng_.next_double(
          cfg_.sync_bug.min_extra, cfg_.sync_bug.max_extra);
    }
    step_.worker_paths.push_back(step_.step_path.child(worker_type, w));
    const PathRef& worker = step_.worker_paths.back();
    log_.begin(worker, t, w);
    for (int th = 0; th < threads_; ++th) {
      log_.begin(worker.child(thread_type, th), t, w);
      schedule_epoch(t, [this, w, th] { step_thread_continue(w, th); });
    }
  }
}

void GasRun::step_thread_continue(int w, int th) {
  if (dead_[static_cast<std::size_t>(w)] != 0) return;
  const TimeNs now = sim_.now();
  const auto slot = static_cast<std::size_t>(w * threads_ + th);
  auto& chunks = step_.chunks[static_cast<std::size_t>(w)];
  auto& cursor = step_.next_chunk[static_cast<std::size_t>(w)];
  if (cursor < chunks.size()) {
    const double intensity =
        rng_.next_double(cfg_.costs.cpu_intensity_min, 1.0);
    // An active slowdown window stretches the chunk (sampled at dispatch).
    const DurationNs duration = std::max<DurationNs>(
        1, static_cast<DurationNs>(static_cast<double>(chunks[cursor++]) /
                                   intensity /
                                   faults_.speed_factor(w, now)));
    cpu(w).add(now, intensity);
    step_.running[slot] = intensity;
    schedule_epoch(now + duration, [this, w, th, slot, intensity] {
      if (dead_[static_cast<std::size_t>(w)] != 0) return;
      cpu(w).add(sim_.now(), -intensity);
      step_.running[slot] = 0.0;
      step_thread_continue(w, th);
    });
    return;
  }
  // No work left for this thread.
  auto& left = step_.threads_left[static_cast<std::size_t>(w)];
  const PathRef thread_path =
      step_.worker_paths[static_cast<std::size_t>(w)].child(step_.thread_type,
                                                            th);
  const double bug = step_.bug_extra[static_cast<std::size_t>(w)];
  if (left == 1 && bug > 0.0) {
    // §IV-D bug: the last thread to reach the barrier finds a late message
    // stream and keeps processing while its siblings idle.
    step_.bug_extra[static_cast<std::size_t>(w)] = 0.0;
    const auto extra = static_cast<DurationNs>(
        bug * static_cast<double>(
                  now - step_.worker_begin[static_cast<std::size_t>(w)]));
    if (extra > 0) {
      cpu(w).add(now, 1.0);
      step_.running[slot] = 1.0;
      schedule_epoch(now + extra, [this, w, th, slot] {
        if (dead_[static_cast<std::size_t>(w)] != 0) return;
        cpu(w).add(sim_.now(), -1.0);
        step_.running[slot] = 0.0;
        step_thread_continue(w, th);
      });
      return;
    }
  }
  log_.end(thread_path, now, w);
  step_.thread_open[slot] = 0;
  if (--left == 0) step_worker_finished(w, now);
}

void GasRun::step_worker_finished(int w, TimeNs t) {
  log_.end(step_.worker_paths[static_cast<std::size_t>(w)], t, w);
  step_.worker_open[static_cast<std::size_t>(w)] = 0;
  step_.worker_end[static_cast<std::size_t>(w)] = t;
  if (--step_.workers_left == 0) {
    TimeNs barrier = 0;
    for (const TimeNs end : step_.worker_end) barrier = std::max(barrier, end);
    barrier += ns_from_seconds(cfg_.costs.step_barrier_seconds);
    log_.end(step_.step_path, barrier, trace::kGlobalMachine);
    step_.active = false;
    note_logged_end(barrier);
    schedule_transition(barrier, [this, next = step_.stage + 1] {
      start_stage(next, sim_.now());
    });
  }
}

void GasRun::run_exchange(TimeNs t) {
  const PathRef step = step_path().child(gas_symbols().exchange_step, 0);
  log_.begin(step, t, trace::kGlobalMachine);
  if (channel_.trivial()) {
    // Fault-free fast path: the whole exchange resolves synchronously and
    // stays byte-identical to runs produced before the reliable channel
    // existed.
    TimeNs latest = t;
    for (int w = 0; w < workers_; ++w) {
      const double bytes = exchange_bytes_[static_cast<std::size_t>(w)];
      const auto values = exchange_values_[static_cast<std::size_t>(w)];
      const DurationNs serialize = ns_for_work(
          values * cfg_.costs.work_per_exchange_value * jitter(0.05));
      cpu(w).add(t, 1.0);
      cpu(w).add(t + serialize, -1.0);
      nic(w).enqueue(t, bytes);
      const TimeNs end =
          std::max(t + serialize, nic(w).time_empty(t + serialize));
      const PathRef worker = step.child(gas_symbols().worker_exchange, w);
      log_.begin(worker, t, w);
      log_.end(worker, end, w);
      latest = std::max(latest, end);
    }
    latest += ns_from_seconds(cfg_.costs.step_barrier_seconds);
    log_.end(step, latest, trace::kGlobalMachine);
    schedule_transition(latest, [this] { finish_iteration(sim_.now()); });
    return;
  }

  // Under fault injection every (src, dst) transfer is planned through the
  // reliable channel: each attempt costs bytes on the sender's NIC, and the
  // retransmit backoff the sender blocks through surfaces as a "Retry"
  // blocking event once the wait completes. The step becomes event-driven;
  // each worker finalizes independently and the last one closes the step.
  exchange_path_ = step;
  exchange_active_ = true;
  exchange_left_ = workers_;
  exchange_latest_ = t;
  exchange_open_.assign(static_cast<std::size_t>(workers_), 1);
  for (int w = 0; w < workers_; ++w) {
    const auto values = exchange_values_[static_cast<std::size_t>(w)];
    const DurationNs serialize = ns_for_work(
        values * cfg_.costs.work_per_exchange_value * jitter(0.05));
    cpu(w).add(t, 1.0);
    cpu(w).add(t + serialize, -1.0);
    log_.begin(step.child(gas_symbols().worker_exchange, w), t, w);
    TimeNs send_done = t;
    for (int dst = 0; dst < workers_; ++dst) {
      const double bytes = exchange_to(w, dst);
      if (bytes <= 0.0) continue;
      send_done = std::max(send_done, send_reliable(w, dst, bytes, t));
    }
    const TimeNs finalize_at = std::max(send_done, t + serialize);
    schedule_epoch(finalize_at, [this, w, t, send_done] {
      finalize_exchange_worker(w, t, send_done);
    });
  }
}

void GasRun::finalize_exchange_worker(int w, TimeNs begin, TimeNs send_done) {
  if (dead_[static_cast<std::size_t>(w)] != 0) return;
  const TimeNs now = sim_.now();
  const TimeNs end = std::max(now, nic(w).time_empty(now));
  const PathRef worker = exchange_path_.child(gas_symbols().worker_exchange, w);
  if (send_done > begin) {
    log_.block(resource_names::kRetry, worker, begin, send_done, w);
  }
  log_.end(worker, end, w);
  exchange_open_[static_cast<std::size_t>(w)] = 0;
  note_logged_end(end);
  exchange_latest_ = std::max(exchange_latest_, end);
  if (--exchange_left_ == 0) {
    exchange_active_ = false;
    const TimeNs latest =
        exchange_latest_ + ns_from_seconds(cfg_.costs.step_barrier_seconds);
    log_.end(exchange_path_, latest, trace::kGlobalMachine);
    note_logged_end(latest);
    schedule_transition(latest, [this] { finish_iteration(sim_.now()); });
  }
}

void GasRun::finish_iteration(TimeNs t) {
  log_.end(step_path(), t, trace::kGlobalMachine);
  double step_values = 0.0;
  double step_bytes = 0.0;
  for (int w = 0; w < workers_; ++w) {
    step_values += exchange_values_[static_cast<std::size_t>(w)];
    step_bytes += exchange_bytes_[static_cast<std::size_t>(w)];
  }
  comm_.messages_per_step.push_back(static_cast<std::uint64_t>(step_values));
  comm_.remote_bytes_total += step_bytes;
  // Every entry of new_value_ is written each iteration (inactive vertices
  // copy their old value), so promoting it by swap is safe and skips the
  // full O(n) copy.
  value_.swap(new_value_);
  active_.swap(next_active_);
  any_active_ = next_any_active_;
  retire_step(t);
}

void GasRun::save_snapshot() {
  snapshot_.value = value_;
  snapshot_.active = active_;
}

void GasRun::restore_snapshot() {
  value_ = snapshot_.value;
  active_ = snapshot_.active;
  any_active_.reset();
  // new_value_ / next_active_ / changed_ are recomputed wholesale by
  // compute_iteration_effects when the iteration re-executes.
}

void GasRun::teardown_worker(int w, TimeNs now, bool truncate) {
  if (step_.active) {
    const PathRef& worker = step_.worker_paths[static_cast<std::size_t>(w)];
    for (int th = 0; th < threads_; ++th) {
      const auto slot = static_cast<std::size_t>(w * threads_ + th);
      if (step_.running[slot] > 0.0) {
        cpu(w).add(now, -step_.running[slot]);
        step_.running[slot] = 0.0;
      }
      if (step_.thread_open[slot]) {
        close_or_abandon(worker.child(step_.thread_type, th), truncate, now,
                         w);
        step_.thread_open[slot] = 0;
      }
    }
    if (step_.worker_open[static_cast<std::size_t>(w)]) {
      close_or_abandon(worker, truncate, now, w);
      step_.worker_open[static_cast<std::size_t>(w)] = 0;
    }
  }
  if (exchange_active_ && exchange_open_[static_cast<std::size_t>(w)]) {
    close_or_abandon(exchange_path_.child(gas_symbols().worker_exchange, w),
                     truncate, now, w);
    exchange_open_[static_cast<std::size_t>(w)] = 0;
  }
}

void GasRun::abort_step(TimeNs close, bool truncate) {
  if (step_.active) {
    close_or_abandon(step_.step_path, truncate, close, trace::kGlobalMachine);
    step_ = StepRuntime{};
  }
  if (exchange_active_) {
    close_or_abandon(exchange_path_, truncate, close, trace::kGlobalMachine);
    exchange_active_ = false;
  }
}

}  // namespace

GasEngine::GasEngine(GasConfig config) : config_(std::move(config)) {
  config_.cluster.validate();
  G10_CHECK(config_.chunk_edges > 0);
}

LoggedRun GasEngine::run_logged(const graph::Graph& graph,
                               const algorithms::GasProgram& program) const {
  GasRun run(config_, graph, program);
  return run.execute();
}

trace::RunArtifacts GasEngine::run(const graph::Graph& graph,
                                   const algorithms::GasProgram& program) const {
  return run_logged(graph, program).render();
}

TimeNs GasEngine::estimate_horizon(const graph::Graph& graph,
                                   const algorithms::GasProgram& program) const {
  return gas_nominal_horizon(config_, graph, program);
}

}  // namespace g10::engine
