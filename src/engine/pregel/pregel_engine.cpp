#include "engine/pregel/pregel_engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "engine/comm_batcher.hpp"
#include "engine/resource_names.hpp"
#include "graph/partition.hpp"

namespace g10::engine {

namespace {

using algorithms::Combiner;
using algorithms::PregelOutbox;
using algorithms::PregelProgram;
using graph::Graph;
using graph::VertexId;
using trace::PathRef;

/// Phase-type names interned once per process; engines then build paths
/// from symbols without touching the symbol table's mutex.
struct PregelSymbols {
  trace::Symbol superstep, worker_prepare, worker_compute, compute_thread,
      worker_communicate, worker_barrier, gc_pause;
};

const PregelSymbols& pregel_symbols() {
  static const PregelSymbols symbols = [] {
    auto& table = trace::SymbolTable::global();
    PregelSymbols s;
    s.superstep = table.intern("Superstep");
    s.worker_prepare = table.intern("WorkerPrepare");
    s.worker_compute = table.intern("WorkerCompute");
    s.compute_thread = table.intern("ComputeThread");
    s.worker_communicate = table.intern("WorkerCommunicate");
    s.worker_barrier = table.intern("WorkerBarrier");
    s.gc_pause = table.intern("GcPause");
    return s;
  }();
  return symbols;
}

/// Closed-form makespan estimate shared by PregelEngine::estimate_horizon
/// and percent-time resolution inside a run. Deliberately ignores GC, queue
/// stalls and jitter — fault times only need a stable, roughly-scaled
/// anchor, not an accurate prediction.
TimeNs pregel_nominal_horizon(const PregelConfig& cfg, const Graph& g,
                              const PregelProgram& prog) {
  const double n = static_cast<double>(g.vertex_count());
  const double m = static_cast<double>(g.edge_count());
  const double cluster_rate = static_cast<double>(cfg.cluster.machine_count) *
                              static_cast<double>(cfg.cluster.machine.cores) *
                              cfg.cluster.machine.core_work_per_sec;
  const int steps = std::min(prog.max_supersteps(), 64);
  const double step_work =
      n * cfg.costs.work_per_vertex +
      m * (cfg.costs.work_per_edge + cfg.costs.work_per_message);
  const double total_work = m * cfg.costs.work_per_load_edge +
                            n * cfg.costs.work_per_store_vertex +
                            static_cast<double>(steps) * step_work;
  const double seconds =
      total_work / cluster_rate +
      static_cast<double>(steps) *
          (cfg.costs.prepare_seconds + cfg.costs.barrier_sync_seconds);
  return std::max<TimeNs>(
      kMillisecond,
      static_cast<TimeNs>(seconds * static_cast<double>(kSecond)));
}

/// Whole-run mutable state. One instance per PregelEngine::run call; the
/// event callbacks all close over `this`. The run skeleton, crash handling,
/// checkpoints and the simulated machines live in FaultHarness (DESIGN.md
/// §10).
///
/// Each superstep runs the vertex program once, in compute_superstep(),
/// before the discrete-event simulation starts; the simulated compute threads
/// then time the superstep from a per-chunk cost table built from counts
/// alone — messages received, degree, send flag and remote fan-out. The
/// pass fans out on the host (DESIGN.md §10), and every slot it writes has
/// one owner that fills it in the serial order, so values and traces are
/// independent of the seed, the host thread count and the worker count.
class PregelRun final : public FaultHarness {
 public:
  PregelRun(const PregelConfig& cfg, const Graph& g, const PregelProgram& prog)
      : FaultHarness(cfg,
                     IoCosts{cfg.costs.work_per_load_edge,
                             cfg.costs.bytes_per_load_edge,
                             cfg.costs.work_per_store_vertex},
                     pregel_nominal_horizon(cfg, g, prog),
                     pregel_symbols().superstep),
        cfg_(cfg),
        g_(g),
        prog_(prog),
        threads_(cfg.effective_threads()),
        pool_(cfg.host_threads),
        combiner_(prog.combiner()),
        batcher_(cfg.cluster.machine_count) {
    G10_CHECK(g_.vertex_count() > 0);
    G10_CHECK_MSG(threads_ <= cfg_.cluster.machine.cores,
                  "threads per worker must not exceed cores");
    G10_CHECK_MSG(workers_ <= 65536, "remote destinations are 16-bit");
  }

  LoggedRun execute() {
    load_graph();
    LoggedRun run = simulate(value_);
    run.artifacts.comm.batch_flushes = batcher_.flushes();
    return run;
  }

 private:
  // ---- static per-run structures -----------------------------------------
  struct ThreadState {
    int partition = -1;    ///< index into worker partitions, -1 = none held
    std::size_t pos = 0;   ///< cursor into the partition's active list
    bool done = false;
    bool waiting_gc = false;
    bool phase_open = false;
    double running_intensity = 0.0;  ///< CPU held by an in-flight chunk
    TimeNs gc_wait_begin = 0;  ///< when this thread started waiting on GC
    PathRef phase;  ///< ComputeThread path for the current superstep

    void reset() {
      partition = -1;
      pos = 0;
      done = false;
      waiting_gc = false;
      phase_open = false;
      running_intensity = 0.0;
      gc_wait_begin = 0;
    }
  };

  /// What one chunk of an active list costs: its compute work, its
  /// allocation and its remote message bytes.
  struct ChunkCost {
    double work = 0.0;
    double alloc = 0.0;
    double remote_bytes = 0.0;
  };

  struct WorkerState {
    std::vector<std::vector<VertexId>> partitions;   ///< static vertex split
    std::vector<std::vector<VertexId>> active_lists; ///< per partition, per superstep
    // This superstep's chunk table (cost_chunks): the chunks of partition p
    // are chunks[chunk_first[p] .. chunk_first[p + 1]), in active-list
    // order, and chunk c's remote bytes per destination worker are
    // remote_by_dst[c * workers .. (c + 1) * workers).
    std::vector<std::size_t> chunk_first;
    std::vector<ChunkCost> chunks;
    std::vector<double> remote_by_dst;
    std::size_t next_partition = 0;
    int threads_done = 0;
    int running_chunks = 0;

    double alloc_bytes = 0.0;
    bool gc_active = false;
    TimeNs gc_end = 0;
    double gc_cores_taken = 0.0;
    PathRef gc_phase;
    // Cached per-superstep templates: set once in start_superstep, reused
    // by worker_compute_done / finish_superstep / teardown_worker.
    PathRef compute_phase;
    PathRef communicate_phase;
    PathRef barrier_phase;

    TimeNs compute_end = 0;
    TimeNs ready = 0;  ///< compute + communication + GC all finished
    std::vector<ThreadState> threads;
  };

  // ---- helpers ------------------------------------------------------------
  /// Per-vertex send bits of the vertex-program pass (sends_).
  static constexpr char kSends = 1;          ///< sent to all out-neighbors
  static constexpr char kAddEdgeWeight = 2;  ///< each edge adds its weight

  /// Vertices per task of the vertex-program pass.
  static constexpr VertexId kComputeRange = 1024;

  /// Per vertex, the message it sends this superstep (compute_range writes
  /// a sender's slot once it has read its own messages).
  double* outgoing_messages() {
    return combiner_ == Combiner::kNone ? outbox_.data()
                                        : msg_combined_cur_.data();
  }

  /// Delivers `base` to one sender's out-neighbors `nbrs`. The combiner
  /// switch is hoisted out of the per-edge loop: each case is a tight loop
  /// over the row, with a separate weighted variant for add_edge_weight.
  /// `weights` is the row's weights, empty when the edges add nothing or
  /// weigh 1 each (an unweighted graph: `base` already includes that 1).
  void deliver(std::span<const VertexId> nbrs, std::span<const double> weights,
               double base) {
    switch (combiner_) {
      case Combiner::kSum:
        if (weights.empty()) {
          for (const VertexId u : nbrs) msg_combined_next_[u] += base;
        } else {
          for (std::size_t e = 0; e < nbrs.size(); ++e) {
            msg_combined_next_[nbrs[e]] += base + weights[e];
          }
        }
        break;
      case Combiner::kMin:
        // The running count marks each receiver's first message, so kMin
        // counts as it delivers.
        if (weights.empty()) {
          for (const VertexId u : nbrs) {
            if (msg_count_next_[u]++ == 0 || base < msg_combined_next_[u]) {
              msg_combined_next_[u] = base;
            }
          }
        } else {
          for (std::size_t e = 0; e < nbrs.size(); ++e) {
            const VertexId u = nbrs[e];
            const double m = base + weights[e];
            if (msg_count_next_[u]++ == 0 || m < msg_combined_next_[u]) {
              msg_combined_next_[u] = m;
            }
          }
        }
        break;
      case Combiner::kNone:
        // SoA arena path: append (target, payload) to the flat delivery log;
        // finish_superstep scatters it into the next superstep's CSR arena.
        msg_log_targets_.insert(msg_log_targets_.end(), nbrs.begin(),
                                nbrs.end());
        if (weights.empty()) {
          msg_log_payloads_.insert(msg_log_payloads_.end(), nbrs.size(), base);
        } else {
          for (std::size_t e = 0; e < nbrs.size(); ++e) {
            msg_log_payloads_.push_back(base + weights[e]);
          }
        }
        break;
    }
  }

  // ---- phases of the run ----------------------------------------------------
  void load_graph();
  void start_superstep(TimeNs t);
  void compute_superstep();
  void compute_range(VertexId begin, VertexId end);
  void deliver_messages();
  void cost_chunks(int w);
  void thread_continue(int w, int th);
  void finish_chunk(int w, int th, std::size_t chunk, double intensity);
  void send_chunk(int w, int th, std::size_t chunk);
  TimeNs flush_batch(int w, int dst, double bytes, TimeNs now);
  void arm_flush_timer(int w);
  void resume_after_send(int w, int th, TimeNs now, TimeNs resume);
  void thread_done(int w, int th);
  void start_gc(int w);
  void end_gc(int w);
  void worker_compute_done(int w);
  void finish_superstep(TimeNs barrier_time);

  // ---- FaultHarness hooks ---------------------------------------------------
  void save_snapshot() override;
  void restore_snapshot() override;
  void teardown_worker(int w, TimeNs now, bool truncate) override;
  void start_step(TimeNs t) override { start_superstep(t); }

  // ---- members --------------------------------------------------------------
  PregelConfig cfg_;
  const Graph& g_;
  const PregelProgram& prog_;
  int threads_;
  ThreadPool pool_;  ///< host threads of compute_superstep's passes
  Combiner combiner_;

  graph::EdgeCutPartition owner_;
  std::vector<WorkerState> ws_;

  std::vector<double> value_;
  std::vector<char> halted_;
  std::vector<char> sends_;  ///< per vertex: kSends | kAddEdgeWeight bits
  // kSum/kMin: the combined message each vertex receives. Once a vertex has
  // computed, its msg_combined_cur_ slot holds the message it sends, which
  // the delivery pass reads (kNone keeps that message in outbox_).
  std::vector<double> msg_combined_cur_, msg_combined_next_;
  std::vector<double> outbox_;
  // Receive counts are kept for every combiner mode: the active-set test
  // and the chunk cost read them without branching on the combiner.
  std::vector<std::uint32_t> msg_count_cur_, msg_count_next_;
  // Combiner::kNone storage (SoA message arena): the current superstep's
  // messages live in CSR layout over one flat payload array; deliveries
  // append to a flat (target, payload) log that finish_superstep scatters
  // into the next arena in two passes. Replaces the old per-vertex
  // vector-of-vectors message lists.
  std::vector<double> msg_data_cur_;
  std::vector<std::uint64_t> msg_offsets_cur_;  ///< size n+1
  std::vector<VertexId> msg_log_targets_;
  std::vector<double> msg_log_payloads_;
  std::vector<std::uint64_t> arena_cursor_;  ///< scatter scratch, size n
  /// kSum/kNone: per vertex, its in-edge count; deliver_messages subtracts
  /// the non-senders' edges from it instead of counting every delivery.
  std::vector<std::uint32_t> in_degree_;

  // Static remote fan-out CSR, built once at load: for each vertex, its
  // remote destination workers and how many of its out-edges land on each.
  // Ownership never changes during a run, so the per-edge owner test leaves
  // the chunk hot loop for good.
  std::vector<std::uint64_t> remote_off_;  ///< size n+1
  std::vector<std::uint16_t> remote_dst_;  ///< 16-bit: at most 65536 workers
  std::vector<std::uint32_t> remote_cnt_;

  // Per-destination send coalescing (DESIGN.md §13).
  CommBatcher batcher_;
  std::vector<CommBatcher::Flush> flush_scratch_;

  std::uint64_t step_messages_ = 0;

  int workers_done_ = 0;
  int gc_seq_ = 0;  ///< GcPause instance index within the current superstep

  struct Snapshot {
    std::vector<double> value;
    std::vector<char> halted;
    std::vector<double> msg_combined;
    std::vector<std::uint32_t> msg_count;
    std::vector<double> msg_data;          ///< kNone arena payloads
    std::vector<std::uint64_t> msg_offsets;  ///< kNone arena offsets
  } snapshot_;
};

void PregelRun::load_graph() {
  const VertexId n = g_.vertex_count();
  owner_ = graph::partition_by_hash(g_, static_cast<std::uint32_t>(workers_));

  ws_.resize(static_cast<std::size_t>(workers_));
  std::vector<std::vector<VertexId>> worker_vertices(workers_);
  for (VertexId v = 0; v < n; ++v) worker_vertices[owner_.owner[v]].push_back(v);

  const int partitions = threads_ * cfg_.partitions_per_thread;
  for (int w = 0; w < workers_; ++w) {
    auto& state = ws_[static_cast<std::size_t>(w)];
    state.threads.resize(static_cast<std::size_t>(threads_));
    // Contiguous split of the worker's vertices into partitions.
    const auto& mine = worker_vertices[static_cast<std::size_t>(w)];
    state.partitions.resize(static_cast<std::size_t>(partitions));
    for (std::size_t i = 0; i < mine.size(); ++i) {
      state.partitions[i * partitions / std::max<std::size_t>(mine.size(), 1)]
          .push_back(mine[i]);
    }
    state.active_lists.resize(state.partitions.size());
  }

  value_.resize(n);
  for (VertexId v = 0; v < n; ++v) value_[v] = prog_.initial_value(v, g_);
  halted_.assign(n, 0);
  sends_.assign(n, 0);
  msg_count_cur_.assign(n, 0);
  msg_count_next_.assign(n, 0);
  if (combiner_ == Combiner::kNone) {
    msg_offsets_cur_.assign(static_cast<std::size_t>(n) + 1, 0);
    msg_data_cur_.clear();
    arena_cursor_.assign(n, 0);
    outbox_.assign(n, 0.0);
  } else {
    msg_combined_cur_.assign(n, 0.0);
    msg_combined_next_.assign(n, 0.0);
  }

  if (combiner_ != Combiner::kMin) {
    in_degree_.assign(n, 0);
    for (const VertexId u : g_.out_targets()) ++in_degree_[u];
  }

  // Remote fan-out CSR: one (destination, edge count) entry per vertex and
  // remote worker, in ascending destination order.
  remote_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  remote_dst_.clear();
  remote_cnt_.clear();
  std::vector<std::uint32_t> dst_count(static_cast<std::size_t>(workers_), 0);
  for (VertexId v = 0; v < n; ++v) {
    const std::uint32_t home = owner_.owner[v];
    for (const VertexId u : g_.out_neighbors(v)) {
      if (owner_.owner[u] != home) ++dst_count[owner_.owner[u]];
    }
    for (std::uint32_t dst = 0; dst < static_cast<std::uint32_t>(workers_);
         ++dst) {
      if (dst_count[dst] == 0) continue;
      remote_dst_.push_back(static_cast<std::uint16_t>(dst));
      remote_cnt_.push_back(dst_count[dst]);
      dst_count[dst] = 0;
    }
    remote_off_[static_cast<std::size_t>(v) + 1] = remote_dst_.size();
  }

  std::vector<double> edges(static_cast<std::size_t>(workers_), 0.0);
  std::vector<double> owned(static_cast<std::size_t>(workers_), 0.0);
  for (int w = 0; w < workers_; ++w) {
    for (const auto& part : ws_[static_cast<std::size_t>(w)].partitions) {
      owned[static_cast<std::size_t>(w)] += static_cast<double>(part.size());
      for (VertexId v : part) {
        edges[static_cast<std::size_t>(w)] +=
            static_cast<double>(g_.out_degree(v));
      }
    }
  }
  // Checkpoint/restart recovery reloads state only: no re-ingest work.
  start_job(edges, std::move(owned),
            std::vector<double>(static_cast<std::size_t>(workers_), 0.0));
}

void PregelRun::start_superstep(TimeNs t) {
  // Determine the active set; stop when nothing is runnable.
  std::size_t total_active = 0;
  for (int w = 0; w < workers_; ++w) {
    auto& state = ws_[static_cast<std::size_t>(w)];
    state.next_partition = 0;
    state.threads_done = 0;
    for (std::size_t p = 0; p < state.partitions.size(); ++p) {
      auto& active = state.active_lists[p];
      active.clear();
      for (VertexId v : state.partitions[p]) {
        if (!halted_[v] || msg_count_cur_[v] > 0) active.push_back(v);
      }
      total_active += active.size();
    }
  }
  if (total_active == 0 || logical_step() >= prog_.max_supersteps()) {
    finish_job(t);
    return;
  }
  compute_superstep();

  gc_seq_ = 0;
  workers_done_ = 0;
  const PathRef step = step_path();
  log_.begin(step, t, trace::kGlobalMachine);
  const DurationNs prep = ns_from_seconds(cfg_.costs.prepare_seconds);
  for (int w = 0; w < workers_; ++w) {
    auto& state = ws_[static_cast<std::size_t>(w)];
    const PathRef prepare = step.child(pregel_symbols().worker_prepare, w);
    log_.begin(prepare, t, w);
    log_.end(prepare, t + prep, w);
    // Prepare burns one core per worker (bookkeeping is single-threaded).
    cpu(w).add(t, 1.0);
    cpu(w).add(t + prep, -1.0);
    state.compute_phase = step.child(pregel_symbols().worker_compute, w);
    state.communicate_phase = step.child(pregel_symbols().worker_communicate, w);
    state.barrier_phase = step.child(pregel_symbols().worker_barrier, w);
    log_.begin(state.compute_phase, t + prep, w);
    log_.begin(state.communicate_phase, t + prep, w);
    for (int th = 0; th < threads_; ++th) {
      auto& thread = state.threads[static_cast<std::size_t>(th)];
      thread.reset();
      thread.phase =
          state.compute_phase.child(pregel_symbols().compute_thread, th);
      schedule_epoch(t + prep, [this, w, th] { thread_continue(w, th); });
    }
  }
}

void PregelRun::compute_superstep() {
  // Pass 1: the vertex program over contiguous vertex ranges. A vertex's
  // compute reads only its own value and messages and writes only its own
  // slots.
  const VertexId n = g_.vertex_count();
  pool_.parallel_for((n + kComputeRange - 1) / kComputeRange, 1,
                     [&](std::size_t task) {
                       const VertexId begin =
                           static_cast<VertexId>(task) * kComputeRange;
                       compute_range(begin,
                                     std::min(n, begin + kComputeRange));
                     });

  // Passes 2 and 3 share one fan-out: the deliveries (task 0) write only
  // the next superstep's message state, the chunk costs (one task per
  // worker) read only this one's.
  pool_.parallel_for(1 + static_cast<std::size_t>(workers_), 1,
                     [&](std::size_t task) {
                       if (task == 0) {
                         deliver_messages();
                       } else {
                         cost_chunks(static_cast<int>(task - 1));
                       }
                     });
}

/// Runs the vertex program on every active vertex in [begin, end) and
/// records what each one sends.
void PregelRun::compute_range(VertexId begin, VertexId end) {
  const int superstep = logical_step();
  double* outgoing = outgoing_messages();
  for (VertexId v = begin; v < end; ++v) {
    const std::uint32_t msgs = msg_count_cur_[v];
    sends_[v] = 0;
    if (halted_[v] && msgs == 0) continue;
    std::span<const double> messages;
    if (msgs > 0) {
      messages = combiner_ == Combiner::kNone
                     ? std::span<const double>(
                           msg_data_cur_.data() + msg_offsets_cur_[v], msgs)
                     : std::span<const double>(&msg_combined_cur_[v], 1);
    }
    PregelOutbox out;
    prog_.compute(v, value_[v], messages, superstep, g_, out);
    halted_[v] = out.vote_to_halt ? 1 : 0;
    if (!out.send_to_all_neighbors) continue;
    sends_[v] = out.add_edge_weight ? kSends | kAddEdgeWeight : kSends;
    outgoing[v] = out.message;
  }
}

/// Builds the next superstep's messages. Senders are visited in ascending
/// id, so a kSum combiner adds each vertex's messages in in-neighbor order,
/// as pagerank_reference and the GAS gather do.
void PregelRun::deliver_messages() {
  // This superstep's deliveries replace whatever the last one left behind,
  // an aborted attempt's included. kSum and kNone programs send on most
  // edges, so their receive counts start from the in-degree and lose the
  // non-senders' edges; kMin counts as it delivers.
  const bool from_in_degree = combiner_ != Combiner::kMin;
  if (from_in_degree) {
    std::copy(in_degree_.begin(), in_degree_.end(), msg_count_next_.begin());
  } else {
    std::fill(msg_count_next_.begin(), msg_count_next_.end(), 0u);
  }
  if (combiner_ == Combiner::kNone) {
    msg_log_targets_.clear();
    msg_log_payloads_.clear();
  } else {
    std::fill(msg_combined_next_.begin(), msg_combined_next_.end(), 0.0);
  }
  step_messages_ = 0;
  const double* outgoing = outgoing_messages();
  for (VertexId v = 0; v < g_.vertex_count(); ++v) {
    const char flags = sends_[v];
    const auto nbrs = g_.out_neighbors(v);
    if (flags == 0) {
      if (from_in_degree) {
        for (const VertexId u : nbrs) --msg_count_next_[u];
      }
      continue;
    }
    step_messages_ += nbrs.size();
    std::span<const double> weights;
    double base = outgoing[v];
    if ((flags & kAddEdgeWeight) != 0) {
      weights = g_.out_weights(v);
      if (weights.empty()) base = outgoing[v] + 1.0;
    }
    deliver(nbrs, weights, base);
  }
}

/// Fills worker w's chunk table for this superstep. The simulated compute
/// threads take chunk_vertices consecutive entries of a partition's active
/// list at a time, so the chunks are fixed once the active lists are; each
/// chunk's sums run in active-list order.
void PregelRun::cost_chunks(int w) {
  auto& state = ws_[static_cast<std::size_t>(w)];
  const std::size_t chunk_vertices =
      static_cast<std::size_t>(cfg_.chunk_vertices);
  const std::size_t dsts = static_cast<std::size_t>(workers_);
  state.chunk_first.resize(state.active_lists.size() + 1);
  std::size_t count = 0;
  for (std::size_t p = 0; p < state.active_lists.size(); ++p) {
    state.chunk_first[p] = count;
    count += (state.active_lists[p].size() + chunk_vertices - 1) /
             chunk_vertices;
  }
  state.chunk_first.back() = count;
  state.chunks.resize(count);
  state.remote_by_dst.assign(count * dsts, 0.0);

  for (std::size_t p = 0; p < state.active_lists.size(); ++p) {
    const auto& active = state.active_lists[p];
    for (std::size_t begin = 0; begin < active.size();
         begin += chunk_vertices) {
      const std::size_t end = std::min(active.size(), begin + chunk_vertices);
      const std::size_t chunk = state.chunk_first[p] + begin / chunk_vertices;
      double* remote_by_dst = state.remote_by_dst.data() + chunk * dsts;
      double work = 0.0;
      double alloc = 0.0;
      double remote_bytes = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        const VertexId v = active[i];
        work += cfg_.costs.work_per_vertex +
                cfg_.costs.work_per_message *
                    static_cast<double>(msg_count_cur_[v]);
        alloc += cfg_.gc.bytes_per_vertex_update;
        const double degree = static_cast<double>(g_.out_degree(v));
        if (sends_[v] != 0) {
          work += cfg_.costs.work_per_edge * degree;
          alloc += cfg_.gc.bytes_per_message * degree;
          // Remote accounting from the precomputed fan-out: one entry per
          // (vertex, destination) instead of an owner lookup per edge.
          for (std::uint64_t k = remote_off_[v]; k < remote_off_[v + 1];
               ++k) {
            const double bytes = cfg_.costs.bytes_per_message *
                                 static_cast<double>(remote_cnt_[k]);
            remote_bytes += bytes;
            remote_by_dst[remote_dst_[k]] += bytes;
          }
        } else {
          // Giraph still scans the edge list of a computed vertex.
          work += 0.25 * cfg_.costs.work_per_edge * degree;
        }
      }
      state.chunks[chunk] = {work, alloc, remote_bytes};
    }
  }
}

void PregelRun::thread_continue(int w, int th) {
  if (dead_[static_cast<std::size_t>(w)] != 0) return;
  auto& state = ws_[static_cast<std::size_t>(w)];
  auto& thread = state.threads[static_cast<std::size_t>(th)];
  const TimeNs now = sim_.now();
  if (thread.done) return;
  if (!thread.phase_open) {
    log_.begin(thread.phase, now, w);
    thread.phase_open = true;
  }
  // 1. Stop-the-world GC on this worker: wait until it completes. The GC
  //    blocking event is emitted when the wait ends (end_gc, or crash
  //    teardown), so an interrupted wait never logs a dangling block.
  if (state.gc_active) {
    if (!thread.waiting_gc) {
      thread.waiting_gc = true;
      thread.gc_wait_begin = now;
    }
    return;  // end_gc() resumes us
  }
  // 2. Outgoing message buffer over capacity: backpressure stall. Logged
  //    when the stall resolves, for the same reason as the GC wait. The
  //    coalescing buffers count against the same capacity — they are the
  //    front half of the outgoing buffer — so pressure first converts them
  //    into NIC traffic, then stalls on the queue.
  if (batcher_.pending(w) > 0.0 &&
      nic(w).level(now) + batcher_.pending(w) >
          cfg_.queue.capacity_bytes) {
    batcher_.take_all(w, flush_scratch_);
    for (const auto& f : flush_scratch_) flush_batch(w, f.dst, f.bytes, now);
  }
  if (nic(w).level(now) > cfg_.queue.capacity_bytes) {
    const TimeNs resume = nic(w).time_until_level(
        now, cfg_.queue.capacity_bytes * cfg_.queue.resume_fraction);
    schedule_epoch(resume, [this, w, th, now, resume] {
      if (dead_[static_cast<std::size_t>(w)] != 0) return;
      log_.block(pregel_names::kMessageQueue,
                 ws_[static_cast<std::size_t>(w)]
                     .threads[static_cast<std::size_t>(th)]
                     .phase,
                 now, resume, w);
      thread_continue(w, th);
    });
    return;
  }
  // 3. Acquire a partition if we do not hold one.
  while (thread.partition < 0 ||
         thread.pos >=
             state.active_lists[static_cast<std::size_t>(thread.partition)]
                 .size()) {
    if (state.next_partition >= state.partitions.size()) {
      // Final flush: with a live reliable channel, the last compute thread
      // out drains this worker's coalescing buffers before the compute phase
      // can close, preserving the invariant that every channel attempt is
      // enqueued before worker_compute_done computes the drain time.
      if (!channel_.trivial() && state.threads_done == threads_ - 1 &&
          batcher_.pending(w) > 0.0) {
        batcher_.take_all(w, flush_scratch_);
        TimeNs resume = now;
        for (const auto& f : flush_scratch_) {
          resume = std::max(resume, flush_batch(w, f.dst, f.bytes, now));
        }
        if (resume > now) {
          // Re-entry finds the buffers empty and falls through to
          // thread_done.
          resume_after_send(w, th, now, resume);
          return;
        }
      }
      thread_done(w, th);
      return;
    }
    thread.partition = static_cast<int>(state.next_partition++);
    thread.pos = 0;
  }
  // 4. Process one chunk of active vertices; its cost is in the superstep's
  //    chunk table.
  const std::size_t chunk_vertices =
      static_cast<std::size_t>(cfg_.chunk_vertices);
  const std::size_t begin = thread.pos;
  thread.pos = std::min(
      state.active_lists[static_cast<std::size_t>(thread.partition)].size(),
      begin + chunk_vertices);
  const std::size_t chunk =
      state.chunk_first[static_cast<std::size_t>(thread.partition)] +
      begin / chunk_vertices;
  const double work = state.chunks[chunk].work;
  // A JVM thread's effective CPU intensity fluctuates below one core;
  // the same work then takes proportionally longer. An active slowdown
  // window stretches the chunk further (sampled once, at dispatch).
  const double intensity =
      rng_.next_double(cfg_.costs.cpu_intensity_min, 1.0);
  const DurationNs duration = std::max<DurationNs>(
      1, ns_for_work(work * jitter(cfg_.costs.work_jitter) / intensity /
                     faults_.speed_factor(w, now)));
  cpu(w).add(now, intensity);
  thread.running_intensity = intensity;
  ++state.running_chunks;
  schedule_epoch(now + duration, [this, w, th, chunk, intensity] {
    finish_chunk(w, th, chunk, intensity);
  });
}

void PregelRun::finish_chunk(int w, int th, std::size_t chunk,
                             double intensity) {
  if (dead_[static_cast<std::size_t>(w)] != 0) return;
  auto& state = ws_[static_cast<std::size_t>(w)];
  const TimeNs now = sim_.now();
  cpu(w).add(now, -intensity);
  state.threads[static_cast<std::size_t>(th)].running_intensity = 0.0;
  --state.running_chunks;
  state.alloc_bytes += state.chunks[chunk].alloc;
  if (state.gc_active) {
    // GC is running: this core is immediately taken over by the collector.
    cpu(w).add(now, 1.0);
    state.gc_cores_taken += 1.0;
  } else if (cfg_.gc.enabled && state.alloc_bytes > cfg_.gc.young_gen_bytes) {
    start_gc(w);
  }
  send_chunk(w, th, chunk);
}

/// Hands one flushed per-destination batch to the transport. Returns when
/// the sending thread may proceed: `now` on the trivial channel, otherwise
/// the reliable plan's completion time. Every planned attempt (including
/// retransmits) costs the payload bytes on this worker's NIC at its own
/// time.
TimeNs PregelRun::flush_batch(int w, int dst, double bytes, TimeNs now) {
  if (channel_.trivial()) {
    nic(w).enqueue(now, bytes);
    return now;
  }
  return send_reliable(w, dst, bytes, now);
}

/// Arms the simulated-time flush deadline for worker w's buffers. Trivial
/// channel only: with a live channel the sending thread already blocks on
/// the plan's completion and leftovers drain at the final flush. Armed on
/// every idle->pending transition; a stale timer finds pending() == 0 and
/// does nothing. Epoch-guarded so crash recovery cancels it.
void PregelRun::arm_flush_timer(int w) {
  schedule_epoch(sim_.now() + CommBatcher::kFlushAfter, [this, w] {
    if (dead_[static_cast<std::size_t>(w)] != 0) return;
    if (batcher_.pending(w) <= 0.0) return;
    batcher_.take_all(w, flush_scratch_);
    double total = 0.0;
    for (const auto& f : flush_scratch_) total += f.bytes;
    nic(w).enqueue(sim_.now(), total);
  });
}

/// Releases the sending thread: immediately, or after blocking on the
/// reliable channel's completion time. Grade10 sees the wait as a "Retry"
/// blocking event emitted when it ends.
void PregelRun::resume_after_send(int w, int th, TimeNs now, TimeNs resume) {
  if (resume > now) {
    const PathRef phase = ws_[static_cast<std::size_t>(w)]
                              .threads[static_cast<std::size_t>(th)]
                              .phase;
    schedule_epoch(resume, [this, w, th, phase, now, resume] {
      if (dead_[static_cast<std::size_t>(w)] != 0) return;
      log_.block(resource_names::kRetry, phase, now, resume, w);
      thread_continue(w, th);
    });
    return;
  }
  thread_continue(w, th);
}

void PregelRun::send_chunk(int w, int th, std::size_t chunk) {
  const auto& state = ws_[static_cast<std::size_t>(w)];
  const double remote_bytes = state.chunks[chunk].remote_bytes;
  const TimeNs now = sim_.now();
  comm_.remote_bytes_total += remote_bytes;
  if (remote_bytes <= 0.0) {
    // Nothing to send; the empty enqueue only advances the NIC's fluid
    // state to now.
    nic(w).enqueue(now, remote_bytes);
    thread_continue(w, th);
    return;
  }
  // The chunk's traffic joins the per-destination coalescing buffers. Only
  // buffers crossing the frame size flush here; the rest wait for the flush
  // timer (trivial channel) or the compute barrier.
  const double* remote_by_dst =
      state.remote_by_dst.data() + chunk * static_cast<std::size_t>(workers_);
  bool arm_timer = false;
  TimeNs resume = now;
  for (int dst = 0; dst < workers_; ++dst) {
    const double bytes = remote_by_dst[static_cast<std::size_t>(dst)];
    if (bytes <= 0.0 || dst == w) continue;
    const auto dep = batcher_.deposit(w, dst, bytes);
    arm_timer = arm_timer || dep.first_pending;
    if (!dep.crossed) continue;
    const double batch = batcher_.take(w, dst);
    resume = std::max(resume, flush_batch(w, dst, batch, now));
  }
  if (arm_timer && channel_.trivial()) arm_flush_timer(w);
  resume_after_send(w, th, now, resume);
}

void PregelRun::start_gc(int w) {
  auto& state = ws_[static_cast<std::size_t>(w)];
  const TimeNs now = sim_.now();
  const double pause_seconds =
      (cfg_.gc.pause_base_seconds + cfg_.gc.pause_per_byte * state.alloc_bytes) *
      jitter(cfg_.gc.pause_jitter);
  state.alloc_bytes = 0.0;
  state.gc_active = true;
  state.gc_end = now + ns_from_seconds(pause_seconds);
  state.gc_phase = step_path().child(pregel_symbols().gc_pause, gc_seq_++);
  log_.begin(state.gc_phase, now, w);
  // The collector takes every core not currently finishing a compute chunk;
  // the remaining cores are absorbed one by one as chunks complete.
  state.gc_cores_taken = static_cast<double>(cfg_.cluster.machine.cores) -
                         static_cast<double>(state.running_chunks);
  cpu(w).add(now, state.gc_cores_taken);
  schedule_epoch(state.gc_end, [this, w] { end_gc(w); });
}

void PregelRun::end_gc(int w) {
  auto& state = ws_[static_cast<std::size_t>(w)];
  // A crash teardown may have force-finished this collection already.
  if (!state.gc_active) return;
  const TimeNs now = sim_.now();
  cpu(w).add(now, -state.gc_cores_taken);
  state.gc_cores_taken = 0.0;
  state.gc_active = false;
  log_.end(state.gc_phase, now, w);
  for (int th = 0; th < threads_; ++th) {
    auto& thread = state.threads[static_cast<std::size_t>(th)];
    if (thread.waiting_gc) {
      thread.waiting_gc = false;
      log_.block(pregel_names::kGc, thread.phase, thread.gc_wait_begin, now,
                 w);
      thread_continue(w, th);
    }
  }
}

void PregelRun::thread_done(int w, int th) {
  auto& state = ws_[static_cast<std::size_t>(w)];
  auto& thread = state.threads[static_cast<std::size_t>(th)];
  thread.done = true;
  if (thread.phase_open) {
    log_.end(thread.phase, sim_.now(), w);
    thread.phase_open = false;
  }
  if (++state.threads_done == threads_) worker_compute_done(w);
}

void PregelRun::worker_compute_done(int w) {
  auto& state = ws_[static_cast<std::size_t>(w)];
  const TimeNs now = sim_.now();
  state.compute_end = now;
  log_.end(state.compute_phase, now, w);
  // Barrier flush: whatever is still buffered goes out now, before the
  // communicate drain time is computed. With a live channel the last
  // compute thread already flushed.
  if (channel_.trivial() && batcher_.pending(w) > 0.0) {
    batcher_.take_all(w, flush_scratch_);
    double total = 0.0;
    for (const auto& f : flush_scratch_) total += f.bytes;
    nic(w).enqueue(now, total);
  }
  G10_CHECK_MSG(batcher_.pending(w) <= 0.0, "unflushed batch at compute end");
  const TimeNs drained = nic(w).time_empty(now);
  log_.end(state.communicate_phase, drained, w);
  // The END above is logged ahead of simulated time; remember it so a crash
  // teardown can close the Superstep at or after every logged child END.
  note_logged_end(drained);
  log_.begin(state.barrier_phase, now, w);
  state.ready = std::max(drained, state.gc_active ? state.gc_end : now);
  if (++workers_done_ == workers_) {
    TimeNs barrier = 0;
    for (const auto& other : ws_) barrier = std::max(barrier, other.ready);
    barrier += ns_from_seconds(cfg_.costs.barrier_sync_seconds);
    schedule_transition(barrier, [this] { finish_superstep(sim_.now()); });
  }
}

void PregelRun::finish_superstep(TimeNs barrier_time) {
  const PathRef step = step_path();
  for (int w = 0; w < workers_; ++w) {
    log_.end(ws_[static_cast<std::size_t>(w)].barrier_phase, barrier_time, w);
  }
  log_.end(step, barrier_time, trace::kGlobalMachine);

  // Promote the next superstep's messages.
  if (combiner_ == Combiner::kNone) {
    // Two-pass CSR rebuild of the message arena: prefix-sum the delivery
    // counts, then stable-scatter the append log so each vertex sees its
    // messages in delivery order (what the per-vertex lists used to hold).
    const VertexId n = g_.vertex_count();
    msg_offsets_cur_[0] = 0;
    for (VertexId v = 0; v < n; ++v) {
      msg_offsets_cur_[v + 1] = msg_offsets_cur_[v] + msg_count_next_[v];
      arena_cursor_[v] = msg_offsets_cur_[v];
    }
    msg_data_cur_.resize(msg_log_targets_.size());
    for (std::size_t i = 0; i < msg_log_targets_.size(); ++i) {
      msg_data_cur_[arena_cursor_[msg_log_targets_[i]]++] =
          msg_log_payloads_[i];
    }
  } else {
    msg_combined_cur_.swap(msg_combined_next_);
  }
  msg_count_cur_.swap(msg_count_next_);
  comm_.messages_per_step.push_back(step_messages_);
  retire_step(barrier_time);
}

void PregelRun::save_snapshot() {
  snapshot_.value = value_;
  snapshot_.halted = halted_;
  snapshot_.msg_combined = msg_combined_cur_;
  snapshot_.msg_count = msg_count_cur_;
  snapshot_.msg_data = msg_data_cur_;
  snapshot_.msg_offsets = msg_offsets_cur_;
}

void PregelRun::restore_snapshot() {
  value_ = snapshot_.value;
  halted_ = snapshot_.halted;
  msg_combined_cur_ = snapshot_.msg_combined;
  msg_count_cur_ = snapshot_.msg_count;
  msg_data_cur_ = snapshot_.msg_data;
  msg_offsets_cur_ = snapshot_.msg_offsets;
}

void PregelRun::teardown_worker(int w, TimeNs now, bool truncate) {
  auto& state = ws_[static_cast<std::size_t>(w)];
  for (int th = 0; th < threads_; ++th) {
    auto& thread = state.threads[static_cast<std::size_t>(th)];
    if (thread.running_intensity > 0.0) {
      cpu(w).add(now, -thread.running_intensity);
      thread.running_intensity = 0.0;
    }
    if (thread.phase_open) {
      if (thread.waiting_gc && !truncate) {
        log_.block(pregel_names::kGc, thread.phase, thread.gc_wait_begin, now,
                   w);
      }
      if (truncate) {
        // The crashed worker's log simply stops: its open phases keep their
        // BEGIN but never get an END.
        log_.abandon(thread.phase);
      } else {
        log_.end(thread.phase, now, w);
      }
      thread.phase_open = false;
    }
    thread.waiting_gc = false;
    thread.done = true;
  }
  state.running_chunks = 0;
  if (state.gc_active) {
    cpu(w).add(now, -state.gc_cores_taken);
    state.gc_cores_taken = 0.0;
    state.gc_active = false;
    close_or_abandon(state.gc_phase, truncate, now, w);
  }
  state.alloc_bytes = 0.0;
  close_or_abandon(state.compute_phase, truncate, now, w);
  close_or_abandon(state.communicate_phase, truncate, now, w);
  close_or_abandon(state.barrier_phase, truncate, now, w);
  // Whatever still sits in the coalescing buffers is lost with the worker.
  batcher_.clear(w);
}

}  // namespace

PregelEngine::PregelEngine(PregelConfig config) : config_(std::move(config)) {
  config_.cluster.validate();
  G10_CHECK(config_.chunk_vertices > 0);
  G10_CHECK(config_.partitions_per_thread > 0);
}

LoggedRun PregelEngine::run_logged(
    const graph::Graph& graph, const algorithms::PregelProgram& program) const {
  PregelRun run(config_, graph, program);
  return run.execute();
}

trace::RunArtifacts PregelEngine::run(
    const graph::Graph& graph, const algorithms::PregelProgram& program) const {
  return run_logged(graph, program).render();
}

TimeNs PregelEngine::estimate_horizon(
    const graph::Graph& graph, const algorithms::PregelProgram& program) const {
  return pregel_nominal_horizon(config_, graph, program);
}

}  // namespace g10::engine
