// DAG strategy: executes a precompiled ExecutionPlan, sequentially or on a
// thread pool. All scheduling data (dense indices, pending counts,
// out-edges, resolved kernels) comes from the plan; the only per-run state
// is the per-node countdown/output array.
//
// Sequential runs walk the dense node array, which is topological. Runs
// that asked for +PARL consult the plan's DagSchedule (runtime/plan.h),
// calibrated once from one timed warm run: plans whose offloadable work
// cannot pay for its pool handoffs stay sequential. The parallel path counts
// dependencies down with atomics; a node that becomes ready runs inline on
// the thread that readied it unless its offload bit sends it to the pool,
// and the caller runs ready work itself, blocking only on the count of
// in-flight pool tasks.
//
// Failures are attributed deterministically on both paths: a node whose
// inputs were never produced does not run, and the run rethrows the failure
// of the lowest plan index — the first failure of the sequential walk.
//
// Buffer liveness follows the plan's MemoryPlan: every data read of a
// producer's outputs counts its `reads_remaining` down, and the read that
// reaches zero clears the producer's output slots (unless fetch-protected).
// That both returns dead intermediate buffers to the BufferPool mid-run and
// makes the consuming kernel's `inputs` vector the sole holder of a dying
// buffer, enabling in-place output reuse for plan-marked elementwise nodes.
#include <atomic>
#include <climits>
#include <exception>

#include "common/logging.h"
#include "obs/profile.h"
#include "runtime/executor.h"
#include "runtime/fusion.h"

namespace janus {
namespace internal {
namespace {

struct NodeState {
  std::atomic<int> pending{0};
  std::atomic<int> reads_remaining{0};
  // Set by a producer that failed or was skipped, before it counts this
  // node's pending edge off; the node is then skipped in turn.
  std::atomic<bool> poisoned{false};
  std::vector<Tensor> outputs;
  std::exception_ptr error;  // set iff this node threw (parallel path)
};

class DagRun {
 public:
  DagRun(RunContext& run, const ExecutionPlan& plan, const Bindings& bindings,
         const Precomputed* precomputed)
      : run_(run),
        plan_(plan),
        nodes_(plan.nodes()),
        memory_(plan.memory()),
        bindings_(bindings),
        precomputed_(precomputed),
        states_(nodes_.size()) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      states_[i].pending.store(nodes_[i].initial_pending,
                               std::memory_order_relaxed);
      states_[i].reads_remaining.store(memory_.nodes[i].output_reads,
                                       std::memory_order_relaxed);
    }
  }

  // Runs every node in plan order; the first failure propagates. When
  // `cost_ns` is non-null each node's wall time is stored there.
  void RunSequential(std::int64_t* cost_ns) {
    std::int64_t last_ns = cost_ns != nullptr ? obs::Trace::NowNs() : 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      RunNode(static_cast<int>(i));
      if (cost_ns != nullptr) {
        const std::int64_t now_ns = obs::Trace::NowNs();
        cost_ns[i] = now_ns - last_ns;
        last_ns = now_ns;
      }
    }
  }

  void RunParallel(const DagSchedule& schedule) {
    JANUS_EXPECTS(run_.pool != nullptr);
    offload_ = schedule.offload.data();
    std::vector<int> ready;
    int keep = -1;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].initial_pending == 0) {
        Ready(static_cast<int>(i), ready, keep);
      }
    }
    if (keep >= 0) Settle(keep, ready);
    Drain(ready);
    // Everything left runs on the pool; each task's tail counts itself off.
    for (int n = in_flight_.load(std::memory_order_acquire); n != 0;
         n = in_flight_.load(std::memory_order_acquire)) {
      in_flight_.wait(n, std::memory_order_acquire);
    }
    const int failed = first_failure_.load(std::memory_order_relaxed);
    if (failed != INT_MAX) {
      std::rethrow_exception(states_[static_cast<std::size_t>(failed)].error);
    }
  }

  std::vector<Tensor> Fetch() const {
    std::vector<Tensor> results;
    results.reserve(plan_.fetch_slots().size());
    for (const ExecutionPlan::Input& fetch : plan_.fetch_slots()) {
      const NodeState& state = states_[static_cast<std::size_t>(fetch.producer)];
      results.push_back(
          state.outputs.at(static_cast<std::size_t>(fetch.slot)));
    }
    return results;
  }

 private:
  // Gathers the node's inputs, dispatches it and applies the liveness plan.
  void RunNode(int index) {
    // Source-attributed profiler: sampled per-node wall time (disabled
    // path is one relaxed load inside ShouldSampleProfileNode).
    const bool prof_sampled = obs::ShouldSampleProfileNode();
    const ProfRecord prof_record{plan_.profile(), index,
                                 prof_sampled ? obs::Trace::NowNs() : 0,
                                 prof_sampled};
    const ExecutionPlan::PlanNode& entry =
        nodes_[static_cast<std::size_t>(index)];
    const MemoryPlan::NodeInfo& minfo =
        memory_.nodes[static_cast<std::size_t>(index)];
    NodeState& state = states_[static_cast<std::size_t>(index)];
    if (precomputed_ != nullptr) {
      const auto it = precomputed_->find(entry.node);
      if (it != precomputed_->end()) {
        // Precomputed nodes skip reading their inputs, so their producers'
        // read countdowns never reach zero: liveness release degrades to
        // end-of-run teardown for that subgraph, never to a premature drop.
        state.outputs = it->second;
        return;
      }
    }
    switch (entry.kind) {
      case ExecutionPlan::OpKind::kConst:
        state.outputs.assign(1, entry.const_value);
        return;
      case ExecutionPlan::OpKind::kPlaceholder:
      case ExecutionPlan::OpKind::kParam:
        state.outputs.assign(
            1, ResolveSource(run_, entry.kind, *entry.node, bindings_));
        return;
      default:
        break;
    }
    const std::span<const ExecutionPlan::Input> entry_inputs =
        plan_.inputs(entry);
    std::vector<Tensor> inputs;
    inputs.reserve(entry_inputs.size());
    for (const ExecutionPlan::Input& input : entry_inputs) {
      const NodeState& producer =
          states_[static_cast<std::size_t>(input.producer)];
      inputs.push_back(
          producer.outputs.at(static_cast<std::size_t>(input.slot)));
    }
    // This node's reads are done (copied above): count them off each
    // producer and drop producer-held references when the last counted read
    // completes. The acq_rel countdown orders every consumer's copy before
    // the clearing thread's release, so this is safe on the pool too.
    for (const ExecutionPlan::Input& input : entry_inputs) {
      NodeState& producer = states_[static_cast<std::size_t>(input.producer)];
      if (producer.reads_remaining.fetch_sub(1, std::memory_order_acq_rel) ==
              1 &&
          !memory_.nodes[static_cast<std::size_t>(input.producer)]
               .fetch_protected) {
        ReleaseOutputs(producer);
      }
    }
    if (entry.kind == ExecutionPlan::OpKind::kFusedRegion) {
      // Note the precomputed check above keys on the region's ROOT node;
      // interior members recorded on an eager tape are honoured inside
      // ExecuteFusedRegion, which falls back to per-member dispatch.
      ExecuteFusedRegion(run_, *entry.fused, inputs, state.outputs,
                         /*allow_in_place=*/minfo.in_place_capable,
                         precomputed_);
    } else {
      ExecuteKernel(run_, *entry.node, *entry.kernel, inputs, state.outputs,
                    /*allow_in_place=*/minfo.in_place_capable);
    }
    // Outputs nothing reads (control-edge-anchored side effects) die at
    // birth.
    if (minfo.output_reads == 0 && !minfo.fetch_protected &&
        !state.outputs.empty()) {
      ReleaseOutputs(state);
    }
  }

  void ReleaseOutputs(NodeState& state) {
    run_.buffers_released.fetch_add(
        static_cast<std::int64_t>(state.outputs.size()),
        std::memory_order_relaxed);
    state.outputs.clear();
  }

  // A node whose pending count reached zero on this thread: cheap nodes go
  // on this thread's stack; of the offload-bit nodes, all but the latest go
  // to the pool and the latest waits in `keep` for Settle.
  void Ready(int index, std::vector<int>& ready, int& keep) {
    if (offload_[static_cast<std::size_t>(index)] == 0) {
      ready.push_back(index);
      return;
    }
    if (keep >= 0) Offload(keep);
    keep = index;
  }

  // The held-back offload node runs inline if this thread has nothing else
  // to do, and on the pool otherwise.
  void Settle(int keep, std::vector<int>& ready) {
    if (ready.empty()) {
      ready.push_back(keep);
    } else {
      Offload(keep);
    }
  }

  void Offload(int index) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    run_.nodes_offloaded.fetch_add(1, std::memory_order_relaxed);
    run_.pool->Schedule([this, index] {
      std::vector<int> ready{index};
      Drain(ready);
      // The count-down-then-notify of std::latch: the caller may return as
      // soon as it sees zero, and notify_all only passes the address to
      // the futex wake, never dereferencing it.
      std::atomic<int>& in_flight = in_flight_;
      if (in_flight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        in_flight.notify_all();
      }
    });
  }

  // Runs the stack's nodes and every node they ready on this thread.
  void Drain(std::vector<int>& ready) {
    while (!ready.empty()) {
      const int index = ready.back();
      ready.pop_back();
      NodeState& state = states_[static_cast<std::size_t>(index)];
      bool produced = false;
      if (!state.poisoned.load(std::memory_order_relaxed)) {
        try {
          RunNode(index);
          produced = true;
        } catch (...) {
          state.error = std::current_exception();
          int lowest = first_failure_.load(std::memory_order_relaxed);
          while (index < lowest &&
                 !first_failure_.compare_exchange_weak(
                     lowest, index, std::memory_order_relaxed)) {
          }
        }
      }
      int keep = -1;
      for (const ExecutionPlan::OutEdge& edge :
           plan_.out_edges(nodes_[static_cast<std::size_t>(index)])) {
        NodeState& consumer = states_[static_cast<std::size_t>(edge.consumer)];
        if (!produced) consumer.poisoned.store(true, std::memory_order_relaxed);
        if (consumer.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          Ready(edge.consumer, ready, keep);
        }
      }
      if (keep >= 0) Settle(keep, ready);
    }
  }

  RunContext& run_;
  const ExecutionPlan& plan_;
  const std::vector<ExecutionPlan::PlanNode>& nodes_;
  const MemoryPlan& memory_;
  const Bindings& bindings_;
  const Precomputed* const precomputed_;
  std::vector<NodeState> states_;
  const std::uint8_t* offload_ = nullptr;  // the schedule's offload bits
  std::atomic<int> in_flight_{0};          // pool tasks not yet finished
  std::atomic<int> first_failure_{INT_MAX};
};

}  // namespace

std::vector<Tensor> ExecuteDag(RunContext& run, const ExecutionPlan& plan,
                               const Bindings& bindings, bool parallel,
                               const Precomputed* precomputed) {
  DagRun dag(run, plan, bindings, precomputed);
  const DagSchedule* schedule = parallel ? plan.schedule() : nullptr;
  if (schedule != nullptr && schedule->parallel) {
    dag.RunParallel(*schedule);
  } else if (parallel && schedule == nullptr && plan.ClaimCalibration()) {
    std::vector<std::int64_t> cost_ns(plan.nodes().size(), 0);
    dag.RunSequential(cost_ns.data());
    plan.PublishSchedule(ComputeDagSchedule(plan, cost_ns));
  } else {
    // Includes a plan's first +PARL run: untimed, since it pays one-time
    // costs, and sequential, since most plans never pay for the pool.
    dag.RunSequential(nullptr);
  }
  return dag.Fetch();
}

}  // namespace internal
}  // namespace janus
