// DAG strategy: executes a precompiled ExecutionPlan over dependency
// countdown, sequentially or fanned out to a thread pool. All scheduling
// data (dense indices, pending counts, out-edges, resolved kernels) comes
// from the plan; the only per-run state is the countdown/output array.
//
// Buffer liveness follows the plan's MemoryPlan: every data read of a
// producer's outputs counts its `reads_remaining` down, and the read that
// reaches zero clears the producer's output slots (unless fetch-protected).
// That both returns dead intermediate buffers to the BufferPool mid-run and
// makes the consuming kernel's `inputs` vector the sole holder of a dying
// buffer, enabling in-place output reuse for plan-marked elementwise nodes.
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>

#include "common/logging.h"
#include "obs/profile.h"
#include "runtime/executor.h"
#include "runtime/fusion.h"

namespace janus {
namespace internal {
namespace {

struct NodeState {
  int pending = 0;
  std::atomic<int> reads_remaining{0};
  std::vector<Tensor> outputs;
};

}  // namespace

std::vector<Tensor> ExecuteDag(RunContext& run, const ExecutionPlan& plan,
                               const Bindings& bindings, bool parallel,
                               const Precomputed* precomputed) {
  const std::vector<ExecutionPlan::PlanNode>& nodes = plan.nodes();
  const MemoryPlan& memory = plan.memory();
  std::vector<NodeState> states(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    states[i].pending = nodes[i].initial_pending;
    states[i].reads_remaining.store(memory.nodes[i].output_reads,
                                    std::memory_order_relaxed);
  }

  const auto release_outputs = [&](NodeState& state) {
    run.buffers_released.fetch_add(
        static_cast<std::int64_t>(state.outputs.size()),
        std::memory_order_relaxed);
    state.outputs.clear();
  };

  obs::PlanProfile* const profile = plan.profile();

  const auto run_node = [&](int index) {
    // Source-attributed profiler: sampled per-node wall time (disabled
    // path is one relaxed load inside ShouldSampleProfileNode).
    const bool prof_sampled = obs::ShouldSampleProfileNode();
    const ProfRecord prof_record{profile, index,
                                 prof_sampled ? obs::Trace::NowNs() : 0,
                                 prof_sampled};
    const ExecutionPlan::PlanNode& entry =
        nodes[static_cast<std::size_t>(index)];
    const MemoryPlan::NodeInfo& minfo =
        memory.nodes[static_cast<std::size_t>(index)];
    auto& state = states[static_cast<std::size_t>(index)];
    if (precomputed != nullptr) {
      const auto it = precomputed->find(entry.node);
      if (it != precomputed->end()) {
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
            1, ResolveSource(run, entry.kind, *entry.node, bindings));
        return;
      default:
        break;
    }
    const std::span<const ExecutionPlan::Input> entry_inputs =
        plan.inputs(entry);
    std::vector<Tensor> inputs;
    inputs.reserve(entry_inputs.size());
    for (const ExecutionPlan::Input& input : entry_inputs) {
      const auto& producer = states[static_cast<std::size_t>(input.producer)];
      inputs.push_back(
          producer.outputs.at(static_cast<std::size_t>(input.slot)));
    }
    // This node's reads are done (copied above): count them off each
    // producer and drop producer-held references when the last counted read
    // completes. The acq_rel countdown orders every consumer's copy before
    // the clearing thread's release, so this is safe under the parallel
    // scheduler too.
    for (const ExecutionPlan::Input& input : entry_inputs) {
      auto& producer = states[static_cast<std::size_t>(input.producer)];
      if (producer.reads_remaining.fetch_sub(1, std::memory_order_acq_rel) ==
              1 &&
          !memory.nodes[static_cast<std::size_t>(input.producer)]
               .fetch_protected) {
        release_outputs(producer);
      }
    }
    if (entry.kind == ExecutionPlan::OpKind::kFusedRegion) {
      // Note the precomputed check above keys on the region's ROOT node;
      // interior members recorded on an eager tape are honoured inside
      // ExecuteFusedRegion, which falls back to per-member dispatch.
      ExecuteFusedRegion(run, *entry.fused, inputs, state.outputs,
                         /*allow_in_place=*/minfo.in_place_capable,
                         precomputed);
    } else {
      ExecuteKernel(run, *entry.node, *entry.kernel, inputs, state.outputs,
                    /*allow_in_place=*/minfo.in_place_capable);
    }
    // Outputs nothing reads (control-edge-anchored side effects) die at
    // birth.
    if (minfo.output_reads == 0 && !minfo.fetch_protected &&
        !state.outputs.empty()) {
      release_outputs(state);
    }
  };

  if (!parallel) {
    // Sequential: simple worklist in dependency order.
    std::deque<int> ready;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (states[i].pending == 0) ready.push_back(static_cast<int>(i));
    }
    std::size_t executed = 0;
    while (!ready.empty()) {
      const int index = ready.front();
      ready.pop_front();
      run_node(index);
      ++executed;
      for (const ExecutionPlan::OutEdge& edge :
           plan.out_edges(nodes[static_cast<std::size_t>(index)])) {
        if (--states[static_cast<std::size_t>(edge.consumer)].pending == 0) {
          ready.push_back(edge.consumer);
        }
      }
    }
    if (executed != nodes.size()) {
      throw InternalError("graph contains a cycle (DAG executor)");
    }
  } else {
    JANUS_EXPECTS(run.pool != nullptr);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining = nodes.size();
    std::exception_ptr first_error;

    // Forward declaration via std::function for the recursive completion
    // chain: finishing a node may schedule its consumers.
    std::function<void(int)> dispatch = [&](int index) {
      try {
        run_node(index);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
      }
      std::vector<int> newly_ready;
      {
        const std::lock_guard<std::mutex> lock(mu);
        for (const ExecutionPlan::OutEdge& edge :
             plan.out_edges(nodes[static_cast<std::size_t>(index)])) {
          if (--states[static_cast<std::size_t>(edge.consumer)].pending ==
              0) {
            newly_ready.push_back(edge.consumer);
          }
        }
        --remaining;
        if (remaining == 0) cv.notify_all();
      }
      // Even after an error we keep draining dependencies so `remaining`
      // reaches zero; erroring nodes simply produce empty outputs that no
      // one will read (the first error is rethrown at the end).
      for (std::size_t i = 0; i + 1 < newly_ready.size(); ++i) {
        run.pool->Schedule([&dispatch, n = newly_ready[i]] { dispatch(n); });
      }
      if (!newly_ready.empty()) dispatch(newly_ready.back());
    };

    std::vector<int> roots;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (states[i].pending == 0) roots.push_back(static_cast<int>(i));
    }
    for (std::size_t i = 0; i + 1 < roots.size(); ++i) {
      run.pool->Schedule([&dispatch, n = roots[i]] { dispatch(n); });
    }
    if (!roots.empty()) dispatch(roots.back());

    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
    if (first_error) std::rethrow_exception(first_error);
  }

  std::vector<Tensor> results;
  results.reserve(plan.fetch_slots().size());
  for (const ExecutionPlan::Input& fetch : plan.fetch_slots()) {
    const auto& state = states[static_cast<std::size_t>(fetch.producer)];
    results.push_back(state.outputs.at(static_cast<std::size_t>(fetch.slot)));
  }
  return results;
}

}  // namespace internal
}  // namespace janus
