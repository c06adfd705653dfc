// Compile-once execution plans.
//
// An ExecutionPlan is the immutable, per-graph compiled schedule that moves
// every piece of per-run scheduling work out of the dispatch hot path:
// strategy selection (DAG vs tagged-token dynamic), the fetch-reachable node
// set, dense node indices, initial dependency counts, out-edges,
// resolved KernelFn pointers, pre-classified op kinds (no string compares at
// run time), and fetch slots. A plan is built once per (graph, fetches) and
// reused across every subsequent Executor::Run / nested RunFunction call —
// the compile-once/run-many split the paper's amortization argument (§3.1,
// Fig. 2) relies on, mirroring how TensorFlow caches a compiled executor per
// graph.
//
// Plans are cached in the owning Graph's cache::PlanCache (so every Graph,
// including each GraphFunction body, carries its own plans) and additionally
// pinned by CompiledGraph, which pre-builds plans for the main graph and
// every library function at generation time.
//
// Both strategies share one representation: a dense PlanNode array whose
// edges live in three flat vectors per plan (inputs, control producers,
// out-edges), each node owning a [begin, end) span of each. The strategies
// differ only in which nodes the array holds and in what order.
#ifndef JANUS_RUNTIME_PLAN_H_
#define JANUS_RUNTIME_PLAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "runtime/kernel.h"
#include "runtime/memory_plan.h"

namespace janus {

class RunContext;
struct FusedRegionPlan;

namespace obs {
class PlanProfile;
}  // namespace obs

namespace verify {
class PlanCorruptor;
}  // namespace verify

// Cost-aware schedule of a DAG plan (the +PARL path of Fig. 7), derived
// once per plan from per-node costs timed on one warm sequential run and
// then published through ExecutionPlan::schedule().
struct DagSchedule {
  bool parallel = false;              // run on the thread-pool path
  std::int64_t work_ns = 0;           // W: summed node cost
  std::int64_t critical_path_ns = 0;  // C: costliest path (data + control)
  int offloaded = 0;                  // nodes with the offload bit
  std::vector<std::uint8_t> offload;  // per dense node: cost >= kHandoffNs
};

// One pool handoff: enqueueing a task, waking a worker and joining its
// result back. Sized from BM_EnginePlanCaching on a 4-core host: with every
// node of its 12-node plan forced onto the pool the run took ~27us against
// ~4us sequential, ~23us for a handful of fan-out handoffs plus the
// caller's final wake. A node cheaper than this runs inline on the thread
// that readied it, and the schedule rule charges each offloaded node one.
inline constexpr std::int64_t kHandoffNs = 5'000;

// A parallel run must be predicted to save at least 1/kMinParallelGain of
// the plan's work; smaller predicted gains vanish in scheduling noise.
inline constexpr std::int64_t kMinParallelGain = 8;

// Per-build knobs. `enable_fusion` is ANDed with the process-wide
// fusion::GloballyEnabled() switch (JANUS_FUSION).
struct PlanOptions {
  bool enable_fusion = true;
};

class ExecutionPlan {
 public:
  enum class Strategy : std::uint8_t { kDag, kDynamic };

  // Node classification resolved at plan-build time so the run loop never
  // compares op-name strings or consults the kernel registry.
  enum class OpKind : std::uint8_t {
    kConst,
    kPlaceholder,
    kParam,
    kSwitch,
    kMerge,
    kEnter,
    kExit,
    kNextIteration,
    kKernel,
    // A fused elementwise region (runtime/fusion.h): one plan node standing
    // in for a chain/tree of kernels, executed with a single dispatch.
    kFusedRegion,
  };

  // A value coordinate in dense plan indices: output `slot` of the node at
  // dense index `producer`.
  struct Input {
    int producer = 0;
    int slot = 0;
  };

  // A delivery target: input slot `input_slot` of the node at dense index
  // `consumer`, or -1 for a control edge.
  struct OutEdge {
    int consumer = 0;
    int input_slot = -1;
  };

  // A [begin, end) range into one of the plan's flat edge vectors.
  struct Span {
    int begin = 0;
    int end = 0;
  };

  // Loop-frame attributes of an Enter node, resolved at build time.
  struct EnterFrame {
    std::string name;
    bool is_constant = false;
  };

  // One scheduled node. Both strategies run the same node array; the edge
  // spans index the plan's flat edge vectors (see inputs() and friends).
  struct PlanNode {
    const Node* node = nullptr;
    OpKind kind = OpKind::kKernel;
    const KernelFn* kernel = nullptr;        // resolved iff kind == kKernel
    const FusedRegionPlan* fused = nullptr;  // valid iff kind == kFusedRegion
    Tensor const_value;                      // valid iff kind == kConst
    // In-edges (data inputs plus control producers): the DAG executor's
    // dependency countdown starts here.
    int initial_pending = 0;
    // True for the nodes the dynamic executor evaluates once per run before
    // token flow starts: sources, plus kernels with no in-edges.
    bool is_root_source = false;
    int enter_frame = -1;  // index into enter_frames() iff kind == kEnter
    Span inputs;           // data inputs, in slot order
    Span controls;         // control producers
    // Out-edges sorted by (consumer, input_slot): one per in-edge of each
    // consumer, so a consumer fed twice by this node appears twice.
    Span out;
  };

  // Builds a plan from scratch, bypassing the cache (exposed for the
  // plan-build microbenchmark and for tests that compare fresh vs cached
  // planning). Throws InvalidArgument if a non-control-flow op has no
  // registered kernel.
  static std::shared_ptr<const ExecutionPlan> Build(
      const Graph& graph, std::span<const NodeOutput> fetches,
      PlanOptions options = {});

  Strategy strategy() const { return strategy_; }
  std::span<const NodeOutput> fetches() const { return fetches_; }
  std::uint64_t graph_version() const { return graph_version_; }

  // The dense node array: the fetch-pruned topological order for DAG plans,
  // the whole graph in graph order for dynamic plans.
  const std::vector<PlanNode>& nodes() const { return nodes_; }
  std::span<const Input> inputs(const PlanNode& n) const {
    return Slice(input_edges_, n.inputs);
  }
  std::span<const int> controls(const PlanNode& n) const {
    return Slice(control_edges_, n.controls);
  }
  std::span<const OutEdge> out_edges(const PlanNode& n) const {
    return Slice(out_edges_, n.out);
  }
  const EnterFrame& enter_frame(const PlanNode& n) const {
    return enter_frames_[static_cast<std::size_t>(n.enter_frame)];
  }
  // One slot per fetch, in fetch order.
  const std::vector<Input>& fetch_slots() const { return fetch_slots_; }

  // Dense index of a node, or -1 if the node is not part of the plan. A
  // fused region's members resolve to the region's index.
  int IndexOf(const Node* node) const;

  // The flat storage behind the spans and the node -> dense-index map,
  // exposed for the plan verifier (src/verify), which range-checks every
  // span before reading through it; executors use the accessors above.
  const std::vector<Input>& input_edges() const { return input_edges_; }
  const std::vector<int>& control_edges() const { return control_edges_; }
  const std::vector<OutEdge>& all_out_edges() const { return out_edges_; }
  const std::vector<EnterFrame>& enter_frames() const { return enter_frames_; }
  const std::unordered_map<const Node*, int>& index_map() const {
    return index_;
  }

  // Liveness + in-place analysis, computed once at plan-build time.
  const MemoryPlan& memory() const { return memory_; }

  // Fused regions owned by this plan (referenced by kFusedRegion nodes).
  const std::vector<std::shared_ptr<const FusedRegionPlan>>& fused_regions()
      const {
    return fused_regions_;
  }

  // The DAG schedule, or nullptr until a warm run has calibrated it.
  const DagSchedule* schedule() const {
    return schedule_.load(std::memory_order_acquire);
  }
  // Counts one uncalibrated +PARL run; true from the second on, i.e. when
  // the run should be timed to calibrate (the first pays one-time costs:
  // fused-kernel compiles, buffer-pool misses).
  bool ClaimCalibration() const {
    return uncalibrated_runs_.fetch_add(1, std::memory_order_relaxed) >= 1;
  }
  // Publishes the schedule (and its summary into profile()) unless one is
  // already published; concurrent calibrations keep the first.
  void PublishSchedule(DagSchedule schedule) const;

  ~ExecutionPlan();

  // Per-node cost accumulator for the source-attributed profiler
  // (obs/profile.h), sized to the plan's dense node array and registered
  // with the global ProfileRegistry at build. Executors record into it
  // when profiling is enabled; never null after Build.
  obs::PlanProfile* profile() const { return profile_.get(); }

 private:
  // The seeded-corruption harness (src/verify/corruption.h) mutates plan
  // internals to prove the verifier catches each class of damage.
  friend class verify::PlanCorruptor;
  // The fusion rewrite (runtime/fusion.h) compacts the node array and
  // relinks it.
  friend int FusePlan(ExecutionPlan& plan);

  ExecutionPlan() = default;

  template <typename T>
  static std::span<const T> Slice(const std::vector<T>& edges, Span span) {
    return {edges.data() + span.begin,
            static_cast<std::size_t>(span.end - span.begin)};
  }

  // Fills nodes_, their input and control spans, index_ and fetch_slots_
  // from `order` (the nodes to schedule, in dense order), then links.
  void Populate(const std::vector<const Node*>& order);
  // Derives every node's out-edge span, initial_pending and
  // is_root_source from the input and control spans.
  void Link();

  Strategy strategy_ = Strategy::kDag;
  std::vector<NodeOutput> fetches_;
  std::uint64_t graph_version_ = 0;

  std::vector<PlanNode> nodes_;
  std::vector<Input> input_edges_;
  std::vector<int> control_edges_;
  std::vector<OutEdge> out_edges_;
  std::vector<EnterFrame> enter_frames_;
  std::vector<Input> fetch_slots_;
  std::unordered_map<const Node*, int> index_;

  std::vector<std::shared_ptr<const FusedRegionPlan>> fused_regions_;

  MemoryPlan memory_;

  std::shared_ptr<obs::PlanProfile> profile_;

  // Calibration state: the plan is shared and const, so the schedule is
  // published once through an atomic and owned (deleted) by the plan.
  mutable std::atomic<int> uncalibrated_runs_{0};
  mutable std::atomic<const DagSchedule*> schedule_{nullptr};
};

// The schedule rule. The pool can overlap at most the work off the critical
// path (W - C), and of that only the offloadable work not on the critical
// path (`offloadable_off_path_ns`); every offloaded node pays a handoff.
// Parallel iff that saving clears W / kMinParallelGain.
bool PreferParallel(std::int64_t work_ns, std::int64_t critical_path_ns,
                    std::int64_t offloadable_off_path_ns, int offloaded);

// Derives a DAG plan's schedule from measured per-node costs, indexed by
// dense node.
DagSchedule ComputeDagSchedule(const ExecutionPlan& plan,
                               std::span<const std::int64_t> cost_ns);

// True if the graph uses any dataflow control-flow primitive and therefore
// needs the dynamic (tagged-token) strategy.
bool GraphNeedsDynamicExecution(const Graph& graph);

// Post-build verification hook. When set, ExecutionPlan::Build invokes it
// on every finished plan (after fusion and memory planning); the hook may
// throw to reject the plan. Installed process-wide by
// verify::InstallPlanVerifier() — a function pointer (not std::function)
// so the runtime layer carries no dependency on src/verify and the
// disabled path is one relaxed atomic load.
using PlanVerifyHookFn = void (*)(const Graph& graph,
                                  const ExecutionPlan& plan);
void SetPlanVerifyHook(PlanVerifyHookFn hook);
PlanVerifyHookFn GetPlanVerifyHook();

// Returns the plan for (graph, fetches) from the graph's plan cache,
// building and inserting it on first use. When `run` is non-null, a build
// bumps run->plan_builds and a hit bumps run->plan_cache_hits. Thread-safe.
std::shared_ptr<const ExecutionPlan> GetOrBuildPlan(
    const Graph& graph, std::span<const NodeOutput> fetches,
    RunContext* run = nullptr, PlanOptions options = {});

}  // namespace janus

#endif  // JANUS_RUNTIME_PLAN_H_
