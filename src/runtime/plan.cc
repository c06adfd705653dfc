#include "runtime/plan.h"

#include <algorithm>
#include <atomic>
#include <queue>
#include <unordered_set>
#include <utility>

#include "common/error.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/fusion.h"
#include "runtime/run_context.h"

namespace janus {
namespace {

ExecutionPlan::OpKind ClassifyOp(const std::string& op) {
  using OpKind = ExecutionPlan::OpKind;
  if (op == "Const") return OpKind::kConst;
  if (op == "Placeholder") return OpKind::kPlaceholder;
  if (op == "Param") return OpKind::kParam;
  if (op == "Switch") return OpKind::kSwitch;
  if (op == "Merge") return OpKind::kMerge;
  if (op == "Enter") return OpKind::kEnter;
  if (op == "Exit") return OpKind::kExit;
  if (op == "NextIteration") return OpKind::kNextIteration;
  return OpKind::kKernel;
}

bool IsControlFlowKind(ExecutionPlan::OpKind kind) {
  using OpKind = ExecutionPlan::OpKind;
  return kind == OpKind::kSwitch || kind == OpKind::kMerge ||
         kind == OpKind::kEnter || kind == OpKind::kExit ||
         kind == OpKind::kNextIteration;
}

bool IsSourceKind(ExecutionPlan::OpKind kind) {
  using OpKind = ExecutionPlan::OpKind;
  return kind == OpKind::kConst || kind == OpKind::kPlaceholder ||
         kind == OpKind::kParam;
}

// The nodes the fetches transitively need (through data and control edges),
// in stable topological order. Side-effecting ops only run when anchored to
// a fetch (the update-anchor NoOp convention).
//
// Freshly generated graphs insert nodes topologically, but optimization
// passes append replacement nodes (folded constants, ZerosLike) at the END
// of the graph while rewiring earlier consumers onto them — and both
// fusion's region collection and the plan verifier rely on producers
// preceding consumers in the dense array. Kahn's algorithm with a min-heap
// on graph position keeps the order deterministic and as close to insertion
// order as the edges allow.
std::vector<const Node*> PrunedTopologicalOrder(
    const Graph& graph, std::span<const NodeOutput> fetches) {
  std::unordered_set<const Node*> needed;
  std::vector<const Node*> stack;
  for (const NodeOutput& fetch : fetches) stack.push_back(fetch.node);
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (!needed.insert(node).second) continue;
    for (const NodeOutput& input : node->inputs()) stack.push_back(input.node);
    for (const Node* control : node->control_inputs()) {
      stack.push_back(control);
    }
  }

  std::vector<const Node*> graph_order;
  graph_order.reserve(needed.size());
  std::unordered_map<const Node*, int> position;
  for (const auto& node : graph.nodes()) {
    if (needed.find(node.get()) == needed.end()) continue;
    position[node.get()] = static_cast<int>(graph_order.size());
    graph_order.push_back(node.get());
  }
  // Counted per edge: a node is ready once every in-edge is satisfied.
  std::vector<int> indegree(graph_order.size(), 0);
  std::vector<std::vector<int>> dependents(graph_order.size());
  for (std::size_t i = 0; i < graph_order.size(); ++i) {
    const auto depend_on = [&](const Node* producer) {
      dependents[static_cast<std::size_t>(position.at(producer))].push_back(
          static_cast<int>(i));
      ++indegree[i];
    };
    for (const NodeOutput& input : graph_order[i]->inputs()) {
      depend_on(input.node);
    }
    for (const Node* control : graph_order[i]->control_inputs()) {
      depend_on(control);
    }
  }
  std::priority_queue<int, std::vector<int>, std::greater<>> ready;
  for (std::size_t i = 0; i < graph_order.size(); ++i) {
    if (indegree[i] == 0) ready.push(static_cast<int>(i));
  }
  std::vector<const Node*> order;
  order.reserve(graph_order.size());
  while (!ready.empty()) {
    const auto i = static_cast<std::size_t>(ready.top());
    ready.pop();
    order.push_back(graph_order[i]);
    for (const int consumer : dependents[i]) {
      if (--indegree[static_cast<std::size_t>(consumer)] == 0) {
        ready.push(consumer);
      }
    }
  }
  // The DAG executor walks this order as its sequential schedule, so a
  // cycle is rejected here rather than run.
  if (order.size() != graph_order.size()) {
    throw InternalError("graph contains a cycle (DAG plan)");
  }
  return order;
}

// The installed post-build verification hook (nullptr = none). Relaxed is
// enough: installation happens once at engine attach / static init, and a
// build that misses a just-installed hook only skips one verification.
std::atomic<PlanVerifyHookFn> g_plan_verify_hook{nullptr};

}  // namespace

void SetPlanVerifyHook(PlanVerifyHookFn hook) {
  g_plan_verify_hook.store(hook, std::memory_order_relaxed);
}

PlanVerifyHookFn GetPlanVerifyHook() {
  return g_plan_verify_hook.load(std::memory_order_relaxed);
}

bool GraphNeedsDynamicExecution(const Graph& graph) {
  for (const auto& node : graph.nodes()) {
    if (IsControlFlowKind(ClassifyOp(node->op()))) return true;
  }
  return false;
}

std::shared_ptr<const ExecutionPlan> ExecutionPlan::Build(
    const Graph& graph, std::span<const NodeOutput> fetches,
    PlanOptions options) {
  obs::TraceScope span("plan_build", "runtime");
  span.set_arg("graph_nodes",
               static_cast<std::int64_t>(graph.nodes().size()));
  auto plan = std::shared_ptr<ExecutionPlan>(new ExecutionPlan());
  plan->fetches_.assign(fetches.begin(), fetches.end());
  plan->graph_version_ = graph.version();
  std::vector<const Node*> order;
  if (GraphNeedsDynamicExecution(graph)) {
    // The dynamic strategy covers the whole graph: deadness propagation,
    // not reachability pruning, decides what executes.
    plan->strategy_ = Strategy::kDynamic;
    order.reserve(graph.nodes().size());
    for (const auto& node : graph.nodes()) order.push_back(node.get());
  } else {
    plan->strategy_ = Strategy::kDag;
    order = PrunedTopologicalOrder(graph, fetches);
  }
  plan->Populate(order);
  // Fusion rewrites the schedule in place (interior members disappear) and
  // must run before the memory plan: liveness is computed over the fused
  // node array, so interior values are never materialized or tracked.
  if (options.enable_fusion && fusion::GloballyEnabled()) {
    obs::TraceScope fusion_span("fusion", "runtime");
    fusion_span.set_arg("regions",
                        static_cast<std::int64_t>(FusePlan(*plan)));
  }
  plan->memory_ = BuildMemoryPlan(*plan);

  // Attach the source-attributed profiler's per-node accumulator, copying
  // each node's provenance (graph-layer SourceSite -> obs ProfileSite) so
  // the obs layer stays link-independent of the graph. Fused regions keep
  // per-member sites; cost recorded against the region is split across
  // them at export. Registration is unconditional — plan build is a cold
  // path, and a later EnableProfiling() must see already-built plans.
  {
    const auto site_of = [](const Node* node) {
      obs::ProfileSite site;
      if (node != nullptr) {
        site.function = node->site().function;
        site.line = node->site().line;
        site.stmt = node->site().stmt;
      }
      return site;
    };
    const auto info_of = [&](const Node* node, OpKind kind,
                             const FusedRegionPlan* fused) {
      obs::ProfileNodeInfo info;
      if (node != nullptr) {
        info.name = node->name();
        info.op = node->op();
        info.site = site_of(node);
      }
      if (kind == OpKind::kFusedRegion && fused != nullptr) {
        info.op = "FusedRegion";
        for (const FusedRegionPlan::Member& member : fused->members) {
          obs::ProfileNodeInfo member_info;
          member_info.name = member.node->name();
          member_info.op = member.node->op();
          member_info.site = site_of(member.node);
          info.members.push_back(std::move(member_info));
        }
      }
      return info;
    };
    std::vector<obs::ProfileNodeInfo> infos;
    infos.reserve(plan->nodes_.size());
    for (const PlanNode& entry : plan->nodes_) {
      infos.push_back(info_of(entry.node, entry.kind, entry.fused));
    }
    plan->profile_ = std::make_shared<obs::PlanProfile>(std::move(infos));
    obs::ProfileRegistry::Global().Register(plan->profile_);
  }

  if (const PlanVerifyHookFn hook = GetPlanVerifyHook(); hook != nullptr) {
    hook(graph, *plan);
  }
  return plan;
}

void ExecutionPlan::Populate(const std::vector<const Node*>& order) {
  nodes_.reserve(order.size());
  for (const Node* node : order) {
    index_[node] = static_cast<int>(nodes_.size());
    PlanNode entry;
    entry.node = node;
    entry.kind = ClassifyOp(node->op());
    if (entry.kind == OpKind::kKernel) {
      entry.kernel = &KernelRegistry::Global().Lookup(node->op());
    } else if (entry.kind == OpKind::kConst) {
      entry.const_value = node->GetTensorAttr("value");
    } else if (entry.kind == OpKind::kEnter) {
      entry.enter_frame = static_cast<int>(enter_frames_.size());
      enter_frames_.push_back(
          {node->GetStringAttr("frame"),
           node->HasAttr("is_constant") && node->GetBoolAttr("is_constant")});
    }
    nodes_.push_back(std::move(entry));
  }
  for (PlanNode& entry : nodes_) {
    entry.inputs.begin = static_cast<int>(input_edges_.size());
    for (const NodeOutput& input : entry.node->inputs()) {
      input_edges_.push_back({index_.at(input.node), input.index});
    }
    entry.inputs.end = static_cast<int>(input_edges_.size());
    entry.controls.begin = static_cast<int>(control_edges_.size());
    for (const Node* control : entry.node->control_inputs()) {
      control_edges_.push_back(index_.at(control));
    }
    entry.controls.end = static_cast<int>(control_edges_.size());
  }
  fetch_slots_.reserve(fetches_.size());
  for (const NodeOutput& fetch : fetches_) {
    fetch_slots_.push_back({index_.at(fetch.node), fetch.index});
  }
  Link();
}

void ExecutionPlan::Link() {
  // Counting sort of the in-edges by producer: visiting consumers in dense
  // order (controls before data slots) leaves every producer's span sorted
  // by (consumer, input_slot).
  std::vector<int> cursor(nodes_.size() + 1, 0);
  for (const PlanNode& entry : nodes_) {
    for (const Input& input : inputs(entry)) {
      ++cursor[static_cast<std::size_t>(input.producer) + 1];
    }
    for (const int control : controls(entry)) {
      ++cursor[static_cast<std::size_t>(control) + 1];
    }
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    cursor[i + 1] += cursor[i];
    nodes_[i].out = {cursor[i], cursor[i + 1]};
  }
  out_edges_.assign(static_cast<std::size_t>(cursor.back()), OutEdge{});
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    PlanNode& entry = nodes_[i];
    const int consumer = static_cast<int>(i);
    for (const int control : controls(entry)) {
      out_edges_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(control)]++)] = {consumer, -1};
    }
    const std::span<const Input> data = inputs(entry);
    for (std::size_t slot = 0; slot < data.size(); ++slot) {
      out_edges_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(data[slot].producer)]++)] = {
          consumer, static_cast<int>(slot)};
    }
    entry.initial_pending =
        static_cast<int>(data.size() + controls(entry).size());
    entry.is_root_source =
        IsSourceKind(entry.kind) ||
        (entry.kind == OpKind::kKernel && entry.initial_pending == 0);
  }
}

ExecutionPlan::~ExecutionPlan() { delete schedule_.load(); }

void ExecutionPlan::PublishSchedule(DagSchedule schedule) const {
  auto* published = new DagSchedule(std::move(schedule));
  const DagSchedule* expected = nullptr;
  if (!schedule_.compare_exchange_strong(expected, published,
                                         std::memory_order_acq_rel)) {
    delete published;  // another calibration published first
    return;
  }
  profile_->SetSchedule(published->parallel, published->work_ns,
                        published->critical_path_ns, published->offloaded);
}

bool PreferParallel(std::int64_t work_ns, std::int64_t critical_path_ns,
                    std::int64_t offloadable_off_path_ns, int offloaded) {
  const std::int64_t overlap =
      std::min(work_ns - critical_path_ns, offloadable_off_path_ns);
  const std::int64_t saving = overlap - offloaded * kHandoffNs;
  return saving > 0 && saving >= work_ns / kMinParallelGain;
}

DagSchedule ComputeDagSchedule(const ExecutionPlan& plan,
                               std::span<const std::int64_t> cost_ns) {
  const std::vector<ExecutionPlan::PlanNode>& nodes = plan.nodes();
  JANUS_EXPECTS(cost_ns.size() == nodes.size());
  DagSchedule schedule;
  schedule.offload.assign(nodes.size(), 0);
  // Longest (costliest) path ending at each node, over data and control
  // in-edges; the dense array is topological, so one forward pass does.
  std::vector<std::int64_t> finish(nodes.size(), 0);
  std::vector<int> heaviest_producer(nodes.size(), -1);
  int path_end = -1;
  std::int64_t offloadable_off_path_ns = 0;  // minus the path, below
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::int64_t cost = cost_ns[i];
    std::int64_t start = 0;
    const auto depend_on = [&](int producer) {
      if (finish[static_cast<std::size_t>(producer)] > start) {
        start = finish[static_cast<std::size_t>(producer)];
        heaviest_producer[i] = producer;
      }
    };
    for (const ExecutionPlan::Input& input : plan.inputs(nodes[i])) {
      depend_on(input.producer);
    }
    for (const int control : plan.controls(nodes[i])) depend_on(control);
    finish[i] = start + cost;
    schedule.work_ns += cost;
    if (cost >= kHandoffNs) {
      schedule.offload[i] = 1;
      ++schedule.offloaded;
      offloadable_off_path_ns += cost;
    }
    if (path_end < 0 ||
        finish[i] > finish[static_cast<std::size_t>(path_end)]) {
      path_end = static_cast<int>(i);
    }
  }
  if (path_end >= 0) {
    schedule.critical_path_ns = finish[static_cast<std::size_t>(path_end)];
    for (int i = path_end; i >= 0;
         i = heaviest_producer[static_cast<std::size_t>(i)]) {
      if (schedule.offload[static_cast<std::size_t>(i)] != 0) {
        offloadable_off_path_ns -= cost_ns[static_cast<std::size_t>(i)];
      }
    }
  }
  schedule.parallel =
      PreferParallel(schedule.work_ns, schedule.critical_path_ns,
                     offloadable_off_path_ns, schedule.offloaded);
  return schedule;
}

int ExecutionPlan::IndexOf(const Node* node) const {
  const auto it = index_.find(node);
  return it == index_.end() ? -1 : it->second;
}

std::shared_ptr<const ExecutionPlan> GetOrBuildPlan(
    const Graph& graph, std::span<const NodeOutput> fetches,
    RunContext* run, PlanOptions options) {
  cache::PlanCache& plan_cache = graph.plan_cache();
  // The PlanCache is type-erased; fetch endpoints map 1:1 onto FetchIds.
  std::vector<cache::PlanCache::FetchId> fetch_ids;
  fetch_ids.reserve(fetches.size());
  for (const NodeOutput& fetch : fetches) {
    fetch_ids.push_back({fetch.node, fetch.index});
  }
  if (std::shared_ptr<const void> cached =
          plan_cache.Find(graph.version(), fetch_ids);
      cached != nullptr) {
    if (run != nullptr) {
      run->plan_cache_hits.fetch_add(1, std::memory_order_relaxed);
    }
    return std::static_pointer_cast<const ExecutionPlan>(cached);
  }
  auto plan = ExecutionPlan::Build(graph, fetches, options);
  if (run != nullptr) {
    run->plan_builds.fetch_add(1, std::memory_order_relaxed);
  }
  plan_cache.Insert(graph.version(), fetch_ids, plan);
  return plan;
}

}  // namespace janus
