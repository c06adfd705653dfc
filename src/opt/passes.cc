#include "opt/passes.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_set>
#include <variant>

#include "common/error.h"
#include "runtime/kernel.h"
#include "runtime/run_context.h"

namespace janus {
namespace {

std::size_t Idx(int i) { return static_cast<std::size_t>(i); }

// The outputs one pass replaces, indexed by the replaced node's id. Only
// nodes that existed when the pass started are replaced; nodes it adds
// (folded constants, ZerosLike) have ids past the table and resolve to
// themselves.
class Replacements {
 public:
  explicit Replacements(const Graph& graph)
      : first_slot_(Idx(graph.next_id()), -1) {}

  void Set(const Node* node, int index, NodeOutput with) {
    int& first = first_slot_[Idx(node->id())];
    if (first < 0) {
      first = static_cast<int>(slots_.size());
      slots_.resize(slots_.size() + Idx(node->num_outputs()));
    }
    slots_[Idx(first + index)] = with;
  }

  // The replacement recorded for `v` itself (one hop), or nullptr.
  const NodeOutput* Find(NodeOutput v) const {
    const std::size_t id = Idx(v.node->id());
    if (id >= first_slot_.size() || first_slot_[id] < 0) return nullptr;
    const NodeOutput& with = slots_[Idx(first_slot_[id] + v.index)];
    return with.node != nullptr ? &with : nullptr;
  }

  // Rewires every use of a replaced output (including transitively chained
  // replacements) to its final producer. Returns how many replaced nodes
  // lost at least one data or control use: a replacement nobody reads (a
  // fetched Identity, a duplicate with no consumers) changes nothing.
  int Apply(Graph& graph) const {
    if (slots_.empty()) return 0;
    std::vector<char> moved(first_slot_.size(), 0);
    for (const auto& node : graph.nodes()) {
      for (int i = 0; i < node->num_inputs(); ++i) {
        const NodeOutput v = node->input(i);
        if (Find(v) == nullptr) continue;
        node->set_input(i, Resolve(v));
        moved[Idx(v.node->id())] = 1;
      }
      // Control inputs: redirect to the replacement's producer node.
      for (Node* control : node->control_inputs()) {
        if (Find({control, 0}) == nullptr) continue;
        node->ReplaceControlInput(control, Resolve({control, 0}).node);
        moved[Idx(control->id())] = 1;
      }
    }
    return static_cast<int>(std::count(moved.begin(), moved.end(), 1));
  }

 private:
  NodeOutput Resolve(NodeOutput v) const {
    // Chase chains (a -> b -> c) with a small bound to catch cycles.
    for (int hops = 0; hops < 64; ++hops) {
      const NodeOutput* with = Find(v);
      if (with == nullptr) return v;
      v = *with;
    }
    throw InternalError("replacement cycle in optimisation pass");
  }

  std::vector<int> first_slot_;    // per node id: its output 0's slot, or -1
  std::vector<NodeOutput> slots_;  // per replaced output; null if kept
};

// What one rewriting pass did.
struct PassCounts {
  int replaced = 0;  // nodes it replaced: the public pass functions' count
  int rewired = 0;   // of those, nodes that lost at least one use
};

bool IsConst(const Node* node) { return node->op() == "Const"; }

bool IsScalarConst(const Node* node, float value) {
  if (!IsConst(node)) return false;
  const Tensor& t = node->GetTensorAttr("value");
  if (t.num_elements() != 1) return false;
  return t.ElementAsDouble(0) == static_cast<double>(value);
}

PassCounts Fold(Graph& graph) {
  Replacements repl(graph);
  PassCounts counts;
  // Snapshot: graph.Constant() below appends nodes while we iterate.
  std::vector<Node*> snapshot;
  snapshot.reserve(graph.num_nodes());
  for (const auto& n : graph.nodes()) snapshot.push_back(n.get());
  // Inputs may themselves have been folded this round; chase them.
  const auto effective = [&repl](NodeOutput input) {
    const NodeOutput* with = repl.Find(input);
    return with != nullptr ? with->node : input.node;
  };
  for (Node* node : snapshot) {
    if (!IsPureOp(node->op())) continue;
    if (node->num_inputs() == 0) continue;
    if (!node->control_inputs().empty()) continue;
    const bool all_const =
        std::all_of(node->inputs().begin(), node->inputs().end(),
                    [&](NodeOutput input) { return IsConst(effective(input)); });
    if (!all_const) continue;

    std::vector<Tensor> inputs;
    inputs.reserve(node->inputs().size());
    for (const NodeOutput& input : node->inputs()) {
      inputs.push_back(effective(input)->GetTensorAttr("value"));
    }
    RunContext run;  // pure kernels need no services
    KernelContext ctx;
    ctx.node = node;
    ctx.inputs = inputs;
    ctx.outputs.resize(static_cast<std::size_t>(node->num_outputs()));
    ctx.run = &run;
    try {
      KernelRegistry::Global().Lookup(node->op())(ctx);
    } catch (const Error&) {
      continue;  // e.g. data-dependent failure; leave for runtime
    }
    // The folded constant inherits the replaced node's source site.
    SourceSiteScope site_scope(node->site());
    for (int i = 0; i < node->num_outputs(); ++i) {
      repl.Set(node, i,
               graph.Constant(ctx.outputs[static_cast<std::size_t>(i)]));
    }
    ++counts.replaced;
  }
  counts.rewired = repl.Apply(graph);
  return counts;
}

PassCounts Simplify(Graph& graph) {
  Replacements repl(graph);
  PassCounts counts;
  const auto replace = [&](Node* node, NodeOutput with) {
    repl.Set(node, 0, with);
    ++counts.replaced;
  };
  // Snapshot: the ZerosLike rewrite appends nodes while we iterate.
  std::vector<Node*> snapshot;
  snapshot.reserve(graph.num_nodes());
  for (const auto& n : graph.nodes()) snapshot.push_back(n.get());
  for (Node* node : snapshot) {
    if (!node->control_inputs().empty()) continue;
    const std::string& op = node->op();
    const auto in = [&](int i) { return node->input(i); };
    if (op == "Identity") {
      replace(node, in(0));
    } else if (op == "Add") {
      if (IsScalarConst(in(1).node, 0.0f)) {
        replace(node, in(0));
      } else if (IsScalarConst(in(0).node, 0.0f)) {
        replace(node, in(1));
      }
    } else if (op == "Sub") {
      if (IsScalarConst(in(1).node, 0.0f)) replace(node, in(0));
    } else if (op == "Mul") {
      if (IsScalarConst(in(1).node, 1.0f)) {
        replace(node, in(0));
      } else if (IsScalarConst(in(0).node, 1.0f)) {
        replace(node, in(1));
      } else if (IsScalarConst(in(1).node, 0.0f) ||
                 IsScalarConst(in(0).node, 0.0f)) {
        const NodeOutput operand =
            IsScalarConst(in(1).node, 0.0f) ? in(0) : in(1);
        // The replacement ZerosLike inherits the Mul's source site.
        SourceSiteScope site_scope(node->site());
        replace(node, {graph.AddNode("ZerosLike", {operand}), 0});
      }
    } else if (op == "Div") {
      if (IsScalarConst(in(1).node, 1.0f)) replace(node, in(0));
    } else if (op == "Neg") {
      if (in(0).node->op() == "Neg") {
        replace(node, in(0).node->input(0));
      }
    } else if (op == "Pow") {
      if (IsScalarConst(in(1).node, 1.0f)) replace(node, in(0));
    }
  }
  counts.rewired = repl.Apply(graph);
  return counts;
}

// ---- Exact structural CSE ----
//
// A candidate's key is its op, its inputs resolved through this pass's
// merges, its control inputs and its attributes. Keys are hashed into an
// open-addressed table and two nodes merge only if their keys compare
// equal: doubles bitwise, tensors by dtype, shape and bytes. Tensors larger
// than kMaxCseTensorElements never merge, so big weight blobs are never
// compared.
constexpr std::int64_t kMaxCseTensorElements = 256;

std::size_t Mix(std::size_t h, std::size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

std::size_t HashTensor(const Tensor& t) {
  std::size_t h = static_cast<std::size_t>(t.dtype());
  for (const std::int64_t dim : t.shape().dims()) {
    h = Mix(h, static_cast<std::size_t>(dim));
  }
  const auto mix_all = [&h](auto values) {
    for (auto v : values) h = Mix(h, std::hash<decltype(v)>()(v));
  };
  switch (t.dtype()) {
    case DType::kFloat32:
      mix_all(t.data<float>());
      break;
    case DType::kInt64:
      mix_all(t.data<std::int64_t>());
      break;
    case DType::kBool:
      mix_all(t.data<std::uint8_t>());
      break;
  }
  return h;
}

bool AttrEqual(const AttrValue& a, const AttrValue& b) {
  if (a.index() != b.index()) return false;
  return std::visit(
      [&b](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        const T& y = std::get<T>(b);
        if constexpr (std::is_same_v<T, double>) {
          return std::bit_cast<std::uint64_t>(x) ==
                 std::bit_cast<std::uint64_t>(y);
        } else if constexpr (std::is_same_v<T, Tensor>) {
          return x.ElementsEqual(y);
        } else {
          return x == y;
        }
      },
      a);
}

bool HasLargeTensor(const AttrMap& attrs) {
  return std::any_of(attrs.begin(), attrs.end(), [](const auto& entry) {
    const Tensor* t = std::get_if<Tensor>(&entry.second);
    return t != nullptr && t->num_elements() > kMaxCseTensorElements;
  });
}

bool AttrsEqual(const AttrMap& a, const AttrMap& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first && AttrEqual(x.second, y.second);
                    });
}

PassCounts Cse(Graph& graph) {
  Replacements repl(graph);
  PassCounts counts;
  struct Entry {
    Node* node;
    std::size_t hash;
    std::size_t inputs_begin;  // into `resolved`
  };
  std::vector<Entry> entries;
  // Every entry's inputs as resolved when it was keyed, in entry order;
  // the candidate being keyed occupies the tail.
  std::vector<NodeOutput> resolved;
  std::size_t capacity = 16;
  while (capacity < 2 * graph.num_nodes()) capacity <<= 1;
  const std::size_t mask = capacity - 1;
  std::vector<int> table(capacity, -1);  // entry indices

  for (const auto& owned : graph.nodes()) {
    Node* node = owned.get();
    if (!IsPureOp(node->op()) && !IsConst(node)) continue;
    if (HasLargeTensor(node->attrs())) continue;
    const std::size_t begin = resolved.size();
    std::size_t h = std::hash<std::string>()(node->op());
    for (const NodeOutput& input : node->inputs()) {
      const NodeOutput* with = repl.Find(input);
      const NodeOutput v = with != nullptr ? *with : input;
      resolved.push_back(v);
      h = Mix(Mix(h, Idx(v.node->id())), Idx(v.index));
    }
    for (const Node* control : node->control_inputs()) {
      h = Mix(h, Idx(control->id()));
    }
    // Only tensor attrs (Const values) are hashed: nodes sharing op and
    // inputs rarely differ in other attrs, and the comparison is exact.
    for (const auto& entry : node->attrs()) {
      if (const Tensor* t = std::get_if<Tensor>(&entry.second)) {
        h = Mix(h, HashTensor(*t));
      }
    }
    const auto same_key = [&](const Entry& e) {
      const Node& other = *e.node;
      return e.hash == h && other.op() == node->op() &&
             other.num_inputs() == node->num_inputs() &&
             std::equal(resolved.begin() + static_cast<std::ptrdiff_t>(begin),
                        resolved.end(),
                        resolved.begin() +
                            static_cast<std::ptrdiff_t>(e.inputs_begin)) &&
             other.control_inputs() == node->control_inputs() &&
             AttrsEqual(other.attrs(), node->attrs());
    };
    std::size_t slot = h & mask;
    while (table[slot] >= 0 && !same_key(entries[Idx(table[slot])])) {
      slot = (slot + 1) & mask;
    }
    if (table[slot] < 0) {
      table[slot] = static_cast<int>(entries.size());
      entries.push_back({node, h, begin});
      continue;
    }
    Node* canonical = entries[Idx(table[slot])].node;
    resolved.resize(begin);
    for (int i = 0; i < node->num_outputs(); ++i) {
      repl.Set(node, i, {canonical, i});
    }
    ++counts.replaced;
  }
  counts.rewired = repl.Apply(graph);
  return counts;
}

}  // namespace

bool IsPureOp(const std::string& op) {
  static const std::unordered_set<std::string>* const impure = [] {
    return new std::unordered_set<std::string>{
        "Placeholder",   "Param",          "Const",
        "ReadVariable",  "AssignVariable", "ApplySGD",
        "Assert",        "PyGetAttr",      "PySetAttr",
        "PyGetSubscr",   "PySetSubscr",    "PyPrint",
        "RandomNormal",  "RandomUniform",  "NoOp",
        "Invoke",        "While",          "WhileGrad",
        "Switch",        "Merge",          "Enter",
        "Exit",          "NextIteration"};
  }();
  return impure->find(op) == impure->end();
}

int ConstantFolding(Graph& graph) { return Fold(graph).replaced; }

int CommonSubexpressionElimination(Graph& graph) {
  return Cse(graph).replaced;
}

int ArithmeticSimplification(Graph& graph) {
  return Simplify(graph).replaced;
}

int DeadCodeElimination(Graph& graph, std::span<const NodeOutput> fetches) {
  std::vector<char> live(Idx(graph.next_id()), 0);
  std::vector<Node*> keep;
  std::vector<Node*> stack;
  for (const NodeOutput& fetch : fetches) stack.push_back(fetch.node);
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    char& mark = live.at(Idx(node->id()));
    if (mark != 0) continue;
    mark = 1;
    keep.push_back(node);
    for (const NodeOutput& input : node->inputs()) stack.push_back(input.node);
    for (Node* control : node->control_inputs()) stack.push_back(control);
  }
  const int removed = static_cast<int>(graph.num_nodes() - keep.size());
  if (removed != 0) graph.Prune(keep);
  return removed;
}

OptimizationStats OptimizeGraph(Graph& graph,
                                std::span<const NodeOutput> fetches,
                                int max_rounds) {
  OptimizationStats stats;
  for (int round = 0; round < max_rounds; ++round) {
    const int first_new_id = graph.next_id();
    const std::size_t nodes_before = graph.num_nodes();
    const int folded = Fold(graph).rewired;
    const int simplified = Simplify(graph).rewired;
    const int merged = Cse(graph).rewired;
    int removed = DeadCodeElimination(graph, fetches);
    if (removed != 0) {
      // A node this round added and DCE dropped again (a constant folded
      // from a node nobody reads) is no change: count the input's nodes.
      const auto survivors = std::count_if(
          graph.nodes().begin(), graph.nodes().end(),
          [first_new_id](const auto& n) { return n->id() < first_new_id; });
      removed = static_cast<int>(nodes_before) - static_cast<int>(survivors);
    }
    stats.folded += folded;
    stats.simplified += simplified;
    stats.cse_merged += merged;
    stats.dce_removed += removed;
    ++stats.rounds;
    if (folded + simplified + merged + removed == 0) break;
  }
  return stats;
}

}  // namespace janus
