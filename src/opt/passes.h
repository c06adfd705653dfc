// Graph optimisation passes — the "post-processor" of the Speculative Graph
// Generator (paper §3.1). These are the optimisations that symbolic-graph
// frameworks can apply and imperative executors cannot; speculative
// unrolling and type/shape specialisation widen their applicability
// (§4.2.1: unrolling enables CSE / constant folding across what used to be
// control-flow boundaries).
#ifndef JANUS_OPT_PASSES_H_
#define JANUS_OPT_PASSES_H_

#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace janus {

// True for ops with no state, no side effects, and no control-flow
// semantics; only these participate in folding/CSE/DCE-motion.
bool IsPureOp(const std::string& op);

// Replaces pure nodes whose inputs are all Const with Const nodes by
// executing their kernels at optimisation time. Returns #nodes folded.
int ConstantFolding(Graph& graph);

// Merges duplicate pure nodes and equal constants: same op, same inputs,
// same control inputs and exactly equal attrs (doubles bitwise, tensors of
// at most 256 elements by dtype, shape and bytes; larger tensors never
// merge). Returns #merged.
int CommonSubexpressionElimination(Graph& graph);

// Local algebraic rewrites: x+0 -> x, x*1 -> x, x-0 -> x, x/1 -> x,
// double-Neg elimination, Identity forwarding. Returns #rewrites.
int ArithmeticSimplification(Graph& graph);

// Removes nodes not reachable from the fetches (through data and control
// edges). Side-effecting nodes must be anchored to a fetch to survive.
// Returns #nodes removed.
int DeadCodeElimination(Graph& graph, std::span<const NodeOutput> fetches);

// Counts only what changed the graph: `folded`, `cse_merged` and
// `simplified` count replaced nodes that lost at least one data or control
// use, and `dce_removed` counts removed nodes of the graph each round
// started from. A replacement nobody reads (a fetched Identity) is none.
struct OptimizationStats {
  int folded = 0;
  int cse_merged = 0;
  int simplified = 0;
  int dce_removed = 0;
  int rounds = 0;
};

// Runs fold, simplify, CSE and DCE in rounds until a round changes nothing
// (that round included in `rounds`) or `max_rounds` have run. Fetches are
// never rewritten.
OptimizationStats OptimizeGraph(Graph& graph,
                                std::span<const NodeOutput> fetches,
                                int max_rounds = 8);

}  // namespace janus

#endif  // JANUS_OPT_PASSES_H_
