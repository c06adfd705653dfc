// Static analysis of compiled execution plans.
//
// JANUS's correctness rests on invariants that, before this pass, were only
// checked by crashing at run time: an ExecutionPlan must be a valid
// topological schedule over the fetch-reachable subgraph, every
// adjacency/fetch index must survive the fusion rewrite bijectively, the
// MemoryPlan must never let the liveness countdown release a buffer with a
// remaining consumer or allow in-place execution of a non-elementwise op,
// and fused regions must keep every interior consumer in-region. VerifyPlan
// checks all of it structurally — without executing anything — against the
// source graph, and attributes every violation to a named invariant and the
// offending node.
//
// Wire-up (three ways):
//  * InstallPlanVerifier() registers a hook that runs after every
//    ExecutionPlan::Build and throws InternalError on violation. The hook is
//    installed by JanusEngine::Attach() and gated by JANUS_VERIFY
//    (default: on in debug builds, off in release builds).
//  * tools/janus_verify sweeps the model zoo across despecialization levels
//    and fusion settings and verifies every plan the engine built.
//  * tests/verify_test.cc corrupts plans through verify::PlanCorruptor and
//    asserts each seeded corruption is diagnosed.
//
// The invariant catalog (DESIGN.md §12):
//   schedule.*  — dense order, pending counts, kinds, kernels, constants
//   adjacency.* — edge-span ranges, in-edge/out-edge mirrors, index ranges
//   index.*     — node -> dense-index map bijectivity and coverage
//   fetch.*     — fetch slot ranges and fetch -> slot remaps
//   liveness.*  — output_reads soundness, fetch protection
//   inplace.*   — in-place allowlist equality
//   fusion.*    — fused-region well-formedness
//   memory.*    — memory plan shape
#ifndef JANUS_VERIFY_PLAN_VERIFIER_H_
#define JANUS_VERIFY_PLAN_VERIFIER_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "runtime/plan.h"

namespace janus {
namespace verify {

// One invariant violation, attributed to the node it implicates ("<plan>"
// when the damage is plan-global).
struct Issue {
  std::string invariant;  // e.g. "schedule.topological_order"
  std::string node;       // graph node name, or "<plan>"
  std::string message;    // human-readable detail
};

struct Report {
  std::vector<Issue> issues;
  // Elementary assertions evaluated (coverage indicator for reports).
  int checks = 0;

  bool ok() const { return issues.empty(); }
  // "plan OK (N checks)" or one "  <invariant> at <node>: <message>" line
  // per issue.
  std::string ToString() const;
};

// Verifies `plan` against the graph it was built from. Never throws; all
// findings land in the report.
Report VerifyPlan(const Graph& graph, const ExecutionPlan& plan);

// Whether the auto-run hook should verify. JANUS_VERIFY=1/0 wins; unset
// defaults to on in debug (!NDEBUG) builds and off in release builds.
bool VerifyEnabled();

// Overrides VerifyEnabled(): 1 = force on, 0 = force off, -1 = back to the
// environment/build-type default. For tests and the CLI.
void SetVerifyEnabledForTesting(int forced);

// Installs the post-build hook (runtime/plan.h): every subsequently built
// plan is verified when VerifyEnabled(), and a violating plan aborts the
// build with InternalError carrying the report. Idempotent.
void InstallPlanVerifier();

}  // namespace verify
}  // namespace janus

#endif  // JANUS_VERIFY_PLAN_VERIFIER_H_
