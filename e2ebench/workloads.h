// The benchmark's workloads. Each is one training session driven as a
// closed loop: Step() returns only after the step's engine call returned.
// A seed determines every input: model data, and for `churn`
// the generated program's weights and its request stream.
#ifndef JANUS_E2EBENCH_WORKLOADS_H_
#define JANUS_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "e2ebench/span_recorder.h"
#include "obs/metrics.h"

namespace janus::e2ebench {

class Workload {
 public:
  virtual ~Workload() = default;

  // Feeds the step's inputs and runs one training step (for `churn`, one
  // optimize call). Returns the step's loss; throws what the engine threw.
  // Records a "run" span around the call into the layer under the caller's
  // open span.
  virtual double Step(SpanRecorder* spans) = 0;

  virtual JanusEngine& engine() = 0;
  virtual minipy::Interpreter& interpreter() = 0;

  // The registry the workload's specialization cache reports into
  // (cache.hits, cache.misses, cache.evictions, ...).
  virtual const obs::MetricsRegistry& cache_registry() const = 0;

  // The number of steps after which the workload's inputs repeat their
  // pattern of work; timed blocks end on a multiple of it.
  virtual int period() const { return 1; }
};

// Workload names in the order the benchmark lists them.
const std::vector<std::string>& WorkloadNames();

// Builds the named workload's session under `options` (JANUS or the
// imperative reference). Same name + seed => same inputs, step by step.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const EngineOptions& options);

}  // namespace janus::e2ebench

#endif  // JANUS_E2EBENCH_WORKLOADS_H_
