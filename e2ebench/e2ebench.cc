// End-to-end training benchmark.
//
//   e2ebench --workload <cnn|rnn|churn> --seed <n> --seconds <s>
//            --trace <0|1> [--out-dir <dir>] [--git-sha <sha>]
//
// One process runs one workload as a closed training loop under the default
// JANUS configuration (bench::JanusConfig()):
//   1. set-up: build the session and step until the first step that ran a
//      compiled graph;
//   2. warm-up to kPrefixSteps steps (the exact-count prefix), then on to
//      the start of the workload's next input period;
//   3. the timed phase: blocks of at least 0.25 s until they add up to
//      `--seconds`. After each block the imperative twin (the same workload
//      under ImperativePreset() on the same seed, in a child process
//      started as `e2ebench --twin <workload> --seed <n>`) replays the
//      steps run so far; each step's loss must
//      match within the ZooSweep.JanusMatchesImperative tolerance. On an
//      untraced run a second child (`e2ebench --setup <workload>`) then
//      sets up a fresh session; setup_s is the median of all set-ups;
//   4. (--trace 1) generator / opt / plan-build probes on the resident units.
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced blocks and reports the per-layer split of the traced blocks,
// from spans around the benchmark's own calls into the layers plus the
// counters and histograms the layers already publish. The last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// code is nonzero when any step failed.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "cache/fused_kernel_cache.h"
#include "core/generator.h"
#include "e2ebench/span_recorder.h"
#include "e2ebench/workloads.h"
#include "obs/profile.h"
#include "opt/passes.h"
#include "runtime/plan.h"
#include "tensor/buffer_pool.h"

extern char** environ;

namespace janus::e2ebench {
namespace {

// setup_s is the median of the measured session's set-up and of the
// set-ups a helper process runs, one after each untraced run's timed block,
// so host-interference episodes shorter than half the run do not move it.
// The helper's set-ups all use one fixed seed, kSetupSeed: every run sets
// up the same inputs there, whatever its --seed. (On `churn` the seed
// picks the program and the first calls, and set-up time ranged 3x across
// seeds; a median over mixed seeds moved with few of them.)
constexpr std::uint64_t kSetupSeed = 1000;
constexpr int kMaxSetupSteps = 200;
// Steps of the measured session before the timed phase (set-up steps plus
// warm-up). The exact counts cover this deterministic prefix.
constexpr int kPrefixSteps = 200;
// The timed phase runs in blocks of this length. Between blocks the
// imperative twin catches up, and the next block starts no sooner than
// kBlockSpacingNs after the previous one started, so one run's blocks
// spread over 15-50 s. Each end-to-end timing is taken from the quietest
// tenth of blocks (see QuietDecile): host-interference episodes on the
// development host slowed steps up to 2.5x for 2-30 s, and moved even
// block medians when they covered most of a run. A traced run alternates
// untraced and traced blocks, so drift hits both sides of
// obs.trace_overhead_ratio alike.
constexpr std::int64_t kBlockNs = 250'000'000;
constexpr std::int64_t kBlockSpacingNs = 750'000'000;
// The tolerance ZooSweep.JanusMatchesImperative uses.
constexpr double kLossTolerance = 5e-2;
// Variables that turn on in-program instrumentation, which would change the
// measured program.
constexpr const char* kRefusedEnv[] = {"JANUS_TRACE", "JANUS_PROFILE",
                                       "JANUS_LEDGER", "JANUS_HTTP_PORT"};
// Ops whose node time contains a nested plan's run; the nested nodes are
// profiled in their own plans, so these are left out of node time.
const std::set<std::string> kNestingOps = {"Invoke", "While", "WhileGrad"};
// Op groups with their own tensor.kernel_ms_per_step.<group> metric, as
// {group, op-name prefix}; the rest of the node time is
// tensor.kernel_ms_per_step.other.
const std::vector<std::pair<std::string, std::string>> kKernelGroups = {
    {"conv2d", "Conv2D"}, {"matmul", "MatMul"}, {"fused_region", "FusedRegion"}};

std::int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile of sorted values.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\u%04x", c);
      out += hex;
    } else {
      out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// What the layers publish, differenced across a phase
// ---------------------------------------------------------------------------

#define E2E_SNAPSHOT_FIELDS(X)                                              \
  X(imperative_ns) X(graph_exec_ns) X(generation_ns) X(generation_count)    \
  X(validation_ns) X(validation_count) X(generations) X(fallbacks)          \
  X(ops) X(plan_builds) X(fused_regions) X(fused_ops) X(cache_hits)         \
  X(cache_insertions) X(cache_evictions)                                    \
  X(cache_despecializations) X(pool_allocations) X(pool_hits)               \
  X(pool_misses) X(pool_bytes) X(in_place)

struct Snapshot {
#define E2E_DECLARE(f) std::int64_t f = 0;
  E2E_SNAPSHOT_FIELDS(E2E_DECLARE)
#undef E2E_DECLARE

  Snapshot operator-(const Snapshot& o) const {
    Snapshot d;
#define E2E_SUBTRACT(f) d.f = f - o.f;
    E2E_SNAPSHOT_FIELDS(E2E_SUBTRACT)
#undef E2E_SUBTRACT
    return d;
  }
  Snapshot& operator+=(const Snapshot& o) {
#define E2E_ADD(f) f += o.f;
    E2E_SNAPSHOT_FIELDS(E2E_ADD)
#undef E2E_ADD
    return *this;
  }
};

std::int64_t CounterValue(const obs::MetricsRegistry& r, const char* name) {
  const obs::Counter* c = r.FindCounter(name);
  return c != nullptr ? c->Value() : 0;
}

// The engine's phase-latency histograms, resolved once per session.
struct EngineTimers {
  const obs::Histogram* imperative;
  const obs::Histogram* graph_exec;
  const obs::Histogram* generation;
  const obs::Histogram* validation;

  explicit EngineTimers(const JanusEngine& engine)
      : imperative(engine.metrics().FindHistogram("engine.imperative_ns")),
        graph_exec(engine.metrics().FindHistogram("engine.graph_execution_ns")),
        generation(engine.metrics().FindHistogram("engine.generation_ns")),
        validation(engine.metrics().FindHistogram("engine.validation_ns")) {}

  static std::int64_t Sum(const obs::Histogram* h) {
    return h != nullptr ? h->Sum() : 0;
  }
  static std::int64_t Count(const obs::Histogram* h) {
    return h != nullptr ? h->Count() : 0;
  }
};

Snapshot TakeSnapshot(Workload& w, const EngineTimers& timers) {
  Snapshot s;
  s.imperative_ns = EngineTimers::Sum(timers.imperative);
  s.graph_exec_ns = EngineTimers::Sum(timers.graph_exec);
  s.generation_ns = EngineTimers::Sum(timers.generation);
  s.generation_count = EngineTimers::Count(timers.generation);
  s.validation_ns = EngineTimers::Sum(timers.validation);
  s.validation_count = EngineTimers::Count(timers.validation);
  const EngineStats stats = w.engine().stats();
  s.generations = stats.graph_generations;
  s.fallbacks = stats.fallbacks;
  s.ops = stats.graph_ops_executed;
  s.plan_builds = stats.plan_builds;
  s.fused_regions = stats.fused_regions;
  s.fused_ops = stats.fused_ops;
  const obs::MetricsRegistry& c = w.cache_registry();
  s.cache_hits = CounterValue(c, "cache.hits");
  s.cache_insertions = CounterValue(c, "cache.insertions");
  s.cache_evictions = CounterValue(c, "cache.evictions");
  s.cache_despecializations = CounterValue(c, "cache.despecializations");
  const BufferPool::Stats pool = BufferPool::Global().Snapshot();
  s.pool_allocations = pool.allocations;
  s.pool_hits = pool.pool_hits;
  s.pool_misses = pool.pool_misses;
  s.pool_bytes = pool.bytes_allocated;
  s.in_place = pool.in_place_reuses;
  return s;
}

// Sampled node time per op (ns, scaled by the profiler's own sampling
// stride) of one plan, without kNestingOps.
std::map<std::string, double> NodeTimesByOp(const obs::PlanProfile& profile) {
  std::map<std::string, double> by_op;
  for (int i = 0; i < profile.num_nodes(); ++i) {
    const std::string& op = profile.nodes()[static_cast<std::size_t>(i)].op;
    if (kNestingOps.count(op) != 0) continue;
    by_op[op] += static_cast<double>(profile.Snapshot(i).total_ns) *
                 obs::kProfileSampleEvery;
  }
  return by_op;
}

// The compiled-graph plans a traced block reads node time from: each
// resident unit's plan and library-function plans, keyed by profile and
// held alive. A block collects them after every step, so a plan the churn
// workload evicts mid-block still reports the node time it ran up, however
// many profiles the bounded ProfileRegistry drops meanwhile.
// Imperative-tape plans are never resident units; their time belongs to
// frontend.imperative.
using PlanSet =
    std::map<const obs::PlanProfile*, std::shared_ptr<const ExecutionPlan>>;

void CollectPlans(Workload& w, PlanSet* plans) {
  const auto add = [plans](const std::shared_ptr<const ExecutionPlan>& plan) {
    if (plan != nullptr && plan->profile() != nullptr) {
      plans->emplace(plan->profile(), plan);
    }
  };
  w.engine().ForEachCompiledUnit(
      [&](const std::string&, const CompiledGraph& unit) {
        add(unit.plan);
        for (const auto& plan : unit.function_plans) add(plan);
      });
}

// ---------------------------------------------------------------------------
// Arguments and provenance
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir;
  std::string git_sha = "unknown";
  bool twin = false;   // run as the imperative twin's process
  bool setup = false;  // run as the set-up helper's process
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 == 0) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--twin") {
      args->workload = value;
      args->twin = true;
    } else if (key == "--setup") {
      args->workload = value;
      args->setup = true;
    } else {
      return false;
    }
  }
  const auto& names = WorkloadNames();
  const bool known = std::find(names.begin(), names.end(), args->workload) !=
                     names.end();
  return known && (args->twin || args->setup ||
                    (args->seconds > 0.0 &&
                     (args->trace == 0 || args->trace == 1)));
}

std::string ProvenanceJson(const Args& args) {
  std::string env;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    if (std::strncmp(*e, "JANUS_", 6) != 0 || eq == nullptr) continue;
    env += (env.empty() ? "\"" : ", \"") +
           JsonEscape(std::string(*e, static_cast<std::size_t>(eq - *e))) +
           "\": \"" + JsonEscape(eq + 1) + "\"";
  }
  char head[512];
  std::snprintf(head, sizeof(head),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"num_cpus\": %d, \"hardware_threads\": %u, "
                "\"build_type\": \"%s\", \"git_sha\": \"%s\", ",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace, CpuCount(), std::thread::hardware_concurrency(),
                bench::BuildTypeString(), JsonEscape(args.git_sha).c_str());
  return std::string(head) + "\"janus_env\": {" + env + "}}";
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

// Every step of the measured session, in order.
struct StepLog {
  std::vector<double> losses;  // NaN where the step threw
  std::int64_t threw = 0;
  std::int64_t non_finite = 0;
  std::string first_error;

  void Step(Workload& w, SpanRecorder* spans) {
    double loss = std::nan("");
    try {
      loss = w.Step(spans);
      if (!std::isfinite(loss)) ++non_finite;
    } catch (const std::exception& e) {
      ++threw;
      if (first_error.empty()) first_error = e.what();
    }
    losses.push_back(loss);
  }
};

// One block of the timed phase.
struct Block {
  bool traced = false;
  std::vector<double> step_ms;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
};

struct Timed {
  // Steps and wall time over the traced (or the untraced) blocks.
  std::pair<std::int64_t, std::int64_t> Totals(bool traced) const {
    std::pair<std::int64_t, std::int64_t> totals{0, 0};
    for (const Block& block : blocks) {
      if (block.traced != traced) continue;
      totals.first += static_cast<std::int64_t>(block.step_ms.size());
      totals.second += block.wall_ns;
    }
    return totals;
  }

  std::vector<Block> blocks;
  std::int64_t traced_step_ns = 0;  // sum of traced steps' wall time
  Snapshot traced;                  // counters over the traced blocks
  std::map<std::string, double> node_ns_by_op;  // over the traced blocks
  // Profiles the ProfileRegistry dropped during traced blocks; node time
  // does not depend on the registry, so this is reported, not corrected.
  std::uint64_t profile_drops = 0;
};

// The timed phase: `seconds` of blocks, calling `between` after each. With
// `spans` set, every other block is traced: it records spans and turns on
// the node profiler.
Timed RunTimed(Workload& w, StepLog& log, double seconds, SpanRecorder* spans,
               const std::function<void()>& between) {
  const EngineTimers timers(w.engine());
  Timed t;
  const auto period = static_cast<std::size_t>(w.period());
  std::int64_t measured_ns = 0;
  for (int b = 0; measured_ns < static_cast<std::int64_t>(seconds * 1e9); ++b) {
    Block block;
    block.traced = spans != nullptr && b % 2 == 1;
    const bool on = block.traced;
    PlanSet plans;
    std::map<const obs::PlanProfile*, std::map<std::string, double>> base;
    const Snapshot before = on ? TakeSnapshot(w, timers) : Snapshot{};
    const std::uint64_t drops = obs::ProfileRegistry::Global().dropped();
    if (on) {
      CollectPlans(w, &plans);
      for (const auto& [profile, plan] : plans) {
        base[profile] = NodeTimesByOp(*profile);
      }
      spans->set_enabled(true);
      obs::EnableProfiling();
    }
    const std::int64_t cpu_start = CpuNs();
    const std::int64_t block_start = NowNs();
    const std::int64_t block_end = block_start + kBlockNs;
    // A block runs whole periods of the workload's inputs, so every block
    // does the same work.
    while (NowNs() < block_end || log.losses.size() % period != 0) {
      const std::int64_t t0 = NowNs();
      if (on) {
        ScopedSpan span(spans, "step", "bench");
        const std::int64_t imp = EngineTimers::Sum(timers.imperative);
        const std::int64_t gen = EngineTimers::Sum(timers.generation);
        const std::int64_t val = EngineTimers::Sum(timers.validation);
        const std::int64_t exe = EngineTimers::Sum(timers.graph_exec);
        log.Step(w, spans);
        span.Arg("imperative_ns", EngineTimers::Sum(timers.imperative) - imp);
        span.Arg("generation_ns", EngineTimers::Sum(timers.generation) - gen);
        span.Arg("validation_ns", EngineTimers::Sum(timers.validation) - val);
        span.Arg("graph_execution_ns",
                 EngineTimers::Sum(timers.graph_exec) - exe);
      } else {
        log.Step(w, nullptr);
      }
      const std::int64_t dt = NowNs() - t0;
      if (on) {
        t.traced_step_ns += dt;
        CollectPlans(w, &plans);
      }
      block.step_ms.push_back(static_cast<double>(dt) / 1e6);
    }
    block.wall_ns = NowNs() - block_start;
    measured_ns += block.wall_ns;
    block.cpu_ns = CpuNs() - cpu_start;
    if (on) {
      obs::DisableProfiling();
      spans->set_enabled(false);
      t.traced += TakeSnapshot(w, timers) - before;
      t.profile_drops += obs::ProfileRegistry::Global().dropped() - drops;
      for (const auto& [profile, plan] : plans) {
        const auto prior = base.find(profile);
        for (const auto& [op, ns] : NodeTimesByOp(*profile)) {
          double start = 0.0;  // a plan built during the block
          if (prior != base.end()) {
            const auto it = prior->second.find(op);
            if (it != prior->second.end()) start = it->second;
          }
          t.node_ns_by_op[op] += ns - start;
        }
      }
    }
    t.blocks.push_back(std::move(block));
    between();
    const std::int64_t idle = block_start + kBlockSpacingNs - NowNs();
    if (idle > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(idle));
    }
  }
  return t;
}

struct Probes {
  int units = 0;
  int failures = 0;
  int plans = 0;
  std::int64_t compile_ns = 0;
  std::int64_t plan_build_ns = 0;
  std::int64_t optimize_ns = 0;
  std::int64_t nodes_before_opt = 0;
  std::int64_t nodes_after_opt = 0;
};

// Calls each layer's public entry point on every resident unit's function:
// GraphGenerator::Compile (core); CompiledGraph::BuildPlans on the fresh
// graph, which plans it and its library functions (runtime, fusion and
// memory plan included); and
// opt::OptimizeGraph on the unit's graph generated without +SPCN, because
// Compile already ran OptimizeGraph on the resident graph.
Probes RunProbes(Workload& w, const EngineOptions& options,
                 SpanRecorder* spans) {
  struct UnitRef {
    std::string name;
    bool training;
    double lr;
  };
  std::vector<UnitRef> refs;
  std::set<std::string> seen;
  w.engine().ForEachCompiledUnit(
      [&](const std::string& name, const CompiledGraph& unit) {
        const std::string key = name + "/" + std::to_string(unit.training) +
                                "/" + std::to_string(unit.learning_rate);
        if (seen.insert(key).second) {
          refs.push_back({name, unit.training, unit.learning_rate});
        }
      });
  GraphGenerator generator(&w.interpreter(), &w.engine().profiler(),
                           options.generator);
  GeneratorOptions unspecialized = options.generator;
  unspecialized.specialize = false;
  GraphGenerator raw_generator(&w.interpreter(), &w.engine().profiler(),
                               unspecialized);

  Probes probes;
  const ScopedSpan root(spans, "probes", "bench");
  for (const UnitRef& ref : refs) {
    const minipy::Value value = w.interpreter().GetGlobal(ref.name);
    const auto* fn =
        std::get_if<std::shared_ptr<minipy::FunctionValue>>(&value);
    if (fn == nullptr) {
      ++probes.failures;
      continue;
    }
    std::vector<minipy::Value> args;
    if (!std::holds_alternative<minipy::NoneType>((*fn)->self)) {
      args.push_back((*fn)->self);
    }
    try {
      const std::int64_t t0 = NowNs();
      std::unique_ptr<CompiledGraph> fresh;
      {
        const ScopedSpan span(spans, "compile", "core");
        fresh = generator.Compile(*fn, args, ref.training, ref.lr);
      }
      const std::int64_t t1 = NowNs();
      int plans = 0;
      {
        const ScopedSpan span(spans, "plan_build", "runtime");
        plans = fresh->BuildPlans(options.enable_fusion);
      }
      const std::int64_t t2 = NowNs();
      std::unique_ptr<CompiledGraph> raw;
      {
        const ScopedSpan span(spans, "compile_unspecialized", "core");
        raw = raw_generator.Compile(*fn, args, ref.training, ref.lr);
      }
      const std::int64_t before = static_cast<std::int64_t>(raw->graph.num_nodes());
      const std::int64_t t3 = NowNs();
      {
        const ScopedSpan span(spans, "optimize_graph", "opt");
        OptimizeGraph(raw->graph, raw->fetches);
      }
      const std::int64_t t4 = NowNs();
      probes.compile_ns += t1 - t0;
      probes.plan_build_ns += t2 - t1;
      probes.optimize_ns += t4 - t3;
      probes.plans += plans;
      probes.nodes_before_opt += before;
      probes.nodes_after_opt += static_cast<std::int64_t>(raw->graph.num_nodes());
      ++probes.units;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "probe of unit %s failed: %s\n", ref.name.c_str(),
                   e.what());
      ++probes.failures;
    }
  }
  return probes;
}

// Builds `name`'s session on `seed` and steps it until the first step that
// ran a compiled graph returns, from a cold fused-kernel cache, as a
// process's first session has. Returns the wall seconds; the steps' losses
// go into `log`.
double SetUp(const std::string& name, std::uint64_t seed,
             const EngineOptions& options, SpanRecorder* sink,
             std::unique_ptr<Workload>* w, StepLog* log) {
  w->reset();
  cache::FusedKernelCache::Global().Clear();
  const std::int64_t start = NowNs();
  const ScopedSpan span(sink, "setup", "bench");
  {
    const ScopedSpan construct(sink, "construct", "models");
    *w = MakeWorkload(name, seed, options);
  }
  while ((*w)->engine().stats().graph_executions == 0) {
    if (static_cast<int>(log->losses.size()) >= kMaxSetupSteps) {
      throw std::runtime_error("no compiled graph ran within " +
                               std::to_string(kMaxSetupSteps) + " steps");
    }
    const ScopedSpan step(sink, "step", "bench");
    log->Step(**w, sink);
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

// A helper process's loop: for each count read from stdin it does `one`
// that many times and writes one number per line to stdout.
int HelperMain(const std::function<double()>& one) {
  // End with the measured process, however it ends.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() == 1) return 1;
  long long count = 0;
  while (std::scanf("%lld", &count) == 1) {
    for (long long i = 0; i < count; ++i) std::printf("%.17g\n", one());
    std::fflush(stdout);
  }
  return 0;
}

// The imperative twin's process: the same workload on the same seed under
// ImperativePreset(), one step per request; "nan" when a step threw.
int TwinMain(const Args& args) {
  const std::unique_ptr<Workload> twin = MakeWorkload(
      args.workload, args.seed, EngineOptions::ImperativePreset());
  return HelperMain([&] {
    try {
      return twin->Step(nullptr);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "imperative twin: %s\n", e.what());
      return std::nan("");
    }
  });
}

// The set-up helper's process: one set-up of a fresh session on kSetupSeed
// per request; "nan" when it failed.
int SetupMain(const Args& args) {
  return HelperMain([&] {
    std::unique_ptr<Workload> w;
    StepLog log;
    try {
      const double seconds = SetUp(args.workload, kSetupSeed,
                                   bench::JanusConfig(), nullptr, &w, &log);
      if (log.threw + log.non_finite == 0) return seconds;
      std::fprintf(stderr, "set-up helper: %s\n", log.first_error.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "set-up helper: %s\n", e.what());
    }
    return std::nan("");
  });
}

// A helper process: this program started with `args`, fed counts on its
// stdin, answering with one number per line on its stdout. It works only
// while the measured process waits for it, so its CPU time, memory and
// buffer-pool traffic stay out of the measured process's figures.
class Helper {
 public:
  explicit Helper(std::vector<std::string> args) {
    int to_child[2];
    int from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0) return;
    if (pipe2(from_child, O_CLOEXEC) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      return;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], STDOUT_FILENO);
    args.insert(args.begin(), "e2ebench");
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int spawned = posix_spawn(&pid_, "/proc/self/exe", &actions, nullptr,
                                    argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(to_child[0]);
    close(from_child[1]);
    if (spawned != 0) {
      close(to_child[1]);
      close(from_child[0]);
      pid_ = -1;
      return;
    }
    to_ = fdopen(to_child[1], "w");
    from_ = fdopen(from_child[0], "r");
  }

  ~Helper() {
    if (to_ != nullptr) std::fclose(to_);  // EOF ends the child's loop
    if (from_ != nullptr) std::fclose(from_);
    if (pid_ > 0) waitpid(pid_, nullptr, 0);
  }

  Helper(const Helper&) = delete;
  Helper& operator=(const Helper&) = delete;

  // Asks for `count` answers; false when the child is gone.
  bool Request(std::size_t count) {
    return to_ != nullptr && from_ != nullptr &&
           std::fprintf(to_, "%zu\n", count) >= 0 && std::fflush(to_) == 0;
  }
  // Reads the next answer; false when the child is gone.
  bool Answer(double* value) {
    return from_ != nullptr && std::fscanf(from_, "%lf", value) == 1;
  }

 private:
  pid_t pid_ = -1;
  std::FILE* to_ = nullptr;
  std::FILE* from_ = nullptr;
};

// The measured session's imperative reference (TwinMain's process).
// CatchUp() has it replay the steps it has not replayed yet and compares
// every loss.
class ImperativeTwin {
 public:
  explicit ImperativeTwin(const Args& args)
      : child_({"--twin", args.workload, "--seed", std::to_string(args.seed)}) {}

  void CatchUp(const StepLog& log) {
    const std::size_t count = log.losses.size() - replayed_;
    if (count == 0) return;
    if (!child_.Request(count)) {
      Lost(log);
      return;
    }
    for (; replayed_ < log.losses.size(); ++replayed_) {
      double expected = 0.0;
      if (!child_.Answer(&expected)) {
        Lost(log);
        return;
      }
      if (!std::isfinite(expected)) {
        ++errors_;
        continue;
      }
      const double got = log.losses[replayed_];
      if (!std::isfinite(got)) continue;  // already counted as a failure
      if (!(std::fabs(got - expected) <=
            kLossTolerance * std::max(1.0, std::fabs(expected)))) {
        if (mismatches_++ == 0) {
          std::fprintf(stderr,
                       "step %zu: loss %.9g, imperative reference %.9g\n",
                       replayed_, got, expected);
        }
      }
    }
  }

  std::int64_t mismatches() const { return mismatches_; }
  std::int64_t errors() const { return errors_; }

 private:
  // The child is gone: every step not yet replayed is unchecked.
  void Lost(const StepLog& log) {
    std::fprintf(stderr, "imperative twin process lost at step %zu\n",
                 replayed_);
    errors_ += static_cast<std::int64_t>(log.losses.size() - replayed_);
    replayed_ = log.losses.size();
  }

  Helper child_;
  std::size_t replayed_ = 0;
  std::int64_t mismatches_ = 0;
  std::int64_t errors_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

class MetricList {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (const Item& item : items_) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.10g", item.value);
      out += (out.size() > 1 ? ", \"" : "\"") + item.name +
             "\": {\"value\": " + value + ", \"unit\": \"" + item.unit +
             "\"}";
    }
    return out + "}";
  }
  void Print(const char* heading) const {
    std::printf("%s\n", heading);
    for (const Item& item : items_) {
      std::printf("  %-40s %14.6g %s\n", item.name.c_str(), item.value,
                  item.unit);
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

// The value a tenth of the way from the best end of `values`: the
// nearest-rank 90th percentile when higher is better, else the 10th.
// Every block does the same work, and host interference only slows it.
double QuietDecile(std::vector<double> values, bool higher_is_better) {
  std::sort(values.begin(), values.end());
  return Percentile(values, higher_is_better ? 90 : 10);
}

void AddEndToEnd(const Timed& t, const std::vector<double>& setup_s,
                 double peak_rss_mb, MetricList* m) {
  std::vector<double> rates, p50, p95, cpu_ms;
  std::vector<double> all;
  std::size_t fewest = SIZE_MAX;
  for (const Block& block : t.blocks) {
    std::vector<double> sorted = block.step_ms;
    std::sort(sorted.begin(), sorted.end());
    const auto n = static_cast<double>(sorted.size());
    rates.push_back(n / (static_cast<double>(block.wall_ns) / 1e9));
    p50.push_back(Percentile(sorted, 50));
    p95.push_back(Percentile(sorted, 95));
    cpu_ms.push_back(static_cast<double>(block.cpu_ns) / 1e6 / n);
    all.insert(all.end(), sorted.begin(), sorted.end());
    fewest = std::min(fewest, sorted.size());
  }
  m->Add("steps_per_s", QuietDecile(rates, true), "steps/s");
  m->Add("step_ms_p50", QuietDecile(p50, false), "ms");
  m->Add("cpu_ms_per_step", QuietDecile(cpu_ms, false), "ms");
  m->Add("setup_s", Median(setup_s), "s");
  m->Add("peak_rss_mb", peak_rss_mb, "MB");

  // The tail is reported, not gated: its spread across runs on the
  // development host (p95 up to 0.49, p99 up to 0.9 of the median) exceeds
  // any usable bound.
  std::sort(all.begin(), all.end());
  std::printf("tail (not gated): step_ms_p95 %.6g ms over the quietest "
              "tenth of %zu blocks (fewest steps in a block %zu, %zu "
              "beyond its p95); whole phase p95 %.6g ms, step_ms_p99 %.6g ms "
              "over %zu samples (%zu beyond it)\n",
              QuietDecile(p95, false), t.blocks.size(), fewest, fewest / 20,
              Percentile(all, 95), Percentile(all, 99), all.size(),
              all.size() / 100);
  std::printf("whole phase: p50 %.6g ms; steps/s by block:",
              Percentile(all, 50));
  for (const double rate : rates) std::printf(" %.0f", rate);
  std::printf("\n");
}

// Prints each span's self time summed over the traced run, by
// category.name.
void PrintSpanSelfTimes(const SpanRecorder& spans) {
  const std::vector<std::int64_t> self = spans.SelfNs();
  std::map<std::string, double> self_ms;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const SpanRecorder::Span& s = spans.spans()[i];
    self_ms[std::string(s.category) + "." + s.name] +=
        static_cast<double>(self[i]) / 1e6;
  }
  std::printf("span self time, ms over the traced run:");
  for (const auto& [name, ms] : self_ms) std::printf(" %s=%.3f", name.c_str(), ms);
  std::printf("\n");
}

void AddPerLayer(const Timed& t, const Snapshot& lifetime,
                 const Snapshot& prefix, const Probes& probes,
                 double fused_kernel_hit_ratio, MetricList* m) {
  const Snapshot& d = t.traced;
  const std::map<std::string, double>& node_ns_by_op = t.node_ns_by_op;
  const auto [traced_steps, traced_ns] = t.Totals(true);
  const auto [untraced_steps, untraced_ns] = t.Totals(false);
  const double steps =
      static_cast<double>(std::max<std::int64_t>(traced_steps, 1));
  const double per_step_ms = 1e6 * steps;  // divides ns into ms per step
  const double step_ns = static_cast<double>(t.traced_step_ns);
  const double engine_ns = static_cast<double>(
      d.imperative_ns + d.generation_ns + d.validation_ns + d.graph_exec_ns);
  double node_ns = 0.0;
  for (const auto& [op, ns] : node_ns_by_op) node_ns += ns;
  // The residual of the split: step time no engine timer covers
  // (interpreter dispatch, the step's input feed, the engine's work between
  // its timers, reading the loss back).
  const double outside_ns = step_ns - engine_ns;

  m->Add("frontend.imperative_ms_per_step", d.imperative_ns / per_step_ms,
         "ms");
  m->Add("frontend.outside_graph_ms_per_step", outside_ns / per_step_ms, "ms");
  m->Add("core.validation_us_per_call",
         Ratio(static_cast<double>(d.validation_ns),
               static_cast<double>(d.validation_count)) / 1e3,
         "us");
  m->Add("core.generations_per_1k_calls", 1000.0 * d.generations / steps,
         "1/1k");
  // Over the session's whole life: the zoo workloads generate only in
  // set-up and warm-up.
  m->Add("core.generation_ms_per_gen",
         Ratio(static_cast<double>(lifetime.generation_ns),
               static_cast<double>(lifetime.generation_count)) / 1e6,
         "ms");
  m->Add("core.compile_ms_per_unit",
         Ratio(static_cast<double>(probes.compile_ns), probes.units) / 1e6,
         "ms");
  m->Add("core.fallback_ratio", d.fallbacks / steps, "ratio");
  m->Add("opt.optimize_ms_per_unit",
         Ratio(static_cast<double>(probes.optimize_ns), probes.units) / 1e6,
         "ms");
  m->Add("opt.node_reduction_ratio",
         1.0 - Ratio(static_cast<double>(probes.nodes_after_opt),
                     static_cast<double>(probes.nodes_before_opt)),
         "ratio");
  m->Add("runtime.plan_build_ms_per_plan",
         Ratio(static_cast<double>(probes.plan_build_ns), probes.plans) / 1e6,
         "ms");
  m->Add("runtime.graph_exec_ms_per_step", d.graph_exec_ns / per_step_ms,
         "ms");
  m->Add("runtime.node_ms_per_step", node_ns / per_step_ms, "ms");
  // Graph-execution wall time minus node time: the scheduler residual. It
  // goes negative when +PARL overlaps nodes on pool workers by more than
  // the scheduling costs; runtime.node_parallelism shows the overlap.
  m->Add("runtime.sched_ms_per_step", (d.graph_exec_ns - node_ns) / per_step_ms,
         "ms");
  m->Add("runtime.node_parallelism",
         Ratio(node_ns, static_cast<double>(d.graph_exec_ns)), "ratio");
  m->Add("runtime.ops_per_step", d.ops / steps, "count");
  m->Add("runtime.fused_op_ratio",
         Ratio(static_cast<double>(d.fused_ops), static_cast<double>(d.ops)),
         "ratio");
  double other_ns = node_ns;
  for (const auto& [group, prefix] : kKernelGroups) {
    double ns = 0.0;
    for (const auto& [op, op_ns] : node_ns_by_op) {
      if (op.rfind(prefix, 0) == 0) ns += op_ns;
    }
    other_ns -= ns;
    m->Add("tensor.kernel_ms_per_step." + group, ns / per_step_ms, "ms");
  }
  m->Add("tensor.kernel_ms_per_step.other", other_ns / per_step_ms, "ms");
  m->Add("tensor.pool_hit_ratio",
         Ratio(static_cast<double>(d.pool_hits),
               static_cast<double>(d.pool_hits + d.pool_misses)),
         "ratio");
  m->Add("tensor.bytes_allocated_per_step", d.pool_bytes / steps, "bytes");
  // In-place outputs reuse a dying input's buffer instead of allocating.
  m->Add("tensor.in_place_ratio",
         Ratio(static_cast<double>(d.in_place),
               static_cast<double>(d.in_place + d.pool_allocations)),
         "ratio");
  // cache.hits also counts the run right after a regeneration's insert;
  // the resident-hit share leaves those out, as bench/cache_stress does.
  m->Add("cache.hit_ratio", (d.cache_hits - d.cache_insertions) / steps,
         "ratio");
  m->Add("cache.evictions_per_1k_calls", 1000.0 * d.cache_evictions / steps,
         "1/1k");
  m->Add("cache.despecializations_per_1k_calls",
         1000.0 * d.cache_despecializations / steps, "1/1k");
  m->Add("cache.fused_kernel_hit_ratio", fused_kernel_hit_ratio, "ratio");
  m->Add("obs.trace_overhead_ratio",
         Ratio(Ratio(static_cast<double>(traced_steps),
                     static_cast<double>(traced_ns)),
               Ratio(static_cast<double>(untraced_steps),
                     static_cast<double>(untraced_ns))),
         "ratio");
  m->Add("obs.traced_step_ms", step_ns / per_step_ms, "ms");
  m->Add("obs.unattributed_ratio", Ratio(outside_ns, step_ns), "ratio");
  m->Add("runtime.prefix_ops_per_step",
         static_cast<double>(prefix.ops) / kPrefixSteps, "count");
  m->Add("core.prefix_generations", static_cast<double>(prefix.generations),
         "count");
  m->Add("runtime.prefix_plan_builds", static_cast<double>(prefix.plan_builds),
         "count");
  m->Add("runtime.prefix_fused_regions",
         static_cast<double>(prefix.fused_regions), "count");
  m->Add("cache.prefix_evictions", static_cast<double>(prefix.cache_evictions),
         "count");

  std::printf("node time by op, ms/step:");
  for (const auto& [op, ns] : node_ns_by_op) {
    if (ns / per_step_ms >= 0.001) std::printf(" %s=%.4f", op.c_str(), ns / per_step_ms);
  }
  std::printf("\nprobes: %d units, %d plans, %d failures; profile registry "
              "dropped %llu profiles during traced blocks\n",
              probes.units, probes.plans, probes.failures,
              static_cast<unsigned long long>(t.profile_drops));
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <cnn|rnn|churn> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--git-sha <sha>]\n");
    return 2;
  }
  if (args.twin) return TwinMain(args);
  if (args.setup) return SetupMain(args);
  if (std::strcmp(bench::BuildTypeString(), "debug") == 0) {
    std::fprintf(stderr, "e2ebench: refusing to measure a debug build\n");
    return 2;
  }
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "e2ebench: %s is set; it turns on in-program "
                   "instrumentation and would change the measured program\n",
                   name);
      return 2;
    }
  }
  std::printf("provenance %s\n", ProvenanceJson(args).c_str());
  std::fflush(stdout);
  // A twin process that died must surface as twin errors, not kill this
  // process through a write to its closed pipe.
  signal(SIGPIPE, SIG_IGN);

  const bool traced = args.trace == 1;
  const EngineOptions options = bench::JanusConfig();
  SpanRecorder spans;
  SpanRecorder* const sink = traced ? &spans : nullptr;

  // 1. Set-up of the measured session, the process's only JANUS session:
  // its counters, and the fused-kernel cache's, start at zero.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  StepLog log;
  spans.set_enabled(traced);
  try {
    setup_s.push_back(SetUp(args.workload, args.seed, options, sink, &w, &log));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
  spans.set_enabled(false);
  const cache::FusedKernelCache::Stats fused =
      cache::FusedKernelCache::Global().Snapshot();
  const std::size_t setup_steps = log.losses.size();

  // 2. Warm-up to the exact-count prefix, then to the start of a period.
  const EngineTimers timers(w->engine());
  while (static_cast<int>(log.losses.size()) < kPrefixSteps) {
    log.Step(*w, nullptr);
  }
  const Snapshot prefix = TakeSnapshot(*w, timers);
  while (log.losses.size() % static_cast<std::size_t>(w->period()) != 0) {
    log.Step(*w, nullptr);
  }

  // 3. Timed phase. After each block the imperative twin catches up, and on
  // an untraced run the set-up helper sets up a fresh session.
  ImperativeTwin twin(args);
  std::unique_ptr<Helper> setup_helper;
  if (!traced) {
    setup_helper = std::make_unique<Helper>(
        std::vector<std::string>{"--setup", args.workload});
  }
  std::int64_t setup_errors = 0;
  twin.CatchUp(log);
  const Timed timed = RunTimed(*w, log, args.seconds, sink, [&] {
    twin.CatchUp(log);
    if (setup_helper == nullptr) return;
    double seconds = 0.0;
    if (setup_helper->Request(1) && setup_helper->Answer(&seconds) &&
        std::isfinite(seconds)) {
      setup_s.push_back(seconds);
    } else {
      ++setup_errors;
    }
  });
  setup_helper.reset();
  const double peak_rss_mb = PeakRssMb();
  const Snapshot lifetime = TakeSnapshot(*w, timers);

  // 4. Per-layer probes.
  Probes probes;
  if (traced) {
    spans.set_enabled(true);
    probes = RunProbes(*w, options, &spans);
    spans.set_enabled(false);
  }
  w.reset();

  const auto attempted = static_cast<std::int64_t>(log.losses.size());
  const std::int64_t failed = log.threw + log.non_finite + twin.mismatches();
  // A probe that cannot compile a unit the engine compiled is a failure of
  // the traced run, not a zero to report.
  const bool correct = failed == 0 && twin.errors() == 0 &&
                       setup_errors == 0 && probes.failures == 0;
  if (!log.first_error.empty()) {
    std::fprintf(stderr, "first step error: %s\n", log.first_error.c_str());
  }

  std::printf(
      "counts over the first %d steps: ops_per_step %.4f generations %lld "
      "plan_builds %lld fused_regions %lld cache_evictions %lld "
      "fallbacks %lld\n",
      kPrefixSteps, static_cast<double>(prefix.ops) / kPrefixSteps,
      static_cast<long long>(prefix.generations),
      static_cast<long long>(prefix.plan_builds),
      static_cast<long long>(prefix.fused_regions),
      static_cast<long long>(prefix.cache_evictions),
      static_cast<long long>(prefix.fallbacks));
  std::printf(
      "steps: %zu to set up, %d prefix, %zu timed (%lld untraced, "
      "%lld traced); failed %lld of %lld (threw %lld, non-finite %lld, "
      "mismatched %lld)\n",
      setup_steps, kPrefixSteps,
      static_cast<std::size_t>(timed.Totals(false).first + timed.Totals(true).first),
      static_cast<long long>(timed.Totals(false).first),
      static_cast<long long>(timed.Totals(true).first),
      static_cast<long long>(failed), static_cast<long long>(attempted),
      static_cast<long long>(log.threw),
      static_cast<long long>(log.non_finite),
      static_cast<long long>(twin.mismatches()));
  std::printf("  %-40s %14.6g ratio\n", "failed_step_ratio",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  std::printf("set-up seconds (measured session, then the helper's):");
  for (const double seconds : setup_s) std::printf(" %.4f", seconds);
  std::printf("; %lld helper set-ups failed\n",
              static_cast<long long>(setup_errors));

  MetricList metrics;
  if (!traced) {
    AddEndToEnd(timed, setup_s, peak_rss_mb, &metrics);
  } else {
    PrintSpanSelfTimes(spans);
    AddPerLayer(timed, lifetime, prefix, probes,
                Ratio(static_cast<double>(fused.hits),
                      static_cast<double>(fused.hits + fused.misses)),
                &metrics);
    if (!args.out_dir.empty()) {
      const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                               std::to_string(args.seed) + ".trace.json";
      if (!spans.WriteChromeTrace(path)) {
        std::fprintf(stderr, "e2ebench: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("trace %s: %zu spans, %lld dropped\n", path.c_str(),
                  spans.size(), static_cast<long long>(spans.dropped()));
    }
  }
  metrics.Print(traced ? "per-layer metrics (traced run):"
                       : "end-to-end metrics (untraced run):");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace janus::e2ebench

int main(int argc, char** argv) { return janus::e2ebench::Main(argc, argv); }
