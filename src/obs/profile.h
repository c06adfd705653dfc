// Source-attributed continuous profiler.
//
// JANUS executes a generated symbolic graph in place of the user's
// imperative program, which severs the link between "this line of my
// program" and "this much execution time". This module restores it: every
// ExecutionPlan registers a PlanProfile at build time — one lock-free
// accumulator slot per plan node, plus a copy of each node's imperative
// SourceSite (function, line, statement) — and the executors record
// sampled per-node wall time into those slots. Aggregations key on
// {conversion unit, variant, despecialization level}, so a unit's cost is
// attributable across recompilations of the same source.
//
// This sampler is the only per-op timer: eager dispatch records into a
// process-wide "<imperative>" profile, per-op time is node time grouped by
// op (ProfileRegistry::OpTimings), and tracing arms the same sampler.
//
// Cost model (mirrors trace/ledger):
//  * disabled (default): the per-node hook is one relaxed atomic load and
//    a branch;
//  * enabled: every Nth node execution (jittered stride, thread-local
//    countdown — see internal::NextSampleGap) pays two clock reads and a
//    handful of relaxed atomic adds on the plan's own slot array.
//
// Exports:
//  * /profilez on the introspection HTTP server — human text and
//    ?format=json (top nodes, per-source-line rollup, per-unit
//    generation/validation/execution split, and each plan's DAG schedule);
//  * /metrics janus_kernel_ns{op} — OpTimings() as Prometheus histograms;
//  * /pprof/profile — gzipped pprof profile.proto whose sample stacks are
//    imperative function -> statement -> op (see obs/pprof_encode.h);
//  * JANUS_PROFILE=<path> — folded-stacks dump at process exit, directly
//    consumable by flamegraph.pl;
//  * tools/janus_profdiff — per-source-site regression diff of two folded
//    dumps (ParseFoldedProfile / DiffProfilesBySite below).
#ifndef JANUS_OBS_PROFILE_H_
#define JANUS_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace janus {
namespace obs {

// Mirror of graph::SourceSite, copied at plan build so obs/ never links
// against the graph layer.
struct ProfileSite {
  std::string function;
  int line = 0;
  int stmt = -1;

  bool known() const { return !function.empty() || line > 0; }
  std::string Label() const;
};

// Static metadata for one plan node, captured at plan build. For a fused
// region, `members` carries the constituent nodes (execution time recorded
// against the region is split across them at export).
struct ProfileNodeInfo {
  std::string name;  // graph node name (unique within the graph)
  std::string op;
  ProfileSite site;
  std::vector<ProfileNodeInfo> members;  // non-empty iff fused region
};

// Per-plan cost accumulator: one cache-line-padded-free slot per plan node
// (count / total ns / max ns / log2 histogram), all updated with relaxed
// atomics — concurrent recorders only race benignly on max. Sized once at
// construction; never reallocated, so executors can record without
// synchronization while an HTTP scrape snapshots concurrently.
class PlanProfile {
 public:
  // Bucket b holds durations whose bit width is b + 1, i.e. [2^b, 2^(b+1))
  // ns (bucket 0 also holds 0); the top bucket saturates: >= 2^31 ns.
  static constexpr int kNumBuckets = 32;

  // `trace_category` (a static string) is the trace category of sampled
  // nodes' events: "kernel" for plans, "eager" for the imperative profile.
  explicit PlanProfile(std::vector<ProfileNodeInfo> nodes,
                       const char* trace_category = "kernel");

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<ProfileNodeInfo>& nodes() const { return nodes_; }

  // Hot path: adds one sampled execution of `index` taking `dur_ns`.
  void Record(int index, std::int64_t dur_ns);

  // Ends one sampled execution of `index` that began at `start_ns`
  // (Trace::NowNs() timebase): Record()s it and, while tracing, emits it
  // as a complete trace event named after the node's op.
  void RecordSince(int index, std::int64_t start_ns);

  // Zeroes every node slot (tests).
  void Clear();

  // Aggregation key: {conversion unit, variant, despecialization level}.
  // Set once by the engine right after compilation; plans built outside an
  // engine keep the defaults ("", "", 0).
  void SetKey(std::string unit, std::string variant, int level);
  const std::string& unit() const { return unit_; }
  const std::string& variant() const { return variant_; }
  int despecialization_level() const { return level_; }

  // Inclusive phase accounting for the unit this plan executes.
  void SetGenerationNs(std::int64_t ns) {
    generation_ns_.store(ns, std::memory_order_relaxed);
  }
  void AddValidationNs(std::int64_t ns) {
    validation_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void AddRun() { runs_.fetch_add(1, std::memory_order_relaxed); }
  std::int64_t generation_ns() const {
    return generation_ns_.load(std::memory_order_relaxed);
  }
  std::int64_t validation_ns() const {
    return validation_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t runs() const { return runs_.load(std::memory_order_relaxed); }

  // The plan's DAG schedule (runtime/plan.h DagSchedule), published once
  // when a warm run calibrates it; exported by /profilez.
  struct ScheduleSummary {
    bool calibrated = false;
    bool parallel = false;
    std::int64_t work_ns = 0;
    std::int64_t critical_path_ns = 0;
    int offloaded = 0;
  };
  void SetSchedule(bool parallel, std::int64_t work_ns,
                   std::int64_t critical_path_ns, int offloaded);
  ScheduleSummary schedule() const;

  struct NodeSnapshot {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    std::uint64_t buckets[kNumBuckets] = {};
  };
  NodeSnapshot Snapshot(int index) const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> max_ns{0};
    std::atomic<std::uint64_t> buckets[kNumBuckets] = {};
  };

  std::vector<ProfileNodeInfo> nodes_;
  std::unique_ptr<Slot[]> slots_;
  const char* trace_category_;
  std::string unit_;
  std::string variant_;
  int level_ = 0;
  std::atomic<std::int64_t> generation_ns_{0};
  std::atomic<std::int64_t> validation_ns_{0};
  std::atomic<std::uint64_t> runs_{0};
  // 0 = uncalibrated, 1 = sequential, 2 = parallel; stored last (release)
  // so a reader that sees it set also sees the three fields below.
  std::atomic<int> schedule_mode_{0};
  std::atomic<std::int64_t> schedule_work_ns_{0};
  std::atomic<std::int64_t> schedule_critical_path_ns_{0};
  std::atomic<int> schedule_offloaded_{0};
};

// Process-global set of live PlanProfiles. Plans register at build and
// stay until process exit (plans are shared_ptr-owned by caches; the
// registry holds weak-free shared_ptrs so a scrape racing plan eviction
// still reads valid slots). Bounded: past kMaxProfiles the oldest
// registration is dropped (dropped_ counts them) — continuous profiling
// must not grow without bound under cache churn. A dropped profile's
// per-op totals fold into OpTimings() first, so per-op exports stay
// monotonic.
class ProfileRegistry {
 public:
  static constexpr std::size_t kMaxProfiles = 512;

  using OpTiming = PlanProfile::NodeSnapshot;

  static ProfileRegistry& Global();

  void Register(std::shared_ptr<PlanProfile> profile);
  // The registered plan profiles (the imperative profile is not one).
  std::vector<std::shared_ptr<PlanProfile>> Profiles() const;
  std::uint64_t dropped() const;

  // The process-wide eager-dispatch profile (unit "<imperative>"):
  // exported, but never dropped by the bound or by Reset().
  void SetImperative(std::shared_ptr<PlanProfile> profile);
  // The imperative profile (when set), then Profiles().
  std::vector<std::shared_ptr<PlanProfile>> Exported() const;

  // Unscaled sampled node time grouped by op over every exported profile
  // plus the dropped ones; ops with no samples are omitted. A fused region
  // counts under its own op, "FusedRegion".
  std::map<std::string, OpTiming> OpTimings() const;

  // Drops all plan registrations and dropped-profile totals, and clears
  // the imperative profile's counts (tests).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<PlanProfile>> profiles_;
  std::shared_ptr<PlanProfile> imperative_;
  std::map<std::string, OpTiming> dropped_ops_;
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// Enable flag + sampling
// ---------------------------------------------------------------------------

namespace internal {
// Which of EnableProfiling / Trace::Enable armed the sampler; fetch_or /
// fetch_and keep the two switches from losing each other's bit.
inline constexpr std::uint32_t kSampleForProfiler = 1;
inline constexpr std::uint32_t kSampleForTrace = 2;
extern std::atomic<std::uint32_t> sampler_armed;
extern thread_local std::uint32_t profile_sample_countdown;
// Next countdown reload for a nominal stride: uniform in
// [nominal/2, 3*nominal/2) from a per-thread xorshift PRNG (mean =
// nominal). A deterministic every-Nth stride aliases with fixed-length
// plans — a 16-op chain under a 16-stride sampler times the same node
// forever — so gaps are jittered. All state is thread-local.
std::uint32_t NextSampleGap(std::uint32_t nominal);
}  // namespace internal

// Nominal sampling stride: ~1 in 64 node executions is timed while
// the sampler is armed. Exports scale counts/times back up by this factor.
// 64 keeps the enabled overhead on a chain of ~40ns ops under ~5%
// (BM_ProfileOverhead); long-running workloads still collect thousands of
// samples per second per thread.
inline constexpr std::uint32_t kProfileSampleEvery = 64;

void EnableProfiling();
void DisableProfiling();

// True while the sampler runs: profiling is enabled or tracing is on.
inline bool ProfilingEnabled() {
  return internal::sampler_armed.load(std::memory_order_relaxed) != 0;
}

// Executors call this once per plan-node execution and eager dispatch
// once per op: the one sampling check every kernel passes. Disabled cost:
// the relaxed load above and a branch. The countdown is thread-local and the
// reload jittered (internal::NextSampleGap) so a fixed-length plan cannot
// alias with the stride and pin sampling onto one node.
inline bool ShouldSampleProfileNode() {
  if (!ProfilingEnabled()) return false;
  if (internal::profile_sample_countdown == 0) {
    internal::profile_sample_countdown =
        internal::NextSampleGap(kProfileSampleEvery) - 1;
    return true;
  }
  --internal::profile_sample_countdown;
  return false;
}

// ---------------------------------------------------------------------------
// Snapshots + renderers
// ---------------------------------------------------------------------------

// One exported sample: a plan node (or fused-region member, with the
// region's time split evenly across members) under its aggregation key.
// count/total_ns/max_ns are scaled by the nominal sampling stride, i.e.
// they estimate true totals.
struct ProfileSample {
  std::string unit;
  std::string variant;
  int level = 0;
  std::string function;
  int line = 0;
  int stmt = -1;
  std::string op;
  std::string node;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

// One registered plan's DAG schedule, as /profilez exports it.
struct ProfilePlanSchedule {
  int nodes = 0;
  PlanProfile::ScheduleSummary schedule;
  // "uncalibrated" (no warm parallel-mode run yet), "sequential" or
  // "parallel".
  const char* mode() const;
};

struct ProfileUnitTotals {
  std::string unit;
  std::string variant;
  int level = 0;
  std::int64_t generation_ns = 0;
  std::int64_t validation_ns = 0;
  std::uint64_t execution_ns = 0;  // sampled-and-scaled node time
  std::uint64_t runs = 0;
  std::vector<ProfilePlanSchedule> plans;  // the unit's registered plans
};

std::vector<ProfileSample> CollectProfileSamples();
std::vector<ProfileUnitTotals> CollectProfileUnitTotals();

// Mean per-execution ns per graph node name, aggregated across all
// registered plans (fused members get their split share). Used by the DOT
// exporter's heat coloring; node names may collide across units — callers
// get the blended mean, which is the best available without a unit hint.
std::map<std::string, double> ProfileNodeMeanNs();

// /profilez renderers.
std::string RenderProfileText();
std::string RenderProfileJson();

// Folded-stacks dump: one line per sample,
//   "unit;function;function:line;op <total_ns>"
// — flamegraph.pl consumes this directly.
std::string RenderFoldedStacks();
void WriteFoldedStacks(const std::string& path);

// ---------------------------------------------------------------------------
// Folded-profile parsing + diffing (janus_profdiff)
// ---------------------------------------------------------------------------

struct FoldedProfile {
  // Full stack ("a;b;c") -> summed value.
  std::map<std::string, double> stack_ns;
  double total_ns = 0;
};

// Parses a folded-stacks dump (blank lines ignored). Returns false with a
// line-annotated *error on malformed input (no value, non-numeric value).
bool ParseFoldedProfile(std::string_view text, FoldedProfile* out,
                        std::string* error);

struct ProfileDiffEntry {
  std::string site;       // stack minus the leaf op frame
  double before_ns = 0;
  double after_ns = 0;
  double before_share = 0;  // fraction of its profile's total
  double after_share = 0;
  double delta_pp = 0;      // (after - before) share, percentage points
};

struct ProfileDiffResult {
  std::vector<ProfileDiffEntry> entries;  // sorted by delta_pp descending
  double max_regression_pp = 0;
};

// Diffs two folded profiles per source site (all frames except the leaf
// op), comparing each site's share of its own profile's total — so two
// dumps of different lengths compare meaningfully.
ProfileDiffResult DiffProfilesBySite(const FoldedProfile& before,
                                     const FoldedProfile& after);

}  // namespace obs
}  // namespace janus

#endif  // JANUS_OBS_PROFILE_H_
