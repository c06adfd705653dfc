#include "obs/profile.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "obs/ledger.h"

namespace janus {
namespace obs {

std::string ProfileSite::Label() const {
  if (!known()) return "?";
  if (function.empty()) return "line:" + std::to_string(line);
  if (line <= 0) return function;
  return function + ":" + std::to_string(line);
}

// ---------------------------------------------------------------------------
// PlanProfile
// ---------------------------------------------------------------------------

PlanProfile::PlanProfile(std::vector<ProfileNodeInfo> nodes,
                         const char* trace_category)
    : nodes_(std::move(nodes)),
      slots_(std::make_unique<Slot[]>(nodes_.empty() ? 1 : nodes_.size())),
      trace_category_(trace_category) {}

void PlanProfile::Record(int index, std::int64_t dur_ns) {
  if (index < 0 || index >= num_nodes()) return;
  if (dur_ns < 0) dur_ns = 0;
  Slot& slot = slots_[static_cast<std::size_t>(index)];
  const auto ns = static_cast<std::uint64_t>(dur_ns);
  slot.count.fetch_add(1, std::memory_order_relaxed);
  slot.total_ns.fetch_add(ns, std::memory_order_relaxed);
  // Racy max is fine: a lost update can only under-report by one sample.
  std::uint64_t seen = slot.max_ns.load(std::memory_order_relaxed);
  while (ns > seen &&
         !slot.max_ns.compare_exchange_weak(seen, ns,
                                            std::memory_order_relaxed)) {
  }
  const int bucket =
      std::min(kNumBuckets - 1,
               ns == 0 ? 0 : static_cast<int>(std::bit_width(ns)) - 1);
  slot.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
}

void PlanProfile::RecordSince(int index, std::int64_t start_ns) {
  const std::int64_t dur_ns = Trace::NowNs() - start_ns;
  Record(index, dur_ns);
  if (Trace::Enabled() && index >= 0 && index < num_nodes()) {
    Trace::RecordComplete(nodes_[static_cast<std::size_t>(index)].op,
                          trace_category_, start_ns, dur_ns, "sampled", 1);
  }
}

void PlanProfile::Clear() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Slot& slot = slots_[i];
    slot.count.store(0, std::memory_order_relaxed);
    slot.total_ns.store(0, std::memory_order_relaxed);
    slot.max_ns.store(0, std::memory_order_relaxed);
    for (auto& bucket : slot.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
}

void PlanProfile::SetKey(std::string unit, std::string variant, int level) {
  unit_ = std::move(unit);
  variant_ = std::move(variant);
  level_ = level;
}

void PlanProfile::SetSchedule(bool parallel, std::int64_t work_ns,
                              std::int64_t critical_path_ns, int offloaded) {
  schedule_work_ns_.store(work_ns, std::memory_order_relaxed);
  schedule_critical_path_ns_.store(critical_path_ns,
                                   std::memory_order_relaxed);
  schedule_offloaded_.store(offloaded, std::memory_order_relaxed);
  schedule_mode_.store(parallel ? 2 : 1, std::memory_order_release);
}

PlanProfile::ScheduleSummary PlanProfile::schedule() const {
  ScheduleSummary summary;
  const int mode = schedule_mode_.load(std::memory_order_acquire);
  if (mode == 0) return summary;
  summary.calibrated = true;
  summary.parallel = mode == 2;
  summary.work_ns = schedule_work_ns_.load(std::memory_order_relaxed);
  summary.critical_path_ns =
      schedule_critical_path_ns_.load(std::memory_order_relaxed);
  summary.offloaded = schedule_offloaded_.load(std::memory_order_relaxed);
  return summary;
}

PlanProfile::NodeSnapshot PlanProfile::Snapshot(int index) const {
  NodeSnapshot snap;
  if (index < 0 || index >= num_nodes()) return snap;
  const Slot& slot = slots_[static_cast<std::size_t>(index)];
  snap.count = slot.count.load(std::memory_order_relaxed);
  snap.total_ns = slot.total_ns.load(std::memory_order_relaxed);
  snap.max_ns = slot.max_ns.load(std::memory_order_relaxed);
  for (int b = 0; b < kNumBuckets; ++b) {
    snap.buckets[b] = slot.buckets[b].load(std::memory_order_relaxed);
  }
  return snap;
}

// ---------------------------------------------------------------------------
// ProfileRegistry
// ---------------------------------------------------------------------------

namespace {

void AddOpTimings(const PlanProfile& profile,
                  std::map<std::string, ProfileRegistry::OpTiming>* by_op) {
  for (int i = 0; i < profile.num_nodes(); ++i) {
    const PlanProfile::NodeSnapshot snap = profile.Snapshot(i);
    if (snap.count == 0) continue;
    ProfileRegistry::OpTiming& timing =
        (*by_op)[profile.nodes()[static_cast<std::size_t>(i)].op];
    timing.count += snap.count;
    timing.total_ns += snap.total_ns;
    timing.max_ns = std::max(timing.max_ns, snap.max_ns);
    for (int b = 0; b < PlanProfile::kNumBuckets; ++b) {
      timing.buckets[b] += snap.buckets[b];
    }
  }
}

}  // namespace

ProfileRegistry& ProfileRegistry::Global() {
  // Leaked: the JANUS_PROFILE exit dump must always find it alive.
  static ProfileRegistry* registry = new ProfileRegistry();
  return *registry;
}

void ProfileRegistry::Register(std::shared_ptr<PlanProfile> profile) {
  if (profile == nullptr) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (profiles_.size() >= kMaxProfiles) {
    AddOpTimings(*profiles_.front(), &dropped_ops_);
    profiles_.erase(profiles_.begin());
    ++dropped_;
  }
  profiles_.push_back(std::move(profile));
}

void ProfileRegistry::SetImperative(std::shared_ptr<PlanProfile> profile) {
  const std::lock_guard<std::mutex> lock(mu_);
  imperative_ = std::move(profile);
}

std::vector<std::shared_ptr<PlanProfile>> ProfileRegistry::Exported() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<PlanProfile>> exported;
  exported.reserve(profiles_.size() + 1);
  if (imperative_ != nullptr) exported.push_back(imperative_);
  exported.insert(exported.end(), profiles_.begin(), profiles_.end());
  return exported;
}

std::map<std::string, ProfileRegistry::OpTiming> ProfileRegistry::OpTimings()
    const {
  // One critical section: a profile dropped mid-scrape is counted exactly
  // once, live or folded, so the totals never dip.
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, OpTiming> by_op = dropped_ops_;
  if (imperative_ != nullptr) AddOpTimings(*imperative_, &by_op);
  for (const auto& profile : profiles_) AddOpTimings(*profile, &by_op);
  return by_op;
}

std::vector<std::shared_ptr<PlanProfile>> ProfileRegistry::Profiles() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return profiles_;
}

std::uint64_t ProfileRegistry::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void ProfileRegistry::Reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  profiles_.clear();
  dropped_ops_.clear();
  dropped_ = 0;
  if (imperative_ != nullptr) imperative_->Clear();
}

// ---------------------------------------------------------------------------
// Enable flag + sampling
// ---------------------------------------------------------------------------

namespace internal {
std::atomic<std::uint32_t> sampler_armed{0};
thread_local std::uint32_t profile_sample_countdown = 0;

std::uint32_t NextSampleGap(std::uint32_t nominal) {
  // Per-thread xorshift32, seeded from the thread-local's address so
  // threads decorrelate without any shared state.
  thread_local std::uint32_t state = [] {
    const auto seed = static_cast<std::uint32_t>(
        reinterpret_cast<std::uintptr_t>(&profile_sample_countdown) >> 4);
    return seed | 1u;  // xorshift must not start at 0
  }();
  state ^= state << 13;
  state ^= state >> 17;
  state ^= state << 5;
  if (nominal <= 1) return 1;
  // Uniform in [nominal/2, 3*nominal/2): mean = nominal, never 0.
  const std::uint32_t half = nominal / 2;
  return half + state % nominal + (half == 0 ? 1 : 0);
}
}  // namespace internal

void EnableProfiling() {
  internal::sampler_armed.fetch_or(internal::kSampleForProfiler,
                                   std::memory_order_relaxed);
}

void DisableProfiling() {
  internal::sampler_armed.fetch_and(~internal::kSampleForProfiler,
                                    std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

namespace {

// Emits the scaled samples of one plan node (splitting fused-region time
// across members) into *out.
void AppendNodeSamples(const PlanProfile& profile, int index,
                       std::vector<ProfileSample>* out) {
  const PlanProfile::NodeSnapshot snap = profile.Snapshot(index);
  if (snap.count == 0) return;
  const ProfileNodeInfo& info =
      profile.nodes()[static_cast<std::size_t>(index)];
  const std::uint64_t scale = kProfileSampleEvery;
  const auto emit = [&](const ProfileNodeInfo& node, std::uint64_t total_ns,
                        std::uint64_t max_ns) {
    ProfileSample sample;
    sample.unit = profile.unit();
    sample.variant = profile.variant();
    sample.level = profile.despecialization_level();
    sample.function = node.site.function;
    sample.line = node.site.line;
    sample.stmt = node.site.stmt;
    sample.op = node.op;
    sample.node = node.name;
    sample.count = snap.count * scale;
    sample.total_ns = total_ns * scale;
    sample.max_ns = max_ns * scale;
    out->push_back(std::move(sample));
  };
  if (info.members.empty()) {
    emit(info, snap.total_ns, snap.max_ns);
    return;
  }
  // Fused region: the timer wraps the whole region dispatch, so the split
  // across members is an even-share estimate (documented in DESIGN.md §13).
  const auto num_members = static_cast<std::uint64_t>(info.members.size());
  for (const ProfileNodeInfo& member : info.members) {
    emit(member, snap.total_ns / num_members, snap.max_ns / num_members);
  }
}

struct UnitKey {
  std::string unit;
  std::string variant;
  int level;
  bool operator<(const UnitKey& other) const {
    if (unit != other.unit) return unit < other.unit;
    if (variant != other.variant) return variant < other.variant;
    return level < other.level;
  }
};

}  // namespace

std::vector<ProfileSample> CollectProfileSamples() {
  std::vector<ProfileSample> samples;
  for (const auto& profile : ProfileRegistry::Global().Exported()) {
    for (int i = 0; i < profile->num_nodes(); ++i) {
      AppendNodeSamples(*profile, i, &samples);
    }
  }
  return samples;
}

const char* ProfilePlanSchedule::mode() const {
  if (!schedule.calibrated) return "uncalibrated";
  return schedule.parallel ? "parallel" : "sequential";
}

std::vector<ProfileUnitTotals> CollectProfileUnitTotals() {
  std::map<UnitKey, ProfileUnitTotals> by_key;
  for (const auto& profile : ProfileRegistry::Global().Exported()) {
    const UnitKey key{profile->unit(), profile->variant(),
                      profile->despecialization_level()};
    ProfileUnitTotals& totals = by_key[key];
    totals.unit = key.unit;
    totals.variant = key.variant;
    totals.level = key.level;
    totals.generation_ns += profile->generation_ns();
    totals.validation_ns += profile->validation_ns();
    totals.runs += profile->runs();
    for (int i = 0; i < profile->num_nodes(); ++i) {
      totals.execution_ns +=
          profile->Snapshot(i).total_ns * kProfileSampleEvery;
    }
  }
  for (const auto& profile : ProfileRegistry::Global().Profiles()) {
    const UnitKey key{profile->unit(), profile->variant(),
                      profile->despecialization_level()};
    by_key[key].plans.push_back({profile->num_nodes(), profile->schedule()});
  }
  std::vector<ProfileUnitTotals> out;
  out.reserve(by_key.size());
  for (auto& [key, totals] : by_key) out.push_back(std::move(totals));
  return out;
}

std::map<std::string, double> ProfileNodeMeanNs() {
  struct Acc {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  std::map<std::string, Acc> by_name;
  for (const auto& profile : ProfileRegistry::Global().Profiles()) {
    for (int i = 0; i < profile->num_nodes(); ++i) {
      const PlanProfile::NodeSnapshot snap = profile->Snapshot(i);
      if (snap.count == 0) continue;
      const ProfileNodeInfo& info =
          profile->nodes()[static_cast<std::size_t>(i)];
      if (info.members.empty()) {
        Acc& acc = by_name[info.name];
        acc.count += snap.count;
        acc.total_ns += snap.total_ns;
      } else {
        const auto n = static_cast<std::uint64_t>(info.members.size());
        for (const ProfileNodeInfo& member : info.members) {
          Acc& acc = by_name[member.name];
          acc.count += snap.count;
          acc.total_ns += snap.total_ns / n;
        }
      }
    }
  }
  std::map<std::string, double> means;
  for (const auto& [name, acc] : by_name) {
    if (acc.count > 0) {
      means[name] = static_cast<double>(acc.total_ns) /
                    static_cast<double>(acc.count);
    }
  }
  return means;
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

namespace {

std::string SiteLabelOf(const ProfileSample& sample) {
  ProfileSite site;
  site.function = sample.function;
  site.line = sample.line;
  site.stmt = sample.stmt;
  return site.Label();
}

}  // namespace

std::string RenderProfileText() {
  const std::vector<ProfileSample> samples = CollectProfileSamples();
  const std::vector<ProfileUnitTotals> units = CollectProfileUnitTotals();
  std::ostringstream out;
  out << "janus continuous profile (sample stride " << kProfileSampleEvery
      << ", times are scaled estimates)\n";
  out << "profiling " << (ProfilingEnabled() ? "enabled" : "disabled")
      << "; " << ProfileRegistry::Global().Profiles().size()
      << " plan(s) registered, " << ProfileRegistry::Global().dropped()
      << " dropped\n\n";

  out << "== units (inclusive phase split) ==\n";
  for (const ProfileUnitTotals& unit : units) {
    out << (unit.unit.empty() ? "<unattributed>" : unit.unit) << " ["
        << unit.variant << " L" << unit.level << "] runs=" << unit.runs
        << " generation=" << unit.generation_ns
        << "ns validation=" << unit.validation_ns
        << "ns execution~=" << unit.execution_ns << "ns\n";
    for (const ProfilePlanSchedule& plan : unit.plans) {
      out << "  plan nodes=" << plan.nodes << " schedule=" << plan.mode()
          << " work=" << plan.schedule.work_ns
          << "ns critical_path=" << plan.schedule.critical_path_ns
          << "ns offloaded=" << plan.schedule.offloaded << "\n";
    }
  }

  // Rollup by source line.
  struct LineAcc {
    std::uint64_t total_ns = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, LineAcc> by_line;
  std::uint64_t grand_total = 0;
  for (const ProfileSample& sample : samples) {
    LineAcc& acc = by_line[SiteLabelOf(sample)];
    acc.total_ns += sample.total_ns;
    acc.count += sample.count;
    grand_total += sample.total_ns;
  }
  std::vector<std::pair<std::string, LineAcc>> lines(by_line.begin(),
                                                     by_line.end());
  std::sort(lines.begin(), lines.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns > b.second.total_ns;
  });
  out << "\n== by source line ==\n";
  for (const auto& [label, acc] : lines) {
    const double share =
        grand_total > 0 ? 100.0 * static_cast<double>(acc.total_ns) /
                              static_cast<double>(grand_total)
                        : 0.0;
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%5.1f%%", share);
    out << pct << "  " << acc.total_ns << "ns  " << label << "\n";
  }

  // Top nodes.
  std::vector<ProfileSample> top = samples;
  std::sort(top.begin(), top.end(),
            [](const ProfileSample& a, const ProfileSample& b) {
              return a.total_ns > b.total_ns;
            });
  if (top.size() > 32) top.resize(32);
  out << "\n== top nodes ==\n";
  for (const ProfileSample& sample : top) {
    out << sample.total_ns << "ns  count=" << sample.count
        << "  max=" << sample.max_ns << "ns  " << sample.op << " "
        << sample.node << "  @" << SiteLabelOf(sample);
    if (!sample.unit.empty()) {
      out << "  [" << sample.unit << " " << sample.variant << " L"
          << sample.level << "]";
    }
    out << "\n";
  }
  return out.str();
}

std::string RenderProfileJson() {
  const std::vector<ProfileSample> samples = CollectProfileSamples();
  const std::vector<ProfileUnitTotals> units = CollectProfileUnitTotals();
  const auto escaped = [](std::string_view text) {
    std::string out;
    AppendJsonEscaped(out, text);
    return out;
  };
  std::ostringstream out;
  out << "{\"enabled\":" << (ProfilingEnabled() ? "true" : "false")
      << ",\"sample_stride\":" << kProfileSampleEvery << ",\"units\":[";
  bool first_unit = true;
  for (const ProfileUnitTotals& unit : units) {
    if (!first_unit) out << ",";
    first_unit = false;
    out << "{\"unit\":\"";
    out << escaped(unit.unit);
    out << "\",\"variant\":\"";
    out << escaped(unit.variant);
    out << "\",\"level\":" << unit.level << ",\"runs\":" << unit.runs
        << ",\"generation_ns\":" << unit.generation_ns
        << ",\"validation_ns\":" << unit.validation_ns
        << ",\"execution_ns\":" << unit.execution_ns << ",\"plans\":[";
    for (std::size_t i = 0; i < unit.plans.size(); ++i) {
      const ProfilePlanSchedule& plan = unit.plans[i];
      out << (i == 0 ? "" : ",") << "{\"nodes\":" << plan.nodes
          << ",\"schedule\":\"" << plan.mode()
          << "\",\"work_ns\":" << plan.schedule.work_ns
          << ",\"critical_path_ns\":" << plan.schedule.critical_path_ns
          << ",\"offloaded\":" << plan.schedule.offloaded << "}";
    }
    out << "]";

    // Per-line rollup and top nodes within this unit key.
    struct LineAcc {
      std::string function;
      int line = 0;
      std::uint64_t total_ns = 0;
      std::uint64_t count = 0;
    };
    std::map<std::pair<std::string, int>, LineAcc> by_line;
    std::vector<const ProfileSample*> unit_samples;
    for (const ProfileSample& sample : samples) {
      if (sample.unit != unit.unit || sample.variant != unit.variant ||
          sample.level != unit.level) {
        continue;
      }
      unit_samples.push_back(&sample);
      LineAcc& acc = by_line[{sample.function, sample.line}];
      acc.function = sample.function;
      acc.line = sample.line;
      acc.total_ns += sample.total_ns;
      acc.count += sample.count;
    }
    out << ",\"lines\":[";
    bool first_line = true;
    for (const auto& [key, acc] : by_line) {
      if (!first_line) out << ",";
      first_line = false;
      out << "{\"function\":\"";
      out << escaped(acc.function);
      out << "\",\"line\":" << acc.line
          << ",\"execution_ns\":" << acc.total_ns
          << ",\"count\":" << acc.count << "}";
    }
    out << "],\"top_nodes\":[";
    std::vector<const ProfileSample*> top = unit_samples;
    std::sort(top.begin(), top.end(),
              [](const ProfileSample* a, const ProfileSample* b) {
                return a->total_ns > b->total_ns;
              });
    if (top.size() > 16) top.resize(16);
    bool first_node = true;
    for (const ProfileSample* sample : top) {
      if (!first_node) out << ",";
      first_node = false;
      out << "{\"node\":\"";
      out << escaped(sample->node);
      out << "\",\"op\":\"";
      out << escaped(sample->op);
      out << "\",\"function\":\"";
      out << escaped(sample->function);
      out << "\",\"line\":" << sample->line
          << ",\"count\":" << sample->count
          << ",\"total_ns\":" << sample->total_ns
          << ",\"max_ns\":" << sample->max_ns << "}";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

std::string RenderFoldedStacks() {
  // Merge identical stacks: re-registered plans for the same unit produce
  // samples with the same frames.
  std::map<std::string, std::uint64_t> folded;
  for (const ProfileSample& sample : CollectProfileSamples()) {
    if (sample.total_ns == 0) continue;
    std::string stack = sample.unit.empty() ? "<unattributed>" : sample.unit;
    stack += ';';
    stack += sample.function.empty() ? "?" : sample.function;
    stack += ';';
    stack += SiteLabelOf(sample);
    stack += ';';
    stack += sample.op;
    folded[stack] += sample.total_ns;
  }
  std::ostringstream out;
  for (const auto& [stack, ns] : folded) {
    out << stack << ' ' << ns << '\n';
  }
  return out.str();
}

void WriteFoldedStacks(const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    JANUS_LOG(kError) << "cannot open profile output file '" << path << "'";
    return;
  }
  file << RenderFoldedStacks();
}

// ---------------------------------------------------------------------------
// Folded parsing + diffing
// ---------------------------------------------------------------------------

bool ParseFoldedProfile(std::string_view text, FoldedProfile* out,
                        std::string* error) {
  FoldedProfile parsed;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) +
                 ": expected '<stack> <value>'";
      }
      return false;
    }
    const std::string_view value_text = line.substr(space + 1);
    double value = 0;
    const auto [ptr, ec] = std::from_chars(
        value_text.data(), value_text.data() + value_text.size(), value);
    if (ec != std::errc() || ptr != value_text.data() + value_text.size() ||
        value < 0) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) +
                 ": malformed sample value '" + std::string(value_text) + "'";
      }
      return false;
    }
    parsed.stack_ns[std::string(line.substr(0, space))] += value;
    parsed.total_ns += value;
  }
  if (out != nullptr) *out = std::move(parsed);
  return true;
}

ProfileDiffResult DiffProfilesBySite(const FoldedProfile& before,
                                     const FoldedProfile& after) {
  // Key on the stack minus its leaf (op) frame: the same source site keeps
  // its identity across rewrites that change which ops implement it.
  const auto site_of = [](const std::string& stack) {
    const std::size_t semi = stack.rfind(';');
    return semi == std::string::npos ? stack : stack.substr(0, semi);
  };
  std::map<std::string, std::pair<double, double>> by_site;
  for (const auto& [stack, ns] : before.stack_ns) {
    by_site[site_of(stack)].first += ns;
  }
  for (const auto& [stack, ns] : after.stack_ns) {
    by_site[site_of(stack)].second += ns;
  }
  ProfileDiffResult result;
  for (const auto& [site, ns] : by_site) {
    ProfileDiffEntry entry;
    entry.site = site;
    entry.before_ns = ns.first;
    entry.after_ns = ns.second;
    entry.before_share =
        before.total_ns > 0 ? ns.first / before.total_ns : 0.0;
    entry.after_share = after.total_ns > 0 ? ns.second / after.total_ns : 0.0;
    entry.delta_pp = 100.0 * (entry.after_share - entry.before_share);
    result.max_regression_pp =
        std::max(result.max_regression_pp, entry.delta_pp);
    result.entries.push_back(std::move(entry));
  }
  std::sort(result.entries.begin(), result.entries.end(),
            [](const ProfileDiffEntry& a, const ProfileDiffEntry& b) {
              return a.delta_pp > b.delta_pp;
            });
  return result;
}

}  // namespace obs
}  // namespace janus
