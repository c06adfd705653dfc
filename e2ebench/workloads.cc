#include "e2ebench/workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <variant>

#include "common/rng.h"
#include "frontend/builtins.h"
#include "models/zoo.h"

namespace janus::e2ebench {
namespace {

double ValueAsDouble(const minipy::Value& value) {
  if (const auto* t = std::get_if<Tensor>(&value)) return t->ElementAsDouble(0);
  if (const auto* d = std::get_if<double>(&value)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    return static_cast<double>(*i);
  }
  throw std::runtime_error("step returned a non-numeric loss");
}

// ---------------------------------------------------------------------------
// Zoo workloads (cnn, rnn): one model of the paper's zoo, stepped through
// models::ModelSession, the session the zoo tests measure.
// ---------------------------------------------------------------------------
class ZooWorkload : public Workload {
 public:
  ZooWorkload(const models::ModelSpec& spec, std::uint64_t seed,
              const EngineOptions& options)
      : session_(spec, options, seed) {}

  double Step(SpanRecorder* spans) override {
    {
      const ScopedSpan span(spans, "run", "models");
      session_.Step();
    }
    // Read back strictly: Step() reads a non-numeric loss as 0.
    return ValueAsDouble(session_.interpreter().GetGlobal("loss"));
  }

  JanusEngine& engine() override { return session_.engine(); }
  minipy::Interpreter& interpreter() override { return session_.interpreter(); }
  const obs::MetricsRegistry& cache_registry() const override {
    return obs::MetricsRegistry::Global();
  }

 private:
  models::ModelSession session_;
};

// ---------------------------------------------------------------------------
// churn: one engine, a program of many small training units with seeded
// weights, and a periodic Zipf stream of optimize calls with mixed batch
// shapes and seeded data. The cache's entry budget is below the unit
// count, so hits run beside misses, regenerations, evictions and the
// despecialization ladder.
// ---------------------------------------------------------------------------
constexpr int kChurnUnits = 40;
constexpr int kChurnEntryBudget = 16;
constexpr int kChurnEntriesPerKey = 2;
constexpr double kChurnZipfExponent = 1.1;
constexpr double kChurnLearningRate = 0.01;
// Share of calls whose batch has 4 or 16 rows instead of 8.
constexpr double kChurnOddBatchShare = 0.2;
// Share of calls to branching units whose data takes the rare branch.
constexpr double kChurnRareBranchShare = 0.05;
// The request stream repeats with this period (about 0.3 s of calls), so
// every timed block, a whole number of periods, does the same work and
// block rates differ only by the host.
constexpr int kChurnPeriod = 400;
// The units' shapes and the order of one period's requests come from this
// fixed seed, not from --seed, so every seed does the same work: the widths
// of the few most popular units, and which units the cache evicts and
// regenerates, set most of a call's cost. Drawn per seed, they moved
// steps/s by up to 10% between seeds. --seed draws the weights, the batch
// data and where in the period the stream starts.
constexpr std::uint64_t kChurnProgramSeed = 0xC4u;

struct ChurnUnit {
  int features = 0;
  std::vector<int> widths;  // hidden layer widths, 1-8 layers
  const char* activation = "tanh";
  bool branch = false;  // data-dependent branch on the batch mean
};

// Unit k is the stream's k-th most popular. Its depth and whether it
// branches follow from k alone (depth 1-8, cycling; every third unit
// branches); widths, input features and activations are drawn from `rng`.
std::vector<ChurnUnit> MakeChurnUnits(Rng& rng) {
  static const char* const kActivations[] = {"tanh", "sigmoid", "relu"};
  std::vector<ChurnUnit> units(kChurnUnits);
  for (int k = 0; k < kChurnUnits; ++k) {
    ChurnUnit& unit = units[static_cast<std::size_t>(k)];
    unit.features = 4 * static_cast<int>(1 + rng.Below(4));
    const int depth = 1 + (k * 3) % 8;
    for (int l = 0; l < depth; ++l) {
      unit.widths.push_back(8 * static_cast<int>(1 + rng.Below(4)));
    }
    unit.activation = kActivations[rng.Below(3)];
    unit.branch = k % 3 == 1;
  }
  return units;
}

std::string ChurnProgram(const std::vector<ChurnUnit>& units) {
  std::string program;
  for (std::size_t k = 0; k < units.size(); ++k) {
    const ChurnUnit& unit = units[k];
    const std::string id = std::to_string(k);
    std::string body = "def loss_" + id + "():\n    h = x_" + id + "\n";
    int in = unit.features;
    for (std::size_t l = 0; l < unit.widths.size(); ++l) {
      const std::string w = "w_" + id + "_" + std::to_string(l);
      const std::string b = "b_" + id + "_" + std::to_string(l);
      const std::string out = std::to_string(unit.widths[l]);
      program += w + " = variable('" + w + "', randn([" + std::to_string(in) +
                 ", " + out + "], 0.3))\n";
      program += b + " = variable('" + b + "', zeros([" + out + "]))\n";
      body += std::string("    h = ") + unit.activation + "(matmul(h, " + w +
              ") + " + b + ")\n";
      in = unit.widths[l];
    }
    const std::string wo = "wo_" + id;
    program += wo + " = variable('" + wo + "', randn([" + std::to_string(in) +
               ", 1], 0.3))\n";
    body += "    out = matmul(h, " + wo + ")\n";
    if (unit.branch) {
      body += "    if reduce_mean(x_" + id + ") > 0.0:\n"
              "        out = out * 0.5\n";
    }
    body += "    return reduce_mean(square(out - y_" + id + "))\n";
    program += body;
  }
  return program;
}

struct ChurnRequest {
  int unit = 0;
  std::int64_t rows = 8;
  bool rare_branch = false;
};

template <typename T>
void Shuffle(std::vector<T>* items, Rng& rng) {
  for (std::size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.Below(i)]);
  }
}

// One period of the request stream. Unit k gets its Zipf share of the
// period's calls (largest remainder); exactly kChurnOddBatchShare of the
// calls have 4 or 16 rows, and exactly kChurnRareBranchShare of the calls
// to branching units take the rare branch. `rng` orders them.
std::vector<ChurnRequest> MakeChurnSchedule(const std::vector<ChurnUnit>& units,
                                            Rng& rng) {
  std::vector<double> quota;
  double total = 0.0;
  for (int k = 0; k < kChurnUnits; ++k) {
    quota.push_back(1.0 / std::pow(static_cast<double>(k + 1),
                                   kChurnZipfExponent));
    total += quota.back();
  }
  std::vector<int> count;
  std::vector<std::pair<double, int>> remainders;
  int assigned = 0;
  for (int k = 0; k < kChurnUnits; ++k) {
    const double q = kChurnPeriod * quota[static_cast<std::size_t>(k)] / total;
    count.push_back(static_cast<int>(q));
    assigned += count.back();
    remainders.emplace_back(q - std::floor(q), k);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (int i = 0; assigned < kChurnPeriod; ++i, ++assigned) {
    ++count[static_cast<std::size_t>(remainders[static_cast<std::size_t>(i)].second)];
  }

  std::vector<ChurnRequest> schedule;
  for (int k = 0; k < kChurnUnits; ++k) {
    for (int i = 0; i < count[static_cast<std::size_t>(k)]; ++i) {
      schedule.push_back(ChurnRequest{k, 8, false});
    }
  }
  Shuffle(&schedule, rng);
  std::vector<std::int64_t> rows(kChurnPeriod, 8);
  const auto odd = static_cast<std::size_t>(
      std::lround(kChurnPeriod * kChurnOddBatchShare));
  for (std::size_t i = 0; i < odd; ++i) rows[i] = i % 2 == 0 ? 4 : 16;
  Shuffle(&rows, rng);
  std::vector<std::size_t> branching;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    schedule[i].rows = rows[i];
    if (units[static_cast<std::size_t>(schedule[i].unit)].branch) {
      branching.push_back(i);
    }
  }
  Shuffle(&branching, rng);
  const auto rare = static_cast<std::size_t>(std::lround(
      static_cast<double>(branching.size()) * kChurnRareBranchShare));
  for (std::size_t i = 0; i < rare; ++i) schedule[branching[i]].rare_branch = true;
  return schedule;
}

EngineOptions ChurnOptions(EngineOptions options) {
  options.private_cache = true;
  options.cache.max_entries = kChurnEntryBudget;
  options.cache.max_entries_per_key = kChurnEntriesPerKey;
  return options;
}

// Everything the churn session owns, in the construction order
// models::ModelSession uses.
struct SessionCore {
  VariableStore variables;
  Rng model_rng;
  minipy::Interpreter interp;
  JanusEngine engine;

  SessionCore(std::uint64_t seed, const EngineOptions& options)
      : model_rng(seed), interp(&variables, &model_rng), engine(&interp, options) {
    minipy::InstallBuiltins(interp);
    engine.Attach();
  }
};

class ChurnWorkload : public Workload {
 public:
  ChurnWorkload(std::uint64_t seed, const EngineOptions& options)
      : stream_rng_(seed ^ 0x57u),
        units_(MakeChurnUnits(program_rng_)),
        schedule_(MakeChurnSchedule(units_, program_rng_)),
        next_(stream_rng_.Below(kChurnPeriod)),
        core_(seed, ChurnOptions(options)) {
    core_.interp.Run(ChurnProgram(units_));
    for (int k = 0; k < kChurnUnits; ++k) {
      functions_.push_back(std::get<std::shared_ptr<minipy::FunctionValue>>(
          core_.interp.GetGlobal("loss_" + std::to_string(k))));
    }
  }

  double Step(SpanRecorder* spans) override {
    const ChurnRequest& request = schedule_[next_++ % schedule_.size()];
    const int k = request.unit;
    const ChurnUnit& unit = units_[static_cast<std::size_t>(k)];
    const std::int64_t rows = request.rows;
    double shift = 0.0;
    if (unit.branch) shift = request.rare_branch ? -0.5 : 0.5;
    std::vector<float> x(static_cast<std::size_t>(rows * unit.features));
    for (float& v : x) v = static_cast<float>(stream_rng_.Normal(shift, 1.0));
    std::vector<float> y(static_cast<std::size_t>(rows));
    for (float& v : y) v = static_cast<float>(stream_rng_.Normal());
    const std::string id = std::to_string(k);
    core_.interp.SetGlobal("x_" + id,
                           Tensor::FromVector(x, Shape{rows, unit.features}));
    core_.interp.SetGlobal("y_" + id, Tensor::FromVector(y, Shape{rows, 1}));
    const ScopedSpan span(spans, "run", "core");
    return ValueAsDouble(core_.engine.RunTraining(
        functions_[static_cast<std::size_t>(k)], kChurnLearningRate));
  }

  JanusEngine& engine() override { return core_.engine; }
  minipy::Interpreter& interpreter() override { return core_.interp; }
  const obs::MetricsRegistry& cache_registry() const override {
    return core_.engine.metrics();
  }
  int period() const override { return kChurnPeriod; }

 private:
  Rng program_rng_{kChurnProgramSeed};
  Rng stream_rng_;
  std::vector<ChurnUnit> units_;
  std::vector<ChurnRequest> schedule_;
  std::size_t next_;  // the next request's index, modulo the period
  SessionCore core_;
  std::vector<std::shared_ptr<minipy::FunctionValue>> functions_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cnn", "rnn", "churn"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const EngineOptions& options) {
  if (name == "cnn") {
    return std::make_unique<ZooWorkload>(models::FindModel("Inception-v3"),
                                         seed, options);
  }
  if (name == "rnn") {
    return std::make_unique<ZooWorkload>(models::FindModel("LSTM"), seed,
                                         options);
  }
  if (name == "churn") return std::make_unique<ChurnWorkload>(seed, options);
  return nullptr;
}

}  // namespace janus::e2ebench
