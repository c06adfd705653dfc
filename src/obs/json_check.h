// Minimal parsers used to validate the observability subsystem's emitted
// text formats: Chrome-trace JSON, speculation-ledger JSONL, and the
// Prometheus text exposition served on /metrics.
//
// These are deliberately not general libraries: they fully validate
// syntax and extract only what validation needs. Tests and the
// `trace_validate` CI tool both parse exporter output back through this
// module to guard each schema.
#ifndef JANUS_OBS_JSON_CHECK_H_
#define JANUS_OBS_JSON_CHECK_H_

#include <map>
#include <set>
#include <string>
#include <string_view>

namespace janus {
namespace obs {

struct ChromeTraceSummary {
  int num_events = 0;
  std::set<std::string> names;
  std::set<std::string> categories;
  std::set<std::string> phases;
};

// Parses `json` as a Chrome trace ({"traceEvents": [...]}). Returns false
// (with a position-annotated message in *error) on any syntax error, a
// missing "traceEvents" array, or an event missing name/cat/ph string
// fields. On success fills *summary when non-null.
bool ValidateChromeTrace(std::string_view json, std::string* error,
                         ChromeTraceSummary* summary = nullptr);

// One top-level value of a flat JSON object. Strings are decoded
// (escapes resolved); numbers and literals keep their raw source text.
struct FlatValue {
  enum class Kind { kString, kNumber, kBool, kNull };
  Kind kind = Kind::kString;
  std::string text;
};
using FlatObject = std::map<std::string, FlatValue>;

// Parses one line as a flat JSON object — the shape every ledger JSONL
// record has. Nested objects and arrays are rejected. Returns false with
// a position-annotated *error on malformed input.
bool ParseFlatJsonObject(std::string_view line, FlatObject* fields,
                         std::string* error);

// Validates one speculation-ledger JSONL line (obs/ledger.h schema): a
// flat object with numeric "seq" and "ts_ns" and a non-empty string
// "kind"; the attribution fields (unit/name/assumption/assumed/observed/
// detail) must be strings and the latency/volume fields numeric when
// present. Fills *fields when non-null.
bool ValidateLedgerLine(std::string_view line, FlatObject* fields,
                        std::string* error);

struct ProfileJsonSummary {
  bool enabled = false;
  int sample_stride = 0;
  int num_units = 0;
  int num_lines = 0;   // per-source-line rollup entries across all units
  int num_nodes = 0;   // top_nodes entries across all units
  int num_plans = 0;   // plans entries across all units
  int num_parallel_plans = 0;  // ... whose schedule is "parallel"
  std::set<std::string> units;
};

// Validates the /profilez?format=json document (obs/profile.h schema): a
// top-level object with boolean "enabled", numeric "sample_stride", and a
// "units" array whose entries carry string unit/variant, numeric
// level/runs/generation_ns/validation_ns/execution_ns, a "lines" array
// ({function, line, execution_ns, count}), a "top_nodes" array
// ({node, op, function, line, count, total_ns, max_ns}), and a "plans"
// array ({nodes, schedule, work_ns, critical_path_ns, offloaded}, schedule
// one of "uncalibrated", "sequential", "parallel"). On success fills
// *summary when non-null.
bool ValidateProfileJson(std::string_view json, std::string* error,
                         ProfileJsonSummary* summary = nullptr);

struct PrometheusSummary {
  int num_samples = 0;
  // Family names declared by "# TYPE" lines, and the (possibly suffixed)
  // names that actually appeared on sample lines.
  std::set<std::string> families;
  std::set<std::string> sample_names;
};

// Validates a Prometheus text-format 0.0.4 exposition: every line must be
// a comment ("# HELP" / "# TYPE" with a well-formed name and type) or a
// sample `name{labels} value` whose metric name, label names, label-value
// escapes, and value all conform. Sample values must be finite (NaN/±Inf
// indicate a broken exporter; the `le="+Inf"` histogram-bucket LABEL is
// unaffected), and each series — name plus label set, order-insensitive —
// may appear at most once per exposition. On success fills *summary when
// non-null.
bool ValidatePrometheusText(std::string_view text, std::string* error,
                            PrometheusSummary* summary = nullptr);

}  // namespace obs
}  // namespace janus

#endif  // JANUS_OBS_JSON_CHECK_H_
