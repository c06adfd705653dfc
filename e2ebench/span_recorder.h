// In-memory span recorder for the benchmark's traced run. Spans are
// recorded only around the benchmark's own calls into the layers (feed,
// engine run, generator/opt/plan probes), each with the span that caused
// it, and written at exit as Chrome-trace JSON ({"traceEvents": [...]})
// that tools/trace_validate accepts.
#ifndef JANUS_E2EBENCH_SPAN_RECORDER_H_
#define JANUS_E2EBENCH_SPAN_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace janus::e2ebench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  // Spans beyond this many are counted as dropped, not stored, so a long
  // traced run stays bounded in memory.
  static constexpr std::size_t kMaxSpans = 400000;

  struct Span {
    const char* name = "";
    const char* category = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index of the causing span, -1 for a root
    std::vector<std::pair<const char*, std::int64_t>> args;
  };

  // Opens a span caused by the innermost open span; returns its id, or -1
  // when the recorder is off or full.
  int Begin(const char* name, const char* category) {
    if (!enabled_) return -1;
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return -1;
    }
    const int id = static_cast<int>(spans_.size());
    Span span;
    span.name = name;
    span.category = category;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    open_.push_back(id);
    return id;
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  void Arg(int id, const char* key, std::int64_t value) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].args.emplace_back(key, value);
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  std::size_t size() const { return spans_.size(); }
  std::int64_t dropped() const { return dropped_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span: its duration minus the part its direct
  // children cover (children of one span never overlap: the benchmark is
  // single-threaded).
  std::vector<std::int64_t> SelfNs() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
      }
    }
    return self;
  }

  // Chrome trace-event JSON: complete ("X") events in microseconds, with
  // span_id / parent_id (-1 = root) and the span's integer args.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"traceEvents\":[", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                   "\"args\":{\"span_id\":%zu,\"parent_id\":%d",
                   i == 0 ? "" : ",", span.name, span.category,
                   static_cast<double>(span.start_ns - epoch) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                   span.parent);
      for (const auto& [key, value] : span.args) {
        std::fprintf(out, ",\"%s\":%lld", key, static_cast<long long>(value));
      }
      std::fputs("}}", out);
    }
    std::fprintf(out, "\n],\"displayTimeUnit\":\"ms\",\"dropped_spans\":%lld}\n",
                 static_cast<long long>(dropped_));
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::int64_t dropped_ = 0;
};

// RAII span; a no-op when `recorder` is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, const char* category)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, category) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Arg(const char* key, std::int64_t value) {
    if (recorder_ != nullptr) recorder_->Arg(id_, key, value);
  }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace janus::e2ebench

#endif  // JANUS_E2EBENCH_SPAN_RECORDER_H_
