#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "obs/http_export.h"
#include "obs/ledger.h"
#include "obs/profile.h"

namespace janus {
namespace obs {
namespace {

constexpr std::size_t kDefaultRingCapacity = 32768;

std::atomic<std::size_t> g_ring_capacity{kDefaultRingCapacity};

std::int64_t SteadyNowRaw() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t TraceEpoch() {
  static const std::int64_t epoch = SteadyNowRaw();
  return epoch;
}

// Per-thread ring buffer. The owning thread appends under `mu` (uncontended
// except against a concurrent Collect/Reset); the registry keeps a
// shared_ptr so buffers survive thread exit and remain exportable.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> ring;
  std::size_t capacity = kDefaultRingCapacity;
  std::size_t next = 0;        // write cursor (mod capacity once full)
  std::int64_t recorded = 0;   // total events ever recorded
  std::uint32_t tid = 0;

  void Append(TraceEvent event) {
    const std::lock_guard<std::mutex> lock(mu);
    event.tid = tid;
    if (ring.size() < capacity) {
      ring.push_back(std::move(event));
    } else {
      ring[next % capacity] = std::move(event);
    }
    ++next;
    ++recorded;
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 1;
};

// Leaked intentionally: thread-local destructors and the obs exit handler
// may run during process teardown and must always find a live registry.
Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto fresh = std::make_shared<ThreadBuffer>();
    fresh->capacity =
        std::max<std::size_t>(1, g_ring_capacity.load(std::memory_order_relaxed));
    Registry& registry = GlobalRegistry();
    const std::lock_guard<std::mutex> lock(registry.mu);
    fresh->tid = registry.next_tid++;
    registry.buffers.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

// Nanosecond count rendered as microseconds with fractional digits, the
// unit Chrome's "ts"/"dur" fields expect.
void EmitMicros(std::string& out, std::int64_t ns) {
  if (ns < 0) ns = 0;
  char text[32];
  std::snprintf(text, sizeof(text), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += text;
}

}  // namespace

std::atomic<bool> Trace::enabled_{false};

void Trace::Enable() {
  TraceEpoch();  // pin the epoch before the first event
  enabled_.store(true, std::memory_order_relaxed);
  internal::sampler_armed.fetch_or(internal::kSampleForTrace,
                                   std::memory_order_relaxed);
}

void Trace::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
  internal::sampler_armed.fetch_and(~internal::kSampleForTrace,
                                    std::memory_order_relaxed);
}

std::int64_t Trace::NowNs() { return SteadyNowRaw() - TraceEpoch(); }

void Trace::RecordComplete(std::string name, const char* category,
                           std::int64_t start_ns, std::int64_t dur_ns,
                           const char* arg_key, std::int64_t arg_value,
                           std::string detail) {
  if (!Enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.category = category;
  event.phase = 'X';
  event.start_ns = start_ns;
  event.dur_ns = dur_ns;
  event.arg_key = arg_key;
  event.arg_value = arg_value;
  event.detail = std::move(detail);
  LocalBuffer().Append(std::move(event));
}

void Trace::RecordInstant(std::string name, const char* category,
                          std::string detail) {
  if (!Enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.category = category;
  event.phase = 'i';
  event.start_ns = NowNs();
  event.detail = std::move(detail);
  LocalBuffer().Append(std::move(event));
}

std::vector<TraceEvent> Trace::Collect() {
  std::vector<TraceEvent> events;
  Registry& registry = GlobalRegistry();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(registry.mu);
    buffers = registry.buffers;
  }
  for (const auto& buffer : buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mu);
    if (buffer->ring.size() < buffer->capacity) {
      events.insert(events.end(), buffer->ring.begin(), buffer->ring.end());
    } else {
      // Full ring: oldest surviving event sits at the write cursor.
      const std::size_t cursor = buffer->next % buffer->capacity;
      events.insert(events.end(), buffer->ring.begin() + cursor,
                    buffer->ring.end());
      events.insert(events.end(), buffer->ring.begin(),
                    buffer->ring.begin() + cursor);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return events;
}

void Trace::Reset() {
  Registry& registry = GlobalRegistry();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(registry.mu);
    buffers = registry.buffers;
  }
  for (const auto& buffer : buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mu);
    buffer->ring.clear();
    buffer->next = 0;
    buffer->recorded = 0;
  }
}

std::int64_t Trace::TotalRecorded() {
  std::int64_t total = 0;
  Registry& registry = GlobalRegistry();
  const std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& buffer : registry.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total += buffer->recorded;
  }
  return total;
}

std::int64_t Trace::TotalDropped() {
  std::int64_t dropped = 0;
  Registry& registry = GlobalRegistry();
  const std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& buffer : registry.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    dropped += buffer->recorded -
               static_cast<std::int64_t>(buffer->ring.size());
  }
  return dropped;
}

void Trace::SetBufferCapacityForTesting(std::size_t events) {
  g_ring_capacity.store(events == 0 ? kDefaultRingCapacity : events,
                        std::memory_order_relaxed);
}

std::string Trace::ToChromeJson() {
  const std::vector<TraceEvent> events = Collect();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(out, event.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(out, event.category);
    out += "\",\"ph\":\"";
    out += event.phase;
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(event.tid);
    out += ",\"ts\":";
    EmitMicros(out, event.start_ns);
    if (event.phase == 'X') {
      out += ",\"dur\":";
      EmitMicros(out, event.dur_ns);
    } else {
      out += ",\"s\":\"t\"";  // instant scope: thread
    }
    if (event.arg_key != nullptr || !event.detail.empty()) {
      out += ",\"args\":{";
      if (event.arg_key != nullptr) {
        out += '"';
        AppendJsonEscaped(out, event.arg_key);
        out += "\":";
        out += std::to_string(event.arg_value);
      }
      if (!event.detail.empty()) {
        if (event.arg_key != nullptr) out += ',';
        out += "\"detail\":\"";
        AppendJsonEscaped(out, event.detail);
        out += '"';
      }
      out += '}';
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

void Trace::WriteChromeTrace(const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    JANUS_LOG(kError) << "cannot open trace output file '" << path << "'";
    return;
  }
  file << ToChromeJson() << "\n";
}

namespace {

// The obs environment (trace.h), read once by ObsEnvInit below.
struct ObsEnv {
  std::string trace_path;    // JANUS_TRACE
  std::string ledger_path;   // JANUS_LEDGER
  std::string profile_path;  // JANUS_PROFILE
  bool serving = false;      // JANUS_HTTP_PORT started the server
  long linger_ms = 0;        // JANUS_HTTP_LINGER_MS
};

// Leaked: read by the exit handler after static destructors may have run.
ObsEnv& Env() {
  static ObsEnv* env = new ObsEnv();
  return *env;
}

std::string EnvString(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : "";
}

// The one exit handler. Its order is fixed here rather than by static-init
// order across translation units: scrapers get the whole linger window
// first, then the server stops, then the files are written.
void ExitHandler() {
  const ObsEnv& env = Env();
  if (env.serving) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(env.linger_ms);
    while (env.linger_ms > 0 && !HttpExportServer::QuitRequested() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    HttpExportServer::Global().Stop();
  }
  if (!env.trace_path.empty()) Trace::WriteChromeTrace(env.trace_path);
  if (!env.ledger_path.empty()) Ledger::Global().WriteJsonl(env.ledger_path);
  if (!env.profile_path.empty()) WriteFoldedStacks(env.profile_path);
}

// Applies the obs environment at static-initialization time, so any
// example or benchmark binary is observable with no code changes.
struct ObsEnvInit {
  ObsEnvInit() {
    ObsEnv& env = Env();
    env.trace_path = EnvString("JANUS_TRACE");
    env.ledger_path = EnvString("JANUS_LEDGER");
    env.profile_path = EnvString("JANUS_PROFILE");
    if (!env.trace_path.empty()) Trace::Enable();
    if (!env.ledger_path.empty()) Ledger::Enable();
    if (!env.profile_path.empty()) EnableProfiling();
    if (const std::string port = EnvString("JANUS_HTTP_PORT"); !port.empty()) {
      char* end = nullptr;
      const long parsed = std::strtol(port.c_str(), &end, 10);
      if (end == port.c_str() || parsed < 0 || parsed > 65535) {
        JANUS_LOG(kError) << "http_export: invalid JANUS_HTTP_PORT '" << port
                          << "'";
      } else if (HttpExportServer::Global().Start(static_cast<int>(parsed))) {
        env.serving = true;
        env.linger_ms =
            std::strtol(EnvString("JANUS_HTTP_LINGER_MS").c_str(), nullptr, 10);
      }
    }
    if (env.serving || !env.trace_path.empty() || !env.ledger_path.empty() ||
        !env.profile_path.empty()) {
      std::atexit(ExitHandler);
    }
  }
};
const ObsEnvInit obs_env_init;

}  // namespace
}  // namespace obs
}  // namespace janus
