#include "obs/ledger.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/logging.h"
#include "obs/trace.h"

namespace janus {
namespace obs {

std::atomic<bool> Ledger::enabled_{false};

// Per-slot seqlock cell. `version` is even when the slot is stable and odd
// while a writer (or a snapshotting reader) holds it; LedgerRecord carries
// strings, so readers copy under the same claim protocol instead of the
// classic retry-read — a skipped slot is an acceptable loss for a flight
// recorder, a torn std::string is not.
struct Ledger::Slot {
  std::atomic<std::uint64_t> version{0};
  LedgerRecord record;

  // Claims the slot (spins only on wrap collisions / concurrent snapshot).
  // The version must be re-read every iteration: an odd value short-circuits
  // the CAS, so a stale load would spin forever once another claimant is
  // observed mid-hold.
  std::uint64_t Acquire() {
    for (;;) {
      std::uint64_t v = version.load(std::memory_order_acquire);
      if ((v & 1) == 0 &&
          version.compare_exchange_weak(v, v + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
        return v + 1;
      }
    }
  }
  void Release(std::uint64_t held) {
    version.store(held + 1, std::memory_order_release);
  }
  // Non-blocking claim for snapshot readers: never stalls a writer that is
  // mid-publish; the reader just skips the slot.
  bool TryAcquire(std::uint64_t* held) {
    std::uint64_t v = version.load(std::memory_order_acquire);
    if ((v & 1) != 0) return false;
    if (!version.compare_exchange_strong(v, v + 1,
                                         std::memory_order_acquire)) {
      return false;
    }
    *held = v + 1;
    return true;
  }
};

namespace {

std::size_t EnvCapacity() {
  const char* env = std::getenv("JANUS_LEDGER_CAPACITY");
  if (env == nullptr || *env == '\0') return Ledger::kDefaultCapacity;
  char* end = nullptr;
  const long long parsed = std::strtoll(env, &end, 10);
  if (end == env || parsed <= 0) return Ledger::kDefaultCapacity;
  return static_cast<std::size_t>(parsed);
}

}  // namespace

Ledger::Ledger() { Allocate(EnvCapacity()); }

void Ledger::Allocate(std::size_t capacity) {
  capacity_ = std::bit_ceil(std::max<std::size_t>(capacity, 2));
  mask_ = capacity_ - 1;
  slots_ = std::make_unique<Slot[]>(capacity_);
  next_.store(0, std::memory_order_relaxed);
}

Ledger& Ledger::Global() {
  // Leaked: producers and the JANUS_LEDGER exit dump may run during
  // process teardown and must always find a live ring.
  static Ledger* ledger = new Ledger();
  return *ledger;
}

void Ledger::Enable() { enabled_.store(true, std::memory_order_relaxed); }
void Ledger::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void Ledger::Record(LedgerRecord record) {
  const std::int64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  record.seq = seq;
  if (record.ts_ns < 0) record.ts_ns = Trace::NowNs();
  Slot& slot = slots_[static_cast<std::size_t>(seq) & mask_];
  const std::uint64_t held = slot.Acquire();
  slot.record = std::move(record);
  slot.Release(held);
}

std::vector<LedgerRecord> Ledger::Snapshot(std::size_t max_records) const {
  const std::int64_t end = next_.load(std::memory_order_acquire);
  std::int64_t count = std::min<std::int64_t>(
      end, static_cast<std::int64_t>(capacity_));
  if (max_records > 0) {
    count = std::min<std::int64_t>(count,
                                   static_cast<std::int64_t>(max_records));
  }
  std::vector<LedgerRecord> records;
  records.reserve(static_cast<std::size_t>(count));
  for (std::int64_t seq = end - count; seq < end; ++seq) {
    Slot& slot = slots_[static_cast<std::size_t>(seq) & mask_];
    std::uint64_t held = 0;
    if (!slot.TryAcquire(&held)) continue;  // mid-write: skip, never tear
    LedgerRecord copy = slot.record;
    slot.Release(held);
    // The slot may hold a record newer than `seq` (wrapped while we
    // iterated) or older (writer claimed the ticket but has not published
    // yet); both would break the oldest-first ordering contract.
    if (copy.seq == seq) records.push_back(std::move(copy));
  }
  return records;
}

std::int64_t Ledger::TotalRecorded() const {
  return next_.load(std::memory_order_relaxed);
}

std::int64_t Ledger::TotalDropped() const {
  const std::int64_t recorded = TotalRecorded();
  const auto capacity = static_cast<std::int64_t>(capacity_);
  return recorded > capacity ? recorded - capacity : 0;
}

void Ledger::Reset() { Allocate(capacity_); }

void Ledger::SetCapacityForTesting(std::size_t capacity) {
  Allocate(capacity == 0 ? EnvCapacity() : capacity);
}

void AppendJsonEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += hex;
        } else {
          out += c;
        }
    }
  }
}

std::string PointerToHex(const void* pointer) {
  char text[32];
  std::snprintf(text, sizeof(text), "0x%llx",
                static_cast<unsigned long long>(
                    reinterpret_cast<std::uintptr_t>(pointer)));
  return text;
}

namespace {

void AppendStringField(std::string& out, const char* key,
                       std::string_view value, bool* first) {
  if (value.empty()) return;
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;
  out += "\":\"";
  AppendJsonEscaped(out, value);
  out += '"';
}

void AppendIntField(std::string& out, const char* key, std::int64_t value,
                    bool* first, bool always = false) {
  if (value < 0 && !always) return;
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
}

}  // namespace

std::string Ledger::ToJsonLine(const LedgerRecord& record) {
  std::string out = "{";
  bool first = true;
  AppendIntField(out, "seq", record.seq, &first, /*always=*/true);
  AppendIntField(out, "ts_ns", record.ts_ns, &first, /*always=*/true);
  AppendStringField(out, "kind", record.kind, &first);
  AppendStringField(out, "unit", record.unit, &first);
  AppendStringField(out, "name", record.name, &first);
  if (record.variant != 0) {
    out += ",\"variant\":\"";
    out += std::to_string(record.variant);
    out += '"';
  }
  AppendIntField(out, "level", record.level, &first);
  AppendIntField(out, "cache_hit", record.cache_hit, &first);
  AppendStringField(out, "assumption", record.assumption, &first);
  AppendStringField(out, "assumed", record.assumed, &first);
  AppendStringField(out, "observed", record.observed, &first);
  AppendIntField(out, "validate_ns", record.validate_ns, &first);
  AppendIntField(out, "execute_ns", record.execute_ns, &first);
  AppendIntField(out, "generate_ns", record.generate_ns, &first);
  AppendIntField(out, "ops", record.ops, &first);
  AppendIntField(out, "bytes", record.bytes, &first);
  AppendIntField(out, "fused_regions", record.fused_regions, &first);
  AppendIntField(out, "fused_ops", record.fused_ops, &first);
  AppendStringField(out, "detail", record.detail, &first);
  out += '}';
  return out;
}

std::string Ledger::ToJsonl(std::size_t max_records) const {
  std::string out;
  for (const LedgerRecord& record : Snapshot(max_records)) {
    out += ToJsonLine(record);
    out += '\n';
  }
  return out;
}

bool Ledger::WriteJsonl(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    JANUS_LOG(kError) << "cannot open ledger output file '" << path << "'";
    return false;
  }
  file << ToJsonl();
  return file.good();
}

}  // namespace obs
}  // namespace janus
