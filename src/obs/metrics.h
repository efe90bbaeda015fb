// Lock-cheap named metrics: counters, gauges, and histograms in a registry
// that snapshots by name.
//
// Hot paths (scanner batches, frame loops, spill writers) increment
// Counter/Gauge objects they looked up once; increments are relaxed atomic
// adds on per-thread stripes (cache-line padded, thread id hashed to a
// stripe), so concurrent writers never share a cache line and never take a
// lock. Reads (Snapshot) sum the stripes — snapshots are rare (end of run,
// a heartbeat tick, a telemetry pull) so they can afford to be the slow
// side.
//
// The registry never deletes a metric: GetCounter/GetGauge/GetHistogram
// return stable pointers for the registry's lifetime, so call sites may
// cache them (including across ResetValues, which zeroes values but keeps
// registrations). One process-global registry (MetricsRegistry::Global())
// serves the pipeline; a ShardWorkerServer owns a private registry per
// server so in-process fleets in tests stay isolated per worker.
#ifndef PPA_OBS_METRICS_H_
#define PPA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ppa {
namespace obs {

namespace internal {

/// Stripe index for the calling thread (dense thread counter mod stripes).
size_t ThreadStripe();

constexpr size_t kStripes = 16;

struct alignas(64) StripedCell {
  std::atomic<uint64_t> value{0};
};

}  // namespace internal

/// Monotonic counter. Add is one relaxed fetch_add on this thread's stripe.
class Counter {
 public:
  void Add(uint64_t delta) {
    cells_[internal::ThreadStripe()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const auto& cell : cells_) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void Reset() {
    for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  internal::StripedCell cells_[internal::kStripes];
};

/// Last-writer-wins level (resident bytes, queue depth). Not striped:
/// gauges are set from accounting code that already serializes updates.
class Gauge {
 public:
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if it is higher (peak tracking).
  void SetMax(uint64_t v) {
    uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Power-of-two-bucket histogram: Observe(v) lands in bucket bit_width(v),
/// so bucket b counts values in [2^(b-1), 2^b). Observes are relaxed atomic
/// adds (shared array, not striped — histograms record per-batch/per-wait
/// quantities, orders of magnitude rarer than counter bumps).
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;  // bit_width of uint64 is 0..64

  void Observe(uint64_t v) {
    size_t b = 0;
    for (uint64_t x = v; x != 0; x >>= 1) ++b;
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Upper bound (2^b - 1) of the bucket holding the p-quantile, p in
  /// [0, 1]. 0 when empty — a scale read, not an exact order statistic.
  uint64_t Quantile(double p) const;

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

enum class MetricKind : uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,  // expanded into .count/.sum/.p50/.p99 scalar samples
};

/// One scalar sample of a snapshot.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t value = 0;
};

/// One remote (or foreign) registry snapshot, e.g. pulled from a shard
/// worker over the wire.
struct TelemetrySnapshot {
  std::string source;  // endpoint spec, or a local label
  std::vector<MetricValue> metrics;

  /// Value of `name`; `fallback` when absent.
  uint64_t Get(const std::string& name, uint64_t fallback = 0) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the pipeline publishes into.
  static MetricsRegistry& Global();

  /// Find-or-create. Stable pointers; a name keeps its first kind (asking
  /// for a different kind under the same name is a programmer error and
  /// aborts).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Zeroes every value, keeping registrations (and pointers) intact. The
  /// CLI calls this at the start of a run so repeated in-process runs
  /// (tests) never leak counts across runs.
  void ResetValues();

  /// Name-sorted scalar samples. Histograms expand to `<name>.count`,
  /// `<name>.sum`, `<name>.p50`, `<name>.p99`.
  std::vector<MetricValue> Snapshot() const;

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;           // guards the map, not the cells
  std::map<std::string, Entry> metrics_;
};

/// Wire form of a snapshot (the kMetricsSnapshot body): varint count, then
/// per metric varint(name length) + name + kind byte + varint(value).
void EncodeTelemetry(const std::vector<MetricValue>& metrics,
                     std::vector<uint8_t>* out);
bool DecodeTelemetry(const uint8_t* data, size_t size,
                     std::vector<MetricValue>* out, std::string* error);

}  // namespace obs
}  // namespace ppa

#endif  // PPA_OBS_METRICS_H_
