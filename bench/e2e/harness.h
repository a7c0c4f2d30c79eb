#ifndef UTCQ_BENCH_E2E_HARNESS_H_
#define UTCQ_BENCH_E2E_HARNESS_H_

// Shared plumbing of the end-to-end benchmark program: run options, input
// generation, latency samples, the result record, registry deltas, peak
// RSS, and the in-memory span tracer of the traced run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "network/grid_index.h"
#include "network/road_network.h"
#include "obs/metrics.h"
#include "traj/profiles.h"

namespace utcq::e2e {

/// One run's command line. Every size, rate and budget a workload uses is
/// a constant of that workload (README.md lists them); inputs derive from
/// `seed` only, never from measured speed.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced input sizes (run.py --smoke): exercises every code path in a
  /// few seconds; its numbers are not comparable with full runs.
  bool smoke = false;
  /// Traced run only: the untraced run's mean op latency and throughput on
  /// the same workload and seed, for the unattributed row of layers.json
  /// and trace.overhead_ratio.
  double ref_mean_us = 0.0;
  double ref_ops_per_s = 0.0;
  /// Archive files of the run live here (created, emptied at exit).
  std::string work_dir;
  /// trace.json and layers.json of a traced run go here.
  std::string trace_dir;
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Independent sub-seed for one input stream of a run, so adding a stream
/// never shifts the others.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// The road network of a profile plus the grid every index and query of
/// the run shares. Heap-held: the grid and every corpus borrow the network.
/// The network is the same for every seed: a different city per seed would
/// change how much work a trajectory costs, so seed-to-seed spread would
/// measure the city instead of the code.
struct City {
  traj::DatasetProfile profile;
  std::unique_ptr<network::RoadNetwork> net;
  std::unique_ptr<network::GridIndex> grid;
};

/// Grid resolution of every StIU index and of the map matcher.
inline constexpr uint32_t kGridCells = 32;
/// StIU temporal partition (Table 7 default).
inline constexpr int64_t kTimePartitionS = 1800;

City MakeCity(const traj::DatasetProfile& profile);

/// A latency distribution in microseconds, held as a log-linear histogram
/// of nanoseconds with 128 sub-buckets per power of two (bucket width
/// under 0.8% of the value). Recording never allocates after the first
/// sample and memory stays fixed however many requests a run completes,
/// so a faster server does not grow the benchmark's own footprint. The
/// count, mean, minimum and maximum are exact; a percentile is the
/// nearest-rank sample's bucket, interpolated linearly inside it and kept
/// within the observed minimum and maximum.
class Samples {
 public:
  void Add(double us, uint64_t count = 1);
  void Merge(const Samples& other);
  uint64_t size() const { return count_; }
  double Mean() const { return count_ == 0 ? 0.0 : sum_us_ / count_; }
  double Sum() const { return sum_us_; }
  double Max() const { return max_us_; }
  double Percentile(double q) const;

 private:
  static constexpr uint32_t kSubBits = 7;
  static constexpr uint32_t kSub = 1u << kSubBits;
  static constexpr uint32_t kBuckets = (64 - kSubBits + 1) * kSub;

  static uint32_t BucketOf(uint64_t ns);
  static uint64_t LowerBound(uint32_t bucket);
  static uint64_t Width(uint32_t bucket);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_us_ = 0.0;
  double min_us_ = 0.0;
  double max_us_ = 0.0;
};

/// A p99 needs this many samples behind it before it is reported.
inline constexpr size_t kMinP99Samples = 1000;

double Median(std::vector<double> v);

/// One window of a timed phase: the latencies of the operations that
/// completed in it, and its length.
struct Window {
  Samples latency;
  double seconds = 0.0;
};

/// Everything one run reports: metrics, the input fingerprint, and the
/// operation counts behind `correct` / `attempted` / `failed`.
class Result {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    /// Samples behind a percentile or mean; 0 for a count or ratio.
    uint64_t samples = 0;
  };

  void Add(std::string name, double value, std::string unit,
           uint64_t samples = 0);
  /// The median under `p50_name` (when there is any sample) and the p99
  /// under `p99_name` only with kMinP99Samples behind it.
  void AddPercentiles(const std::string& p50_name, const std::string& p99_name,
                      const Samples& s, const std::string& unit);
  /// The headline metrics every workload reports, from the windows of its
  /// timed phase and `all`, every latency of the phase. Interference from
  /// outside the process only ever slows a window down, so ops_per_s
  /// (completions per second) and op_p50_us come from the fastest window.
  /// op_p99_us is the median over the windows that can speak for a p99:
  /// those with kMinP99Samples (their p99) and those with no completion at
  /// all (a stall: the window's length, which the operation in flight
  /// lasted at least). So a stall that recurs in most windows still shows.
  /// When fewer than half the windows qualify, op_p99_us is the p99 of
  /// `all`, or its maximum, an upper bound, when `all` is too small for a
  /// p99; a slowdown then still reports a number instead of none.
  void AddHeadline(const std::vector<Window>& windows, const Samples& all);
  /// Input fingerprint entry (nproc, seed, corpus counts, raw bits, ...).
  void Fingerprint(std::string name, double value);
  /// Untraced value a traced run of the same workload reconciles against
  /// (run.py passes it back as --ref-*).
  void Reference(std::string name, double value);

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Counts `n` failed operations and records why.
  void Fail(const std::string& why, uint64_t n = 1);
  bool ok() const { return failed_ == 0; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// Value of metric `name`, or 0 when absent.
  double Get(std::string_view name) const;

  /// The one-line JSON record run.py reads.
  void Print(std::FILE* out, const RunOptions& opts) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> fingerprint_;
  std::vector<std::pair<std::string, double>> reference_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Counter growth between two registry snapshots.
uint64_t CounterDelta(const obs::RegistrySnapshot& before,
                      const obs::RegistrySnapshot& after,
                      std::string_view name);
/// The samples a histogram gained between two snapshots.
obs::HistogramSnapshot HistogramDelta(const obs::RegistrySnapshot& before,
                                      const obs::RegistrySnapshot& after,
                                      std::string_view name);
double HistogramMean(const obs::HistogramSnapshot& h);

/// Returns the heap's free pages to the kernel, then resets the kernel's
/// peak-RSS mark to the current RSS, so the peak read later covers the
/// memory live at this point plus whatever the timed phase adds, not what
/// set-up allocated and freed. False when the kernel refuses the reset;
/// the peak then also covers set-up.
bool ResetPeakRss();
/// Peak resident set size (VmHWM) in MiB.
double PeakRssMib();

/// Sum of the sizes of `paths` in bytes (missing files count 0).
uint64_t FileBytes(const std::vector<std::string>& paths);

/// In-memory span recorder of the traced run. Spans go into a buffer
/// reserved up front, so recording never allocates; at exit they are
/// written as trace.json (Chrome trace-event format, opens in Perfetto)
/// and folded per name into layers.json. A disabled tracer records
/// nothing and costs one branch per span.
///
/// Spans are recorded by the benchmark around its own calls into the
/// library's public functions; nothing inside the library is traced. A
/// child span must begin and end on its parent's thread, inside the
/// parent's interval.
class Tracer {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  Tracer(bool enabled, size_t capacity);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span; kNone when disabled or when the buffer is full (the
  /// span is then counted in dropped()).
  uint32_t Begin(const char* name, uint64_t request, uint32_t parent = kNone);
  void End(uint32_t span);

  struct Layer {
    std::string name;
    uint64_t count = 0;
    double busy_us = 0.0;
    /// Busy time minus the time covered by child spans.
    double self_us = 0.0;
  };
  /// Per span name, in first-seen order. Call after every recording
  /// thread has been joined.
  std::vector<Layer> Aggregate() const;
  uint64_t dropped() const { return dropped_.load(); }

  /// Writes at most `max_events` spans as a Chrome trace, every span name
  /// keeping an equal share sampled evenly across the run.
  bool WriteChromeTrace(const std::string& path, size_t max_events) const;

 private:
  size_t recorded() const;

  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t child_ns;
    uint64_t request;
    uint32_t parent;
    uint32_t tid;
  };

  const bool enabled_;
  const size_t capacity_;
  Span* spans_ = nullptr;
  std::atomic<size_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
  const uint64_t origin_ns_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request,
             uint32_t parent = Tracer::kNone)
      : tracer_(tracer), id_(tracer.Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const uint32_t id_;
};

/// One row of a workload's blocking path: the mean time per request a
/// layer holds the request up, in microseconds.
struct PathRow {
  std::string layer;
  double mean_us = 0.0;
  std::string source;
};

/// Writes layers.json: the blocking-path rows closed by an `unattributed`
/// row so they sum to the untraced end-to-end mean, the per-span-name
/// count / busy / self table, and every per-layer metric of `result`.
bool WriteLayersJson(const std::string& path, const RunOptions& opts,
                     const std::string& path_unit, double traced_mean_us,
                     std::vector<PathRow> rows, const Tracer& tracer,
                     const Result& result);

}  // namespace utcq::e2e

#endif  // UTCQ_BENCH_E2E_HARNESS_H_
