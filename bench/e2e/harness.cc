#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common/rng.h"
#include "network/generator.h"

namespace utcq::e2e {

namespace {

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Every digit of a double; JSON has no NaN or infinity, so those print as
/// null (run.py rejects them).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsObject(const std::vector<Result::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Result::Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return common::SplitMix64(seed * 0x100000001B3ull + stream);
}

City MakeCity(const traj::DatasetProfile& profile) {
  City city;
  city.profile = profile;
  common::Rng rng(100);
  city.net = std::make_unique<network::RoadNetwork>(
      network::GenerateCity(rng, profile.city));
  city.grid = std::make_unique<network::GridIndex>(*city.net, kGridCells);
  return city;
}

uint32_t Samples::BucketOf(uint64_t ns) {
  if (ns < 2 * kSub) return static_cast<uint32_t>(ns);
  const uint32_t log = 63 - static_cast<uint32_t>(std::countl_zero(ns));
  const uint32_t sub =
      static_cast<uint32_t>((ns >> (log - kSubBits)) - kSub);
  return (log - kSubBits + 1) * kSub + sub;
}

uint64_t Samples::LowerBound(uint32_t bucket) {
  if (bucket < 2 * kSub) return bucket;
  const uint32_t log = bucket / kSub + kSubBits - 1;
  const uint64_t sub = bucket % kSub;
  return (uint64_t{1} << log) + (sub << (log - kSubBits));
}

uint64_t Samples::Width(uint32_t bucket) {
  if (bucket < 2 * kSub) return 1;
  return uint64_t{1} << (bucket / kSub - 1);
}

void Samples::Add(double us, uint64_t count) {
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  const double ns = std::max(0.0, us * 1e3);
  buckets_[BucketOf(static_cast<uint64_t>(std::llround(ns)))] += count;
  min_us_ = count_ == 0 ? us : std::min(min_us_, us);
  max_us_ = count_ == 0 ? us : std::max(max_us_, us);
  count_ += count;
  sum_us_ += us * static_cast<double>(count);
}

void Samples::Merge(const Samples& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  for (uint32_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  min_us_ = count_ == 0 ? other.min_us_ : std::min(min_us_, other.min_us_);
  max_us_ = count_ == 0 ? other.max_us_ : std::max(max_us_, other.max_us_);
  count_ += other.count_;
  sum_us_ += other.sum_us_;
}

double Samples::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  uint64_t below = 0;
  for (uint32_t i = 0; i < kBuckets; ++i) {
    const uint64_t c = buckets_[i];
    if (c == 0) continue;
    if (below + c >= rank) {
      const double frac =
          (static_cast<double>(rank - below) - 0.5) / static_cast<double>(c);
      const double us = (static_cast<double>(LowerBound(i)) +
                         frac * static_cast<double>(Width(i))) /
                        1e3;
      return std::clamp(us, min_us_, max_us_);
    }
    below += c;
  }
  return max_us_;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Result::AddHeadline(const std::vector<Window>& windows,
                         const Samples& all) {
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;
  uint64_t total = 0;
  uint64_t behind_p99 = 0;
  for (const Window& w : windows) {
    if (w.seconds <= 0.0) continue;
    const uint64_t n = w.latency.size();
    rate.push_back(static_cast<double>(n) / w.seconds);
    total += n;
    if (n == 0) {
      p99.push_back(w.seconds * 1e6);  // a stall
      continue;
    }
    p50.push_back(w.latency.Percentile(0.50));
    if (n >= kMinP99Samples) {
      p99.push_back(w.latency.Percentile(0.99));
      behind_p99 += n;
    }
  }
  if (rate.empty()) return;
  Add("ops_per_s", *std::max_element(rate.begin(), rate.end()), "1/s", total);
  if (!p50.empty()) {
    Add("op_p50_us", *std::min_element(p50.begin(), p50.end()), "us", total);
  }
  if (2 * p99.size() >= rate.size()) {
    Add("op_p99_us", Median(p99), "us", behind_p99);
  } else if (all.size() >= kMinP99Samples) {
    Add("op_p99_us", all.Percentile(0.99), "us", all.size());
  } else if (all.size() > 0) {
    Add("op_p99_us", all.Max(), "us", all.size());
  }
}

void Result::Add(std::string name, double value, std::string unit,
                 uint64_t samples) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void Result::AddPercentiles(const std::string& p50_name,
                            const std::string& p99_name, const Samples& s,
                            const std::string& unit) {
  if (s.size() == 0) return;
  Add(p50_name, s.Percentile(0.50), unit, s.size());
  if (s.size() >= kMinP99Samples) {
    Add(p99_name, s.Percentile(0.99), unit, s.size());
  }
}

void Result::Fingerprint(std::string name, double value) {
  fingerprint_.emplace_back(std::move(name), value);
}

void Result::Reference(std::string name, double value) {
  reference_.emplace_back(std::move(name), value);
}

void Result::Fail(const std::string& why, uint64_t n) {
  failed_ += n;
  if (failures_.size() < 32) failures_.push_back(why);
}

double Result::Get(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void Result::Print(std::FILE* out, const RunOptions& opts) const {
  std::string line = "{\"workload\": " + JsonString(opts.workload) +
                     ", \"seed\": " + std::to_string(opts.seed) +
                     ", \"trace\": " + (opts.trace ? "true" : "false") +
                     ", \"smoke\": " + (opts.smoke ? "true" : "false") +
                     ", \"correct\": " + (ok() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) line += ", ";
    line += JsonString(failures_[i]);
  }
  const auto object = [](const std::vector<std::pair<std::string, double>>& kv) {
    std::string out = "{";
    for (size_t i = 0; i < kv.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(kv[i].first) + ": " + JsonNumber(kv[i].second);
    }
    return out + "}";
  };
  line += "], \"fingerprint\": " + object(fingerprint_) +
          ", \"reference\": " + object(reference_) +
          ", \"metrics\": " + MetricsObject(metrics_) + "}";
  std::fprintf(out, "%s\n", line.c_str());
  std::fflush(out);
}

uint64_t CounterDelta(const obs::RegistrySnapshot& before,
                      const obs::RegistrySnapshot& after,
                      std::string_view name) {
  const auto value = [name](const obs::RegistrySnapshot& s) -> uint64_t {
    for (const auto& [n, v] : s.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  return value(after) - value(before);
}

obs::HistogramSnapshot HistogramDelta(const obs::RegistrySnapshot& before,
                                      const obs::RegistrySnapshot& after,
                                      std::string_view name) {
  const auto find = [name](const obs::RegistrySnapshot& s) {
    for (const auto& [n, h] : s.histograms) {
      if (n == name) return h;
    }
    return obs::HistogramSnapshot{};
  };
  const obs::HistogramSnapshot a = find(after);
  const obs::HistogramSnapshot b = find(before);
  std::map<uint32_t, int64_t> counts;
  for (const auto& [idx, c] : a.buckets) counts[idx] += static_cast<int64_t>(c);
  for (const auto& [idx, c] : b.buckets) counts[idx] -= static_cast<int64_t>(c);
  obs::HistogramSnapshot out;
  for (const auto& [idx, c] : counts) {
    if (c <= 0) continue;
    out.buckets.emplace_back(idx, static_cast<uint64_t>(c));
    out.count += static_cast<uint64_t>(c);
  }
  out.sum = out.count == 0 || a.sum < b.sum ? 0 : a.sum - b.sum;
  return out;
}

double HistogramMean(const obs::HistogramSnapshot& h) {
  return h.count == 0 ? 0.0
                      : static_cast<double>(h.sum) / static_cast<double>(h.count);
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t FileBytes(const std::vector<std::string>& paths) {
  uint64_t total = 0;
  for (const std::string& p : paths) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(p, ec);
    if (!ec) total += size;
  }
  return total;
}

// ------------------------------------------------------------------ Tracer

Tracer::Tracer(bool enabled, size_t capacity)
    : enabled_(enabled), capacity_(enabled ? capacity : 0), origin_ns_(NowNs()) {
  if (capacity_ > 0) {
    // Untouched pages cost no memory: only spans actually written are
    // resident.
    spans_ = static_cast<Span*>(std::malloc(capacity_ * sizeof(Span)));
  }
}

Tracer::~Tracer() { std::free(spans_); }

uint32_t Tracer::Begin(const char* name, uint64_t request, uint32_t parent) {
  if (!enabled_) return kNone;
  const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= capacity_ || spans_ == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return kNone;
  }
  spans_[i] = {name, NowNs(), 0, 0, request, parent, ThreadIndex()};
  return static_cast<uint32_t>(i);
}

void Tracer::End(uint32_t span) {
  if (span == kNone) return;
  Span& s = spans_[span];
  s.end_ns = NowNs();
  if (s.parent != kNone) spans_[s.parent].child_ns += s.end_ns - s.start_ns;
}

size_t Tracer::recorded() const {
  return std::min(next_.load(), capacity_);
}

std::vector<Tracer::Layer> Tracer::Aggregate() const {
  std::vector<Layer> layers;
  std::map<std::string, size_t, std::less<>> index;
  for (size_t i = 0; i < recorded(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;  // never closed
    auto it = index.find(std::string_view(s.name));
    if (it == index.end()) {
      it = index.emplace(s.name, layers.size()).first;
      layers.push_back({s.name, 0, 0.0, 0.0});
    }
    Layer& l = layers[it->second];
    const double busy = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    ++l.count;
    l.busy_us += busy;
    l.self_us += busy - static_cast<double>(s.child_ns) / 1e3;
  }
  return layers;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              size_t max_events) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // An equal share per name: a layer with few spans is never crowded out
  // by the per-request ones.
  const std::vector<Layer> layers = Aggregate();
  const size_t per_name =
      std::max<size_t>(1, max_events / std::max<size_t>(1, layers.size()));
  std::map<std::string, std::pair<uint64_t, uint64_t>, std::less<>> stride;
  for (const Layer& l : layers) {
    stride[l.name] = {std::max<uint64_t>(1, (l.count + per_name - 1) / per_name),
                      0};
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  size_t written = 0;
  for (size_t i = 0; i < recorded(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;
    auto& [every, seen] = stride.find(std::string_view(s.name))->second;
    if (seen++ % every != 0) continue;
    const std::string_view name(s.name);
    const std::string cat(name.substr(0, name.find('.')));
    std::fprintf(f,
                 "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": "
                 "{\"request\": %llu, \"span\": %zu, \"parent\": %lld}}",
                 written == 0 ? "" : ",\n", JsonString(name).c_str(),
                 JsonString(cat).c_str(),
                 static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                 static_cast<unsigned long long>(s.request), i,
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent));
    ++written;
  }
  std::fprintf(f,
               "\n], \"otherData\": {\"spans_recorded\": %zu, "
               "\"spans_written\": %zu, \"spans_dropped\": %llu}}\n",
               recorded(), written,
               static_cast<unsigned long long>(dropped()));
  return std::fclose(f) == 0;
}

bool WriteLayersJson(const std::string& path, const RunOptions& opts,
                     const std::string& path_unit, double traced_mean_us,
                     std::vector<PathRow> rows, const Tracer& tracer,
                     const Result& result) {
  // The rows reconcile against the untraced run's mean when run.py passed
  // it; a bare traced run reconciles against its own.
  const double e2e = opts.ref_mean_us > 0.0 ? opts.ref_mean_us : traced_mean_us;
  double attributed = 0.0;
  for (const PathRow& r : rows) attributed += r.mean_us;
  rows.push_back({"unattributed", e2e - attributed,
                  "end-to-end mean minus the rows above"});
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n",
               JsonString(opts.workload).c_str(),
               static_cast<unsigned long long>(opts.seed));
  std::fprintf(f, "  \"seconds\": %s,\n  \"nproc\": %u,\n",
               JsonNumber(opts.seconds).c_str(),
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"path_unit\": %s,\n", JsonString(path_unit).c_str());
  std::fprintf(f, "  \"end_to_end_mean_us\": %s,\n", JsonNumber(e2e).c_str());
  std::fprintf(f, "  \"end_to_end_source\": %s,\n",
               JsonString(opts.ref_mean_us > 0.0 ? "untraced run"
                                                 : "this traced run")
                   .c_str());
  std::fprintf(f, "  \"traced_mean_us\": %s,\n",
               JsonNumber(traced_mean_us).c_str());
  std::fprintf(f, "  \"blocking_path\": [\n");
  double sum = 0.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    sum += rows[i].mean_us;
    std::fprintf(f, "    {\"layer\": %s, \"mean_us\": %s, \"source\": %s}%s\n",
                 JsonString(rows[i].layer).c_str(),
                 JsonNumber(rows[i].mean_us).c_str(),
                 JsonString(rows[i].source).c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"blocking_path_sum_us\": %s,\n",
               JsonNumber(sum).c_str());
  std::fprintf(f, "  \"spans\": [\n");
  const std::vector<Tracer::Layer> layers = tracer.Aggregate();
  for (size_t i = 0; i < layers.size(); ++i) {
    const Tracer::Layer& l = layers[i];
    std::fprintf(f,
                 "    {\"name\": %s, \"count\": %llu, \"busy_us\": %s, "
                 "\"self_us\": %s, \"mean_us\": %s}%s\n",
                 JsonString(l.name).c_str(),
                 static_cast<unsigned long long>(l.count),
                 JsonNumber(l.busy_us).c_str(), JsonNumber(l.self_us).c_str(),
                 JsonNumber(l.count == 0 ? 0.0 : l.busy_us / l.count).c_str(),
                 i + 1 < layers.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"spans_dropped\": %llu,\n",
               static_cast<unsigned long long>(tracer.dropped()));
  std::fprintf(f, "  \"metrics\": %s\n}\n",
               MetricsObject(result.metrics()).c_str());
  return std::fclose(f) == 0;
}

}  // namespace utcq::e2e
