// utcq_bench: the end-to-end benchmark program. One process runs one
// workload on inputs generated from --seed, times it for --seconds, checks
// its answers, and prints one JSON record as the last line of stdout.
//
//   utcq_bench --workload=<build|serve_point|serve_range>
//              --work-dir=<dir> [--seed=N] [--seconds=S] [--smoke]
//              [--trace --trace-dir=<dir> --ref-mean-us=X --ref-ops-per-s=Y]
//
// Exit status: 0 when every gate passed, 1 when any failed, 2 on a bad
// command line. run.py builds utcq_bench and is the usual entry point.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace {

using utcq::e2e::RunOptions;

int Usage(const char* why) {
  std::fprintf(stderr,
               "utcq_bench: %s\nusage: utcq_bench --workload=<build|"
               "serve_point|serve_range> --work-dir=<dir> "
               "[--seed=N] [--seconds=S] [--smoke] "
               "[--trace --trace-dir=<dir> --ref-mean-us=X "
               "--ref-ops-per-s=Y]\n",
               why);
  return 2;
}

bool Parse(int argc, char** argv, RunOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const size_t eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string value(eq == std::string_view::npos ? ""
                                                         : arg.substr(eq + 1));
    char* end = nullptr;
    if (key == "--workload") {
      opts->workload = value;
    } else if (key == "--seed") {
      opts->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      opts->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--ref-mean-us") {
      opts->ref_mean_us = std::strtod(value.c_str(), &end);
    } else if (key == "--ref-ops-per-s") {
      opts->ref_ops_per_s = std::strtod(value.c_str(), &end);
    } else if (key == "--work-dir") {
      opts->work_dir = value;
    } else if (key == "--trace-dir") {
      opts->trace_dir = value;
    } else if (arg == "--trace") {
      opts->trace = true;
    } else if (arg == "--smoke") {
      opts->smoke = true;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  if (!Parse(argc, argv, &opts)) return Usage("bad argument");
  if (opts.work_dir.empty()) return Usage("--work-dir is required");
  if (opts.trace && opts.trace_dir.empty()) {
    return Usage("--trace needs --trace-dir");
  }
  if (!(opts.seconds > 0.0)) return Usage("--seconds must be positive");
  void (*run)(const RunOptions&, utcq::e2e::Result&) = nullptr;
  if (opts.workload == "build") {
    run = utcq::e2e::RunBuild;
  } else if (opts.workload == "serve_point" || opts.workload == "serve_range") {
    run = utcq::e2e::RunServe;
  } else {
    return Usage("unknown workload");
  }

  std::error_code ec;
  std::filesystem::remove_all(opts.work_dir, ec);
  std::filesystem::create_directories(opts.work_dir, ec);
  if (ec) return Usage("cannot create --work-dir");
  if (opts.trace) std::filesystem::create_directories(opts.trace_dir, ec);
  if (ec) return Usage("cannot create --trace-dir");

  utcq::e2e::Result result;
  result.Fingerprint("nproc", std::thread::hardware_concurrency());
  result.Fingerprint("seed", static_cast<double>(opts.seed));
  run(opts, result);
  std::filesystem::remove_all(opts.work_dir, ec);
  result.Print(stdout, opts);
  return result.ok() ? 0 : 1;
}
