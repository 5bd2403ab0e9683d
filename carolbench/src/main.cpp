// carol_bench: end-to-end + per-layer benchmark of the CAROL decision
// service.
//
//   carol_bench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//               [--smoke] [--label TEXT] [--out DIR]
//
// Without --workload every workload runs, each in its own child process
// (so peak_rss_mb is per workload). Each workload prints its metrics
// with units and sample counts, writes a results JSON (with a machine
// header) under --out, and ends its standard output with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace the per-layer ones
// (traced runs also write trace_<results stem>.jsonl). Exit status is 0 only
// when every correctness check passed.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <thread>

#include "bench.h"

extern char** environ;

namespace carolbench {
namespace {

const char* const kWorkloads[] = {"serve-h16", "serve-h128", "soak-h16-adapt",
                                  "fleet-h4096"};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return out.str();
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics,
                        bool with_samples) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "" : ", ") + JsonString(name) +
           ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
    first = false;
  }
  return out + "}";
}

std::string Isa() {
  std::string isa;
#ifdef __AVX2__
  isa += "avx2 ";
#endif
#ifdef __FMA__
  isa += "fma ";
#endif
#ifdef __AVX512F__
  isa += "avx512f ";
#endif
  return isa.empty() ? "baseline" : isa.substr(0, isa.size() - 1);
}

void WriteResults(const Options& options, const Report& report,
                  double wall_s, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  out << "{\n  \"header\": {\"label\": " << JsonString(options.label)
      << ", \"workload\": " << JsonString(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << JsonNumber(options.seconds)
      << ", \"trace\": " << (options.trace ? "true" : "false")
      << ", \"smoke\": " << (options.smoke ? "true" : "false")
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << JsonString(__VERSION__)
      << ", \"isa\": " << JsonString(Isa())
      << ", \"ndebug\": " << (ndebug ? "true" : "false")
      << ", \"wall_s\": " << JsonNumber(wall_s) << "},\n";
  out << "  \"facts\": {";
  bool first = true;
  for (const auto& [k, v] : report.facts) {
    out << (first ? "" : ", ") << JsonString(k) << ": " << JsonString(v);
    first = false;
  }
  out << "},\n  \"correct\": " << (report.correct() ? "true" : "false")
      << ",\n  \"failures\": {";
  first = true;
  for (const auto& [what, count] : report.failures) {
    out << (first ? "" : ", ") << JsonString(what) << ": " << count;
    first = false;
  }
  out << "},\n  \"attempted\": " << report.attempted
      << ",\n  \"failed\": " << report.failed
      << ",\n  \"quality\": " << MetricsJson(report.quality, true)
      << ",\n  \"end_to_end\": " << MetricsJson(report.end_to_end, true)
      << ",\n  \"per_layer\": " << MetricsJson(report.layers, true) << "\n}\n";
  if (!out) throw std::runtime_error("write failed: " + path);
}

void PrintMetrics(const char* title, const std::map<std::string, Metric>& m) {
  if (m.empty()) return;
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("  %-38s %14.6g %-6s n=%llu\n", name.c_str(), metric.value,
                metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples));
  }
}

int RunWorkload(const Options& options) {
  const Clock::time_point start = Clock::now();
  Report report;
  SpanLog spans(options.trace);
  try {
    if (options.workload.rfind("serve-", 0) == 0) {
      RunServe(options, report, spans);
    } else if (options.workload == "soak-h16-adapt") {
      RunSoak(options, report, spans);
    } else if (options.workload == "fleet-h4096") {
      RunFleet(options, report, spans);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    report.Check(false, std::string("workload threw: ") + e.what());
  }
  std::filesystem::create_directories(options.out_dir);
  const std::string stem = options.workload + "-s" +
                           std::to_string(options.seed) +
                           (options.trace ? "-trace-" : "-") +
                           std::to_string(getpid());
  if (options.trace) {
    report.Layer("obs.spans", static_cast<double>(spans.size()), "count", 1);
    spans.WriteJsonl(options.out_dir + "/trace_" + stem + ".jsonl");
  }
  const double wall_s = Seconds(Clock::now() - start);
  WriteResults(options, report, wall_s, options.out_dir + "/" + stem + ".json");

  std::printf("== %s (seed %llu, %.1f s%s%s)\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), wall_s,
              options.trace ? ", traced" : "", options.smoke ? ", smoke" : "");
  PrintMetrics("end-to-end:", report.end_to_end);
  PrintMetrics("per-layer:", report.layers);
  PrintMetrics("quality:", report.quality);
  for (const auto& [k, v] : report.facts) {
    std::printf("  %s: %s\n", k.c_str(), v.c_str());
  }
  std::printf("requests: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const auto& [what, count] : report.failures) {
    std::printf("CHECK FAILED (%llux): %s\n",
                static_cast<unsigned long long>(count), what.c_str());
  }
  std::printf("results: %s/%s.json\n", options.out_dir.c_str(), stem.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(options.trace ? report.layers : report.end_to_end,
                          false)
                  .c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

// Every workload in its own child process, one after another.
int RunAll(int argc, char** argv) {
  int worst = 0;
  for (const char* workload : kWorkloads) {
    std::vector<std::string> args(argv, argv + argc);
    args.push_back("--workload");
    args.push_back(workload);
    std::vector<char*> cargs;
    for (std::string& a : args) cargs.push_back(a.data());
    cargs.push_back(nullptr);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, cargs.data(),
                    environ) != 0) {
      std::perror("posix_spawn");
      return 2;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR) {
        std::perror("waitpid");
        return 2;
      }
    }
    const int code =
        WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    std::printf("== %s exited with %d\n\n", workload, code);
    std::fflush(stdout);
    worst = std::max(worst, code);
  }
  return worst;
}

void Usage() {
  std::fprintf(stderr,
               "usage: carol_bench [--workload NAME] [--seed N] "
               "[--seconds S] [--trace [0|1]] [--smoke] [--label TEXT] "
               "[--out DIR]\nworkloads: serve-h16 serve-h128 "
               "soak-h16-adapt fleet-h4096\n");
}

}  // namespace
}  // namespace carolbench

int main(int argc, char** argv) {
  using namespace carolbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = true;
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0)) {
        options.trace = std::strcmp(argv[++i], "1") == 0;
      }
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--label") {
      options.label = value();
    } else if (arg == "--out") {
      options.out_dir = value();
    } else {
      Usage();
      return 2;
    }
  }
  if (options.smoke) options.seconds = 2.0;
  if (!(options.seconds > 0.0)) {
    Usage();
    return 2;
  }
  if (options.workload.empty()) return RunAll(argc, argv);
  return RunWorkload(options);
}
