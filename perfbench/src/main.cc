// sgr_perfbench: runs one benchmark workload and prints its metrics.
//
//   sgr_perfbench --workload NAME --seed N --seconds N --trace 0|1
//                 --out-dir DIR [--revision R] [--dirty D] [--source-digest H]
//
// --trace 0 prints the end-to-end metrics of a timed run;
// --trace 1 prints the per-layer metrics of a traced run. Either way the
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the full record, stamped with its provenance, and the spans
// of a traced run are written under --out-dir. Normally started through
// perfbench/run.py, which builds this program first.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Strict unsigned decimal: digits only (no sign, space or suffix), no
/// overflow, and within [lo, hi].
std::uint64_t ParseUint(const std::string& flag, const std::string& text,
                        std::uint64_t lo, std::uint64_t hi) {
  if (text.empty() || text.size() > 20) {
    throw std::invalid_argument(flag + ": expected a decimal number, got '" +
                                text + "'");
  }
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument(flag + ": expected a decimal number, got '" +
                                  text + "'");
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw std::invalid_argument(flag + ": '" + text + "' overflows");
    }
    value = value * 10 + digit;
  }
  if (value < lo || value > hi) {
    throw std::invalid_argument(flag + ": " + text + " is outside [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  }
  return value;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string out_dir;
  Provenance provenance;
};

Args ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
    if (!flags.emplace(flag, argv[i + 1]).second) {
      throw std::invalid_argument(flag + ": given twice");
    }
  }
  Args args;
  auto take = [&](const std::string& flag, bool required) {
    auto it = flags.find(flag);
    if (it == flags.end()) {
      if (required) throw std::invalid_argument(flag + ": required");
      return std::string();
    }
    std::string value = it->second;
    flags.erase(it);
    return value;
  };
  args.workload = take("--workload", true);
  if (FindWorkload(args.workload) == nullptr) {
    throw std::invalid_argument("--workload: unknown workload '" +
                                args.workload + "'");
  }
  args.seed = ParseUint("--seed", take("--seed", true), 0,
                        std::numeric_limits<std::uint64_t>::max());
  args.seconds = static_cast<int>(
      ParseUint("--seconds", take("--seconds", true), 1, 3600));
  args.trace = ParseUint("--trace", take("--trace", true), 0, 1) == 1;
  args.out_dir = take("--out-dir", true);
  auto optional = [&](const std::string& flag, std::string& field) {
    const std::string value = take(flag, false);
    if (!value.empty()) field = value;
  };
  optional("--revision", args.provenance.revision);
  optional("--dirty", args.provenance.dirty);
  optional("--source-digest", args.provenance.source_digest);
  if (!flags.empty()) {
    throw std::invalid_argument("unknown flag " + flags.begin()->first);
  }
  args.provenance.workload = args.workload;
  args.provenance.seed = args.seed;
  return args;
}

void WriteJson(const sgr::Json& doc, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << doc.Dump(2) << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

int Main(int argc, char** argv) {
  Args args;
  try {
    args = ParseArgs(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "sgr_perfbench: %s\n", e.what());
    return 2;
  }
  const WorkloadDef& def = *FindWorkload(args.workload);
  std::printf("workload %s: %s\n", def.name.c_str(), def.why.c_str());
  std::fflush(stdout);

  SpanLog log;
  RunOutcome outcome =
      args.trace
          ? RunTraced(def, args.seed, args.out_dir, args.provenance, log)
          : RunTimed(def, args.seed, args.seconds, args.out_dir,
                     args.provenance);
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;

  sgr::Json metrics = sgr::Json::Object();
  sgr::Json record_metrics = sgr::Json::Object();
  for (const Metric& metric : outcome.metrics.items()) {
    std::printf("metric %-32s %.9g %s  (n=%zu%s%s)\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(), metric.samples,
                metric.note.empty() ? "" : "; ", metric.note.c_str());
    sgr::Json value = sgr::Json::Object();
    value.Set("value", sgr::Json::Number(metric.value));
    value.Set("unit", sgr::Json::String(metric.unit));
    metrics.Set(metric.name, value);
    value.Set("samples",
              sgr::Json::Number(static_cast<double>(metric.samples)));
    value.Set("note", sgr::Json::String(metric.note));
    record_metrics.Set(metric.name, std::move(value));
  }
  for (const std::string& failure : outcome.failures) {
    std::printf("FAILED %s\n", failure.c_str());
  }
  const sgr::Json provenance = args.provenance.ToJson();
  std::printf("provenance %s\n", provenance.Dump(0).c_str());

  const std::string stem = args.out_dir + "/" + def.name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  sgr::Json record = sgr::Json::Object();
  record.Set("provenance", provenance);
  record.Set("correct", sgr::Json::Bool(correct));
  record.Set("attempted",
             sgr::Json::Number(static_cast<double>(outcome.attempted)));
  record.Set("failed", sgr::Json::Number(static_cast<double>(outcome.failed)));
  sgr::Json failures = sgr::Json::Array();
  for (const std::string& f : outcome.failures) {
    failures.Push(sgr::Json::String(f));
  }
  record.Set("failures", std::move(failures));
  record.Set("metrics", std::move(record_metrics));
  record.Set("details", outcome.details);
  WriteJson(record, stem + ".json");
  if (args.trace) WriteJson(log.ToChromeTrace(), stem + ".spans.json");

  sgr::Json result = sgr::Json::Object();
  result.Set("correct", sgr::Json::Bool(correct));
  result.Set("attempted",
             sgr::Json::Number(static_cast<double>(outcome.attempted)));
  result.Set("failed", sgr::Json::Number(static_cast<double>(outcome.failed)));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump(0).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sgr_perfbench: %s\n", e.what());
    return 1;
  }
}
