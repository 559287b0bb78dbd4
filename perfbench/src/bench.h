// Shared pieces of the sgr performance benchmark: sample statistics, the
// benchmark's own span log, metric records, resource probes and the
// provenance stamp. The benchmark only calls the library's public
// functions; nothing here reaches into src/ internals.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start` on the steady clock.
double SecondsSince(Clock::time_point start);

/// Whose CPU time a CpuSeconds reading counts.
enum class CpuClock {
  kProcess,  ///< every thread of the process (multi-threaded calls)
  kThread,   ///< the calling thread (a call that stays on one thread)
};

/// CPU seconds consumed so far on `clock`. Unlike wall time this leaves
/// out time the host schedules other guests on our vCPUs (steal), which
/// on shared machines varies by more than any bound a gate could use.
double CpuSeconds(CpuClock clock);

/// Samples of one measured quantity, summarized as a median plus the
/// highest percentile that still has at least ten samples beyond it.
struct Series {
  std::vector<double> values;

  void Add(double v) { values.push_back(v); }
  std::size_t size() const { return values.size(); }
  double Median() const;
  double Mean() const;
  double Max() const;
  /// Percentile p in (0, 100) with >= 10 samples above it, or 0 when the
  /// series has fewer than 11 samples.
  double HighPercentile() const;
  /// Value at HighPercentile() (nearest rank), or 0 when there is none.
  double HighValue() const;
};

/// One reported metric: name, value, unit, and the number of samples the
/// value summarizes (1 for a single measurement or a count).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::string note;
};

class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1, const std::string& note = "");
  /// Median of `series` (with its sample count and high percentile in the
  /// note).
  void SetMedian(const std::string& name, const Series& series,
                 const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Spans recorded by the benchmark around its calls into the library's
/// layers, with their wall and CPU time. Spans are kept in memory and
/// written out once, at the end.
class SpanLog {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;
    double dur_s = 0.0;  ///< wall seconds
    double cpu_s = 0.0;  ///< CPU seconds on the log's clock
    std::string parent;
  };

  /// RAII span; nests under the innermost open span of the same log.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope() { End(); }
    /// Closes the span now and returns its wall duration in seconds.
    double End();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_;
    Clock::time_point start_;
    double cpu_start_;
    bool open_ = true;
  };

  explicit SpanLog(CpuClock clock = CpuClock::kProcess)
      : clock_(clock), epoch_(Clock::now()) {}

  const std::vector<Record>& records() const { return records_; }
  /// Summed wall duration of the closed spans called `name`.
  double Total(const std::string& name) const;
  /// Summed CPU seconds of the closed spans called `name`.
  double CpuTotal(const std::string& name) const;
  /// Chrome trace_event document of every recorded span.
  sgr::Json ToChromeTrace() const;

 private:
  CpuClock clock_;
  Clock::time_point epoch_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

/// Peak resident set of this process in MiB (getrusage high-water mark).
double PeakRssMb();

/// Worker threads a workload may use: min(4, hardware concurrency).
std::size_t WorkerCount();

/// Last-level cache size in bytes as the C library reports it (0 if
/// unknown).
std::size_t LlcBytes();

/// Where a recorded result came from. `revision`, `dirty` and
/// `source_digest` are supplied by the launcher (run.py), the rest is
/// probed here.
struct Provenance {
  std::string revision = "unknown";
  std::string dirty = "unknown";
  std::string source_digest = "unknown";
  std::string workload;
  std::uint64_t seed = 0;
  sgr::Json extra = sgr::Json::Object();

  sgr::Json ToJson() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
