#include "bench.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <thread>
#include <utility>

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds(CpuClock clock) {
  timespec ts{};
  clock_gettime(clock == CpuClock::kThread ? CLOCK_THREAD_CPUTIME_ID
                                           : CLOCK_PROCESS_CPUTIME_ID,
                &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

std::vector<double> Sorted(const std::vector<double>& values) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

double Series::Median() const {
  if (values.empty()) return 0.0;
  const std::vector<double> s = Sorted(values);
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double Series::Mean() const {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Series::Max() const {
  return values.empty() ? 0.0
                        : *std::max_element(values.begin(), values.end());
}

double Series::HighPercentile() const {
  const std::size_t n = values.size();
  if (n < 11) return 0.0;
  // Nearest rank n - 10 leaves exactly ten samples above it.
  return 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
}

double Series::HighValue() const {
  const std::size_t n = values.size();
  if (n < 11) return 0.0;
  return Sorted(values)[n - 11];
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit, std::size_t samples,
                    const std::string& note) {
  items_.push_back({name, value, unit, samples, note});
}

void MetricSet::SetMedian(const std::string& name, const Series& series,
                          const std::string& unit) {
  std::string note = "median of " + std::to_string(series.size());
  if (series.HighPercentile() > 0.0) {
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "; p%.1f = %.6g",
                  series.HighPercentile(), series.HighValue());
    note += buffer;
  } else {
    note += "; no percentile has 10 samples beyond it";
  }
  Set(name, series.Median(), unit, series.size(), note);
}

SpanLog::Scope::Scope(SpanLog& log, std::string name)
    : log_(log),
      index_(log.records_.size()),
      start_(Clock::now()),
      cpu_start_(CpuSeconds(log.clock_)) {
  Record record;
  record.name = std::move(name);
  record.start_s =
      std::chrono::duration<double>(start_ - log.epoch_).count();
  if (!log.open_.empty()) record.parent = log.records_[log.open_.back()].name;
  log.records_.push_back(std::move(record));
  log.open_.push_back(index_);
}

double SpanLog::Scope::End() {
  if (!open_) return log_.records_[index_].dur_s;
  open_ = false;
  const double dur = SecondsSince(start_);
  log_.records_[index_].dur_s = dur;
  log_.records_[index_].cpu_s = CpuSeconds(log_.clock_) - cpu_start_;
  // Spans close in LIFO order; tolerate an early End() of an outer scope.
  auto it = std::find(log_.open_.begin(), log_.open_.end(), index_);
  if (it != log_.open_.end()) log_.open_.erase(it);
  return dur;
}

double SpanLog::Total(const std::string& name) const {
  double total = 0.0;
  for (const Record& r : records_) {
    if (r.name == name) total += r.dur_s;
  }
  return total;
}

double SpanLog::CpuTotal(const std::string& name) const {
  double total = 0.0;
  for (const Record& r : records_) {
    if (r.name == name) total += r.cpu_s;
  }
  return total;
}

sgr::Json SpanLog::ToChromeTrace() const {
  sgr::Json events = sgr::Json::Array();
  for (const Record& r : records_) {
    sgr::Json e = sgr::Json::Object();
    e.Set("name", sgr::Json::String(r.name));
    e.Set("cat", sgr::Json::String("perfbench"));
    e.Set("ph", sgr::Json::String("X"));
    e.Set("ts", sgr::Json::Number(r.start_s * 1e6));
    e.Set("dur", sgr::Json::Number(r.dur_s * 1e6));
    sgr::Json args = sgr::Json::Object();
    args.Set("cpu_us", sgr::Json::Number(r.cpu_s * 1e6));
    e.Set("args", std::move(args));
    e.Set("pid", sgr::Json::Number(1));
    e.Set("tid", sgr::Json::Number(1));
    events.Push(std::move(e));
  }
  sgr::Json doc = sgr::Json::Object();
  doc.Set("displayTimeUnit", sgr::Json::String("ms"));
  doc.Set("traceEvents", std::move(events));
  return doc;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t WorkerCount() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min<std::size_t>(4, hw));
}

std::size_t LlcBytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) return static_cast<std::size_t>(l2);
#endif
  return 0;
}

sgr::Json Provenance::ToJson() const {
  sgr::Json j = sgr::Json::Object();
  j.Set("revision", sgr::Json::String(revision));
  j.Set("dirty", sgr::Json::String(dirty));
  j.Set("source_digest", sgr::Json::String(source_digest));
  j.Set("compiler", sgr::Json::String(PERFBENCH_COMPILER));
  j.Set("build_type", sgr::Json::String(PERFBENCH_BUILD_TYPE));
  j.Set("nproc", sgr::Json::Number(static_cast<double>(
                     std::thread::hardware_concurrency())));
  j.Set("workers", sgr::Json::Number(static_cast<double>(WorkerCount())));
  j.Set("llc_bytes", sgr::Json::Number(static_cast<double>(LlcBytes())));
  j.Set("workload", sgr::Json::String(workload));
  // Seeds are 64-bit; a double would round them, so echo the digits.
  j.Set("seed", sgr::Json::String(std::to_string(seed)));
  for (const auto& [key, value] : extra.ObjectMembers()) j.Set(key, value);
  return j;
}

}  // namespace perfbench
