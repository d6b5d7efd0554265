//===- Record.h - Samples, statistics and the span recorder ----*- C++ -*-===//
//
// Part of the LGen end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the benchmark records while it runs: latency samples with the
/// statistics the report needs (quantiles, geometric means), and — in a
/// traced run — an in-memory span recorder. A span is (name, id, parent,
/// start, end); the id ties every span to one kernel, dispatch or request.
/// Spans are buffered per thread and only merged at the end, so a thread
/// takes a lock only the first time it records.
///
//===----------------------------------------------------------------------===//

#ifndef LGEN_PERFBENCH_RECORD_H
#define LGEN_PERFBENCH_RECORD_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile (the numpy/`statistics` "inclusive" rule).
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Idx = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Idx);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Idx - static_cast<double>(Lo));
}

inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// In-memory span recorder. Disabled recorders cost one branch per scope.
class Tracer {
public:
  struct Span {
    const char *Name;
    uint64_t Id;
    int64_t Parent; ///< Index into the same thread's buffer, or -1.
    int64_t StartNs;
    int64_t EndNs;
  };
  struct Counter {
    const char *Name;
    uint64_t Id;
    double Value;
  };

  explicit Tracer(bool Enabled) : Enabled(Enabled) {}
  bool enabled() const { return Enabled; }

  /// RAII span: opened on construction, closed on destruction, parented to
  /// the innermost open span of the calling thread.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, uint64_t Id) : T(T) {
      if (!T.Enabled)
        return;
      Buffer &B = T.local();
      Index = static_cast<int64_t>(B.Spans.size());
      B.Spans.push_back({Name, Id, B.Open.empty() ? -1 : B.Open.back(),
                         nowNs(), 0});
      B.Open.push_back(Index);
    }
    ~Scope() {
      if (Index < 0)
        return;
      Buffer &B = T.local();
      B.Spans[static_cast<size_t>(Index)].EndNs = nowNs();
      B.Open.pop_back();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int64_t Index = -1;
  };

  /// Attaches a named quantity (a count or a size) to one id.
  void count(const char *Name, uint64_t Id, double Value) {
    if (Enabled)
      local().Counters.push_back({Name, Id, Value});
  }

  /// Per layer: the median over ids of the id's summed self time (span
  /// duration minus its children's), in nanoseconds. Layers absent from
  /// the trace are absent from the map.
  std::map<std::string, double> selfTimeNs() const;
  /// Per counter name: the median over ids of the id's summed value.
  std::map<std::string, double> counters() const;
  /// Writes every span and counter as JSON lines. False on I/O failure.
  bool write(const std::string &Path) const;

private:
  struct Buffer {
    std::vector<Span> Spans;
    std::vector<int64_t> Open;
    std::vector<Counter> Counters;
  };
  Buffer &local();

  bool Enabled;
  mutable std::mutex Mutex;
  std::vector<std::unique_ptr<Buffer>> Buffers;
};

} // namespace perfbench

#endif // LGEN_PERFBENCH_RECORD_H
