//===- Record.cpp - The span recorder's aggregation and output ------------===//

#include "Record.h"

#include <cstdio>
#include <unordered_map>

using namespace perfbench;

Tracer::Buffer &Tracer::local() {
  thread_local const Tracer *Owner = nullptr;
  thread_local Buffer *Local = nullptr;
  if (Owner != this) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Buffers.push_back(std::make_unique<Buffer>());
    Local = Buffers.back().get();
    Owner = this;
  }
  return *Local;
}

namespace {

/// Median over ids of the per-id sums in \p ById.
std::map<std::string, double>
medianOverIds(const std::map<std::string, std::unordered_map<uint64_t, double>>
                  &ById) {
  std::map<std::string, double> Out;
  for (const auto &[Name, Sums] : ById) {
    std::vector<double> V;
    V.reserve(Sums.size());
    for (const auto &[Id, Sum] : Sums)
      V.push_back(Sum);
    Out[Name] = median(V);
  }
  return Out;
}

} // namespace

std::map<std::string, double> Tracer::selfTimeNs() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::map<std::string, std::unordered_map<uint64_t, double>> ById;
  for (const auto &B : Buffers) {
    std::vector<double> Self(B->Spans.size());
    for (size_t I = 0; I != B->Spans.size(); ++I)
      Self[I] = static_cast<double>(B->Spans[I].EndNs - B->Spans[I].StartNs);
    for (const Span &S : B->Spans)
      if (S.Parent >= 0)
        Self[static_cast<size_t>(S.Parent)] -=
            static_cast<double>(S.EndNs - S.StartNs);
    for (size_t I = 0; I != B->Spans.size(); ++I)
      ById[B->Spans[I].Name][B->Spans[I].Id] += Self[I];
  }
  return medianOverIds(ById);
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::map<std::string, std::unordered_map<uint64_t, double>> ById;
  for (const auto &B : Buffers)
    for (const Counter &C : B->Counters)
      ById[C.Name][C.Id] += C.Value;
  return medianOverIds(ById);
}

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t T = 0; T != Buffers.size(); ++T) {
    const Buffer &B = *Buffers[T];
    for (size_t I = 0; I != B.Spans.size(); ++I) {
      const Span &S = B.Spans[I];
      std::fprintf(F,
                   "{\"thread\":%zu,\"span\":%zu,\"name\":\"%s\",\"id\":%llu,"
                   "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   T, I, S.Name, static_cast<unsigned long long>(S.Id),
                   static_cast<long long>(S.Parent),
                   static_cast<long long>(S.StartNs),
                   static_cast<long long>(S.EndNs));
    }
    for (const Counter &C : B.Counters)
      std::fprintf(F, "{\"thread\":%zu,\"counter\":\"%s\",\"id\":%llu,"
                      "\"value\":%.17g}\n",
                   T, C.Name, static_cast<unsigned long long>(C.Id), C.Value);
  }
  return std::fclose(F) == 0;
}
