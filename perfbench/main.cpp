//===- main.cpp - End-to-end benchmark of LGen ----------------------------===//
//
// Part of the LGen end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process runs one workload on the Atom target (SSSE3, which runs
/// natively on any x86-64 host) and prints one JSON result line:
///
///   lgen-perfbench --workload cold-full|cold-base
///                  --seed N --seconds S --trace 0|1 [--trace-out FILE]
///
/// cold-full compiles under LGen-Full, cold-base under LGen; both walk:
///
///  * set-up, repeated three times (median reported): a fresh compiler and
///    kernel cache plus one warm-up compile through the toolchain;
///  * rounds of the cold native path: BLAC text → parse → tune → build →
///    unparse → cc → dlopen → run → check against ll::evaluate at every
///    drawn base offset, each kernel followed by a slice of warm in-process
///    dispatch (lookupCached → acquire → entry) and of native timing.
///
/// With --trace 1 the same rounds run with spans around every layer: the
/// compile is decomposed into its public steps (choosePlan, generateCore,
/// makeAlignmentVersions, finalizeKernel, unparseCompiled, cc, dlopen) and
/// its C is checked byte-identical to Compiler::compile + NativeKernel::load;
/// each round's kernels are then resubmitted to an in-process compile
/// service over keep-alive HTTP, each reply's checksum recomputed here.
///
//===----------------------------------------------------------------------===//

#include "Draw.h"
#include "Record.h"

#include "codegen/CUnparser.h"
#include "compiler/Compiler.h"
#include "compiler/KernelCache.h"
#include "ll/Parser.h"
#include "ll/Reference.h"
#include "machine/Microarch.h"
#include "runtime/NativeKernel.h"
#include "runtime/ToolchainDriver.h"
#include "service/Http.h"
#include "service/Service.h"
#include "support/Json.h"
#include "verify/Ulp.h"

#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <set>
#include <thread>

using namespace lgen;
using namespace perfbench;
using compiler::CompiledKernel;
using compiler::Compiler;
using compiler::KernelCache;
using compiler::Options;
using runtime::NativeKernel;

namespace {

constexpr machine::UArch Target = machine::UArch::Atom;
/// The thesis' random search (§5.1.5) for the cold workloads.
constexpr unsigned ColdSearchSamples = 10;
constexpr unsigned SetupReps = 3;
constexpr unsigned MaxClients = 2;
/// Warm in-process dispatches after each cold kernel.
constexpr unsigned DispatchesPerKernel = 1500;
/// Timed batches per loaded kernel after each cold kernel.
constexpr unsigned NativeBatchesPerPass = 5;
/// Warm HTTP requests after each round of a traced run (split over the
/// clients, each resubmitting every kernel of the round equally often).
constexpr unsigned ServiceRequestsPerRound = 1000;
/// Rounds of the cold workloads (one BLAC per family each), started while
/// the run's seconds last.
constexpr size_t ColdFullRounds = 4;
constexpr size_t ColdBaseRounds = 6;

//===----------------------------------------------------------------------===//
// Run state
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;
};

struct Metric {
  double Value;
  const char *Unit;
};

/// Operation accounting shared by every phase (client threads included).
struct Outcome {
  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> Failed{0};
  std::atomic<uint64_t> Wrong{0};

  void fail(const std::string &What) {
    ++Failed;
    std::fprintf(stderr, "perfbench: failed: %s\n", What.c_str());
  }
  void wrong(const std::string &What) {
    ++Wrong;
    fail("wrong output: " + What);
  }
};

Outcome Ops;
std::atomic<uint64_t> NextId{1};
uint64_t freshId() { return NextId++; }

double msSince(int64_t T0) { return (nowNs() - T0) / 1e6; }

/// The CPUs this process may run on. On a shared host they differ in speed
/// (busy hyperthread siblings), so a single-threaded measurement taken on
/// whichever CPU the scheduler picked would differ from run to run. The
/// measuring thread is therefore pinned to each CPU in turn, and every run
/// weighs all CPUs equally.
class Cpus {
public:
  static Cpus &get() {
    static Cpus C;
    return C;
  }
  size_t size() const { return Ids.size(); }
  /// Pins the calling thread to the \p I-th CPU (modulo the count).
  void pin(size_t I) const {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(Ids[I % Ids.size()], &Set);
    sched_setaffinity(0, sizeof(Set), &Set);
  }
  /// Lets the calling thread (and threads it starts) run anywhere again.
  void unpin() const { sched_setaffinity(0, sizeof(All), &All); }

private:
  Cpus() {
    CPU_ZERO(&All);
    if (sched_getaffinity(0, sizeof(All), &All) == 0)
      for (int C = 0; C != CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &All))
          Ids.push_back(C);
    if (Ids.empty())
      Ids.push_back(0);
  }
  cpu_set_t All;
  std::vector<int> Ids;
};

/// Progress on stderr: how long each phase of the run took.
void phaseDone(const char *Phase, int64_t T0) {
  std::fprintf(stderr, "perfbench: %s: %.2f s\n", Phase, (nowNs() - T0) / 1e9);
}

//===----------------------------------------------------------------------===//
// Correctness checks
//===----------------------------------------------------------------------===//

const machine::Microarch &atom() {
  static const machine::Microarch M = machine::Microarch::get(Target);
  return M;
}

/// Model flops/cycle at aligned bases; above the target's peak is a bug.
bool modelFpc(const CompiledKernel &CK, double &Out) {
  std::map<cir::ArrayId, int64_t> Aligned;
  for (size_t I = 0; I != CK.Blac.Operands.size(); ++I)
    Aligned[static_cast<cir::ArrayId>(I)] = 0;
  Out = CK.flopsPerCycle(atom(), Aligned);
  return Out > 0 && Out <= atom().PeakFlopsPerCycle;
}

/// Seeded inputs for one kernel: one value per operand, in [-1, 1).
ll::Bindings makeInputs(const ll::Program &P, uint64_t Stream, uint64_t Seed) {
  Rng R = streamRng(Seed, Stream);
  ll::Bindings B;
  for (const ll::Operand &O : P.Operands) {
    ll::MatrixValue V(O.Rows, O.Cols);
    ll::fillRandom(V, R);
    B[O.Name] = std::move(V);
  }
  return B;
}

/// Per-operand base offsets (elements past a ν-aligned base): a seeded
/// misaligned assignment (at least one operand off) and the aligned one.
std::vector<std::vector<unsigned>> drawOffsets(const ll::Program &P,
                                               unsigned Nu, uint64_t Stream,
                                               uint64_t Seed) {
  Rng R = streamRng(Seed, Stream ^ 0x0ff5e7);
  std::vector<unsigned> Mis(P.Operands.size(), 0);
  bool Any = false;
  for (size_t I = 0; I != P.Operands.size(); ++I)
    if (P.Operands[I].numElements() > 1 && Nu > 1) {
      Mis[I] = static_cast<unsigned>(R.nextBelow(Nu));
      Any |= Mis[I] != 0;
    }
  if (!Any && Nu > 1)
    for (size_t I = 0; I != P.Operands.size(); ++I)
      if (P.Operands[I].numElements() > 1) {
        Mis[I] = 1;
        break;
      }
  return {Mis, std::vector<unsigned>(P.Operands.size(), 0)};
}

/// Runs \p NK over \p Inputs placed at \p Offsets and compares the output
/// with ll::evaluate under the verify::Ulp tolerance.
bool checkNative(const NativeKernel &NK, const ll::Program &P,
                 const ll::Bindings &Inputs, const ll::MatrixValue &Expected,
                 const std::vector<unsigned> &Offsets, std::string &Why) {
  std::vector<machine::Buffer> Storage(P.Operands.size());
  std::vector<machine::Buffer *> Params;
  size_t OutIdx = 0;
  for (size_t I = 0; I != P.Operands.size(); ++I) {
    const ll::Operand &O = P.Operands[I];
    Storage[I] = machine::Buffer(O.numElements(), 0.0f, Offsets[I]);
    Storage[I].Data = Inputs.at(O.Name).Data;
    if (O.Name == P.outputName())
      OutIdx = I;
    Params.push_back(&Storage[I]);
  }
  NK.execute(Params);
  ll::MatrixValue Out(P.Operands[OutIdx].Rows, P.Operands[OutIdx].Cols);
  Out.Data = Storage[OutIdx].Data;
  verify::UlpReport Rep = verify::compareValues(Expected, Out);
  if (verify::toleranceFor(P).accepts(Rep))
    return true;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "%lld ulps (|diff| %g) at element %zu, expected %g got %g",
                static_cast<long long>(Rep.MaxUlps), Rep.MaxAbsDiff,
                Rep.WorstIndex, Rep.Expected, Rep.Actual);
  Why = Buf;
  return false;
}

/// The checksum a compile.result with run:true carries, recomputed apart
/// from the service: the same deterministic inputs (CompileQueue draws them
/// from Rng(0x5eed) in operand order), the output from ll::evaluate, and a
/// tolerance summed from the per-element verify::Ulp allowance.
struct Checksum {
  double Value = 0;
  double Tol = 0;
  bool accepts(double Got) const { return std::fabs(Got - Value) <= Tol; }
};

Checksum serviceChecksum(const ll::Program &P) {
  Rng InputRng(0x5eed);
  ll::Bindings In;
  for (const ll::Operand &O : P.Operands) {
    ll::MatrixValue V(O.Rows, O.Cols);
    for (float &X : V.Data)
      X = static_cast<float>(InputRng.next() % 1000) / 250.0f - 2.0f;
    In[O.Name] = std::move(V);
  }
  ll::MatrixValue Out = ll::evaluate(P, In);
  verify::Tolerance T = verify::toleranceFor(P);
  Checksum C;
  for (const ll::Operand &O : P.Operands) {
    bool IsOut = O.Name == P.outputName();
    for (float X : IsOut ? Out.Data : In.at(O.Name).Data) {
      C.Value += X;
      if (IsOut) {
        float A = std::fabs(X);
        float Ulp = std::nextafter(A, INFINITY) - A;
        C.Tol += std::max(static_cast<double>(T.AbsFloor),
                          static_cast<double>(T.MaxUlps) * Ulp);
      }
    }
  }
  return C;
}

/// The sum CompileQueue reports for a kernel run on its inputs.
double simulatedChecksum(const CompiledKernel &CK) {
  std::vector<machine::Buffer> Storage;
  std::vector<machine::Buffer *> Buffers;
  Storage.reserve(CK.Blac.Operands.size());
  Rng InputRng(0x5eed);
  for (const ll::Operand &O : CK.Blac.Operands) {
    Storage.emplace_back(static_cast<size_t>(O.numElements()), 0.0f, 0);
    for (float &V : Storage.back().Data)
      V = static_cast<float>(InputRng.next() % 1000) / 250.0f - 2.0f;
  }
  for (machine::Buffer &B : Storage)
    Buffers.push_back(&B);
  CK.execute(Buffers);
  double Sum = 0;
  for (const machine::Buffer &B : Storage)
    for (float V : B.Data)
      Sum += V;
  return Sum;
}

//===----------------------------------------------------------------------===//
// The native path
//===----------------------------------------------------------------------===//

/// The exported entry NativeKernel::load appends to the unparsed kernel; the
/// decomposed path rebuilds it so the two translation units can be compared
/// byte for byte.
std::string shimSource(const cir::Kernel &K) {
  std::string S = "\n__attribute__((visibility(\"default\"))) void "
                  "lgen_native_entry(float *const *lgen_args) {\n  " +
                  K.getName() + "(";
  unsigned Idx = 0;
  for (cir::ArrayId Id = 0; Id != K.getNumArrays(); ++Id) {
    const cir::ArrayInfo &A = K.getArray(Id);
    if (!A.isParam())
      continue;
    if (Idx)
      S += ", ";
    if (A.Kind == cir::ArrayKind::Input)
      S += "(const float *)";
    S += "lgen_args[" + std::to_string(Idx++) + "]";
  }
  return S + ");\n}\n";
}

isa::ISAKind nativeIsa(const Options &O) {
  return O.effectiveNu() == 1 ? isa::ISAKind::Scalar : O.ISA;
}

/// Times the entry of every kernel loaded so far in the run. Each pass
/// adds a few timed batches per kernel; passes run after every cold kernel,
/// so a kernel's median ns per call spreads over the rest of the run rather
/// than over one moment of a shared machine. Arguments are aligned and
/// pre-marshaled; batches are long enough to dwarf the clock.
class NativeSampler {
public:
  void add(std::shared_ptr<const NativeKernel> NK, const ll::Program &P,
           const ll::Bindings &Inputs) {
    auto E = std::make_unique<Entry>();
    E->NK = std::move(NK);
    for (const ll::Operand &O : P.Operands) {
      E->Storage.emplace_back(static_cast<size_t>(O.numElements()));
      E->Storage.back().Data = Inputs.at(O.Name).Data;
    }
    for (machine::Buffer &B : E->Storage)
      E->Params.push_back(&B);
    E->Args = std::make_unique<runtime::ArgPack>(*E->NK, E->Params,
                                                 runtime::Marshal::Copy);
    while (E->Batch < (1u << 20) && E->time() < 50000.0)
      E->Batch *= 2;
    Entries.push_back(std::move(E));
  }
  /// Times every kernel on every CPU, then leaves the thread unpinned.
  void pass(unsigned BatchesEach) {
    const Cpus &C = Cpus::get();
    for (size_t Cpu = 0; Cpu != C.size(); ++Cpu) {
      C.pin(Cpu);
      for (auto &E : Entries) {
        E->PerCall.resize(C.size());
        for (unsigned I = 0; I != BatchesEach; ++I)
          E->PerCall[Cpu].push_back(E->time() / E->Batch);
      }
    }
    C.unpin();
  }
  /// Per kernel: the geometric mean over CPUs of the median ns per call.
  std::vector<double> medians() const {
    std::vector<double> M;
    for (const auto &E : Entries) {
      std::vector<double> PerCpu;
      for (const std::vector<double> &V : E->PerCall)
        PerCpu.push_back(median(V));
      M.push_back(geomean(PerCpu));
    }
    return M;
  }

private:
  struct Entry {
    std::shared_ptr<const NativeKernel> NK;
    std::vector<machine::Buffer> Storage;
    std::vector<machine::Buffer *> Params;
    std::unique_ptr<runtime::ArgPack> Args;
    unsigned Batch = 1;
    std::vector<std::vector<double>> PerCall; ///< Per CPU.

    double time() {
      Args->reset();
      NativeKernel::EntryFn Entry = NK->entry();
      int64_t T0 = nowNs();
      for (unsigned I = 0; I != Batch; ++I)
        Entry(Args->argv());
      return static_cast<double>(nowNs() - T0);
    }
  };
  std::vector<std::unique_ptr<Entry>> Entries;
};

/// One kernel that reached the native path, kept for the warm phases.
struct Kernel {
  std::string Source;
  ll::Program P;
  uint64_t Key = 0;
  ll::Bindings Inputs;
};

/// What the cold native path measured over a run.
struct ColdStats {
  std::vector<double> TtfrMs;
  NativeSampler Native;
  std::vector<double> ModelFpc;
  double SoBytes = 0;
  size_t Kernels = 0;
  double WallS = 0;
  /// Traced runs: (decomposed − untraced) compile time over untraced.
  std::vector<double> TraceOverhead;
};

/// The build steps of Compiler::compile's uncached path, called one by one
/// under spans. Produces the same kernel (the C is compared byte for byte
/// by the caller).
CompiledKernel decomposedCompile(const Compiler &C, const ll::Program &P,
                                 Tracer &T, uint64_t Id) {
  const Options &O = C.options();
  tiling::TilingPlan Plan;
  {
    Tracer::Scope S(T, "compiler.tune", Id);
    Plan = compiler::choosePlan(C, P);
  }
  cir::Kernel Core;
  {
    Tracer::Scope S(T, "cir.core", Id);
    Core = C.generateCore(P, Plan);
  }
  CompiledKernel CK;
  CK.Blac = P.clone();
  CK.Opts = O;
  CK.Flops = ll::flopCount(P);
  unsigned Nu = O.effectiveNu();
  if (O.AlignmentDetection && Nu > 1) {
    {
      Tracer::Scope S(T, "absint.version", Id);
      CK.Versioned = absint::makeAlignmentVersions(Core, Nu, O.MaxAlignCombos);
    }
    auto Finalize = [&](cir::Kernel &K) {
      Tracer::Scope S(T, "machine.finalize", Id);
      C.finalizeKernel(K);
    };
    for (cir::Kernel &V : CK.Versioned.Versions)
      Finalize(V);
    Finalize(CK.Versioned.Fallback);
    T.count("machine.finalize_calls", Id, CK.Versioned.numVersions());
    CK.HasVersions = true;
    CK.DispatchOverheadCycles = 2.0 + 2.0 * CK.Versioned.VersionedArrays.size();
  } else {
    CK.Plain = std::move(Core);
    Tracer::Scope S(T, "machine.finalize", Id);
    C.finalizeKernel(CK.Plain);
    T.count("machine.finalize_calls", Id, 1);
  }
  return CK;
}

/// Counts the distinct function bodies among the alignment versions of
/// \p CK (names normalized, since every version is emitted under its own).
void countVersionBodies(const CompiledKernel &CK, Tracer &T, uint64_t Id) {
  if (!CK.HasVersions)
    return;
  std::set<std::string> Bodies;
  auto Add = [&](const cir::Kernel &K) {
    cir::Kernel R = K.clone();
    R.setName("lgen_version");
    Bodies.insert(codegen::unparseKernel(R, nativeIsa(CK.Opts)));
  };
  for (const cir::Kernel &V : CK.Versioned.Versions)
    Add(V);
  Add(CK.Versioned.Fallback);
  double Versions = CK.Versioned.numVersions();
  T.count("absint.versions", Id, Versions);
  T.count("absint.distinct_bodies", Id, Bodies.size());
  T.count("absint.distinct_ratio", Id, Bodies.size() / Versions);
}

/// Takes one BLAC from text to checked native results. Untraced, this is
/// Compiler::compile + NativeKernel::acquire; traced, the compile is
/// decomposed under spans and its C checked against the untraced path's.
/// The kernel lands in \p C's cache (with its native handle) for the warm
/// phases. Returns false when the operation failed.
bool coldKernel(const Compiler &C, const std::string &Source, size_t Index,
                uint64_t Seed, Tracer &T, ColdStats &Stats,
                std::vector<Kernel> &Out) {
  ++Ops.Attempted;
  uint64_t Id = freshId();
  int64_t T0 = nowNs();
  Kernel K;
  K.Source = Source;
  std::string Err;
  bool Parsed;
  {
    Tracer::Scope S(T, "ll.parse", Id);
    Parsed = ll::parseProgram(Source, K.P, Err);
  }
  if (!Parsed) {
    Ops.fail("parse: " + Err);
    return false;
  }
  const Options &O = C.options();
  K.Key = KernelCache::fingerprint(K.P.str(), O);

  std::shared_ptr<const NativeKernel> NK;
  std::shared_ptr<const CompiledKernel> CK;
  if (!T.enabled()) {
    CK = std::make_shared<CompiledKernel>(C.compile(K.P));
    Expected<std::shared_ptr<const NativeKernel>> Loaded =
        NativeKernel::acquire(C.kernelCache(), K.Key, *CK);
    if (!Loaded) {
      Ops.fail("native load of " + Source + ": " + Loaded.error());
      return false;
    }
    NK = *Loaded;
  } else {
    // The untraced twin compiles without a cache, exactly like the
    // decomposed path; the two alternate order so neither is always the
    // one running on warm caches.
    Compiler Uncached(O);
    CompiledKernel Twin, Parts;
    double TwinNs = 0, PartsNs = 0;
    auto RunTwin = [&] {
      Tracer::Scope S(T, "compiler.cold", Id);
      int64_t A = nowNs();
      Twin = Uncached.compile(K.P);
      TwinNs = static_cast<double>(nowNs() - A);
    };
    auto RunParts = [&] {
      int64_t A = nowNs();
      Parts = decomposedCompile(Uncached, K.P, T, Id);
      PartsNs = static_cast<double>(nowNs() - A);
    };
    if (Index % 2) {
      RunParts();
      RunTwin();
    } else {
      RunTwin();
      RunParts();
    }
    Stats.TraceOverhead.push_back(100.0 * (PartsNs - TwinNs) / TwinNs);
    countVersionBodies(Parts, T, Id);

    std::string Src;
    {
      Tracer::Scope S(T, "codegen.unparse", Id);
      Src = codegen::unparseCompiled(Parts) +
            shimSource(Parts.HasVersions ? Parts.Versioned.Fallback
                                         : Parts.Plain);
    }
    T.count("codegen.c_kb", Id, Src.size() / 1024.0);
    Expected<std::string> So = lgen::Err("not compiled");
    {
      Tracer::Scope S(T, "runtime.cc", Id);
      So = runtime::ToolchainDriver::host().compileSharedObject(
          Src, nativeIsa(O));
    }
    if (!So) {
      Ops.fail("toolchain on " + Source + ": " + So.error());
      return false;
    }
    {
      Tracer::Scope S(T, "runtime.dlopen", Id);
      Expected<runtime::SharedLibrary> Lib =
          runtime::SharedLibrary::open(*So);
      if (!Lib || !Lib->symbol("lgen_native_entry")) {
        Ops.fail("dlopen of " + *So);
        return false;
      }
    }
    // The untraced path's translation unit must be the one just built.
    Expected<std::shared_ptr<const NativeKernel>> Loaded =
        NativeKernel::acquire(C.kernelCache(), K.Key, Twin);
    if (!Loaded) {
      Ops.fail("native load of " + Source + ": " + Loaded.error());
      return false;
    }
    NK = *Loaded;
    if (NK->source() != Src) {
      Ops.wrong("decomposed C differs from Compiler::compile + "
                "NativeKernel::load for " + Source);
      return false;
    }
    CK = std::make_shared<CompiledKernel>(std::move(Twin));
    C.kernelCache()->storeKernel(K.Key, CK);
  }

  K.Inputs = makeInputs(K.P, Index, Seed);
  ll::MatrixValue Expected = ll::evaluate(K.P, K.Inputs);
  bool First = true;
  for (const std::vector<unsigned> &Offsets :
       drawOffsets(K.P, O.effectiveNu(), Index, Seed)) {
    std::string Why;
    if (!checkNative(*NK, K.P, K.Inputs, Expected, Offsets, Why)) {
      Ops.wrong(Source + ": " + Why);
      return false;
    }
    if (First)
      Stats.TtfrMs.push_back(msSince(T0));
    First = false;
  }
  double Fpc;
  if (!modelFpc(*CK, Fpc)) {
    Ops.wrong("model flops/cycle " + std::to_string(Fpc) +
              " outside (0, peak] for " + Source);
    return false;
  }
  Stats.ModelFpc.push_back(Fpc);
  Stats.Native.add(NK, K.P, K.Inputs);
  std::error_code EC;
  Stats.SoBytes += static_cast<double>(
      std::filesystem::file_size(NK->soPath(), EC));
  ++Stats.Kernels;
  std::fprintf(stderr,
               "perfbench: %.1f ms to first result, %.1f ms in all: %s\n",
               Stats.TtfrMs.back(), msSince(T0), Source.c_str());
  Out.push_back(std::move(K));
  return true;
}

//===----------------------------------------------------------------------===//
// Warm in-process dispatch
//===----------------------------------------------------------------------===//

/// \p Count times lookupCached → acquire → entry, round-robin over
/// \p Kernels. Buffers
/// are aligned with ν elements of tail room, so marshaling is zero-copy.
std::vector<double> warmDispatch(const Compiler &C,
                                 const std::vector<Kernel> &Kernels,
                                 unsigned Count, Tracer &T) {
  struct Bound {
    std::vector<machine::Buffer> Storage;
    std::vector<machine::Buffer *> Params;
  };
  unsigned Nu = C.options().effectiveNu();
  std::vector<Bound> Bufs(Kernels.size());
  for (size_t I = 0; I != Kernels.size(); ++I)
    for (const ll::Operand &O : Kernels[I].P.Operands) {
      machine::Buffer B(static_cast<size_t>(O.numElements()) + Nu);
      std::copy(Kernels[I].Inputs.at(O.Name).Data.begin(),
                Kernels[I].Inputs.at(O.Name).Data.end(), B.Data.begin());
      Bufs[I].Storage.push_back(std::move(B));
    }
  for (Bound &B : Bufs)
    for (machine::Buffer &Buf : B.Storage)
      B.Params.push_back(&Buf);

  std::vector<double> Ns;
  Ns.reserve(Count);
  for (unsigned N = 0; N != Count; ++N) {
    size_t I = N % Kernels.size();
    ++Ops.Attempted;
    uint64_t Id = freshId();
    int64_t T0 = nowNs();
    Tracer::Scope Whole(T, "dispatch", Id);
    std::shared_ptr<const CompiledKernel> CK;
    {
      Tracer::Scope S(T, "compiler.lookup", Id);
      CK = C.lookupCached(Kernels[I].P);
    }
    if (!CK) {
      Ops.fail("warm lookup missed for " + Kernels[I].Source);
      continue;
    }
    std::shared_ptr<const NativeKernel> NK;
    {
      Tracer::Scope S(T, "runtime.acquire", Id);
      auto H = NativeKernel::acquire(C.kernelCache(), Kernels[I].Key, *CK);
      if (H)
        NK = *H;
    }
    if (!NK) {
      Ops.fail("warm acquire failed for " + Kernels[I].Source);
      continue;
    }
    std::optional<runtime::ArgPack> Args;
    {
      Tracer::Scope S(T, "runtime.marshal", Id);
      Args.emplace(*NK, Bufs[I].Params, runtime::Marshal::ZeroCopy);
    }
    {
      Tracer::Scope S(T, "runtime.entry", Id);
      NK->entry()(Args->argv());
      Args->copyBack();
    }
    Ns.push_back(static_cast<double>(nowNs() - T0));
  }
  return Ns;
}

//===----------------------------------------------------------------------===//
// The compile service
//===----------------------------------------------------------------------===//

unsigned numClients() {
  unsigned Hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min(MaxClients, Hw ? Hw : 1u));
}

std::unique_ptr<service::Service> startService(unsigned Clients) {
  service::ServiceConfig Cfg;
  Cfg.ConnWorkers = Clients;
  auto Svc = std::make_unique<service::Service>(Cfg);
  std::string Err;
  if (!Svc->start(Err)) {
    std::fprintf(stderr, "perfbench: cannot start the service: %s\n",
                 Err.c_str());
    std::exit(1);
  }
  return Svc;
}

/// One source as the clients submit it, with its recomputed checksum.
struct Request {
  std::string Source;
  json::Value Params;
  Checksum Expected;
};

/// \p Config empty leaves config and searchSamples at the service defaults.
Request makeRequest(const std::string &Source, const std::string &Config,
                    unsigned SearchSamples) {
  Request R;
  R.Source = Source;
  json::Object P;
  P["source"] = Source;
  P["run"] = true;
  if (!Config.empty()) {
    P["config"] = Config;
    P["searchSamples"] = static_cast<int64_t>(SearchSamples);
  }
  R.Params = json::Value(std::move(P));
  R.Expected = serviceChecksum(ll::parseProgramOrDie(Source));
  return R;
}

std::string envelope(const char *Method, const json::Value &Params,
                     const std::string &Session) {
  json::Object E;
  E["v"] = static_cast<int64_t>(1);
  E["method"] = Method;
  E["session"] = Session;
  E["params"] = Params;
  return json::Value(std::move(E)).serialize();
}

/// Checks a FINISHED compile.result payload; false (with \p Why) if wrong.
bool checkResult(const json::Value &Res, const Request &R, std::string &Why) {
  if (!Res["ran"].isBool() || !Res["checksum"].isNumber()) {
    Why = "no checksum in " + Res.serialize();
    return false;
  }
  double Got = Res["checksum"].asNumber();
  if (!R.Expected.accepts(Got)) {
    Why = "checksum " + std::to_string(Got) + ", ll::evaluate gives " +
          std::to_string(R.Expected.Value) + " ± " +
          std::to_string(R.Expected.Tol);
    return false;
  }
  double Fpc = Res.getNumber("flopsPerCycle");
  if (!(Fpc > 0 && Fpc <= atom().PeakFlopsPerCycle)) {
    Why = "model flops/cycle " + std::to_string(Fpc) + " outside (0, peak]";
    return false;
  }
  return true;
}

/// Waits between compile.result polls: geometric (×1.5 from 40 µs, capped
/// at 800 µs) with seeded jitter of ±50%. A fixed schedule would quantize
/// round trips to its poll times, so a small shift in service time would
/// move the median by a whole step.
class PollBackoff {
public:
  explicit PollBackoff(Rng &R) : R(R) {}
  void wait() {
    double Us = BaseUs * (0.5 + R.nextDouble());
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        static_cast<int64_t>(Us * 1e3)));
    BaseUs = std::min(800.0, BaseUs * 1.5);
  }

private:
  Rng &R;
  double BaseUs = 40;
};

/// A keep-alive client: submit → poll compile.result until FINISHED.
class Client {
public:
  Client(uint16_t Port, std::string Session, uint64_t Seed, Tracer &T)
      : Port(Port), Session(std::move(Session)),
        Jitter(streamRng(Seed, std::hash<std::string>()(this->Session))),
        T(T) {}

  /// One round trip; returns its latency in ns, or a negative value when
  /// the operation failed (already counted).
  double roundTrip(const Request &R) {
    ++Ops.Attempted;
    uint64_t Id = freshId();
    Tracer::Scope Whole(T, "service.request", Id);
    int64_t T0 = nowNs();
    service::HttpResponse Resp;
    {
      Tracer::Scope S(T, "service.submit", Id);
      if (!rpc(envelope("compile.submit", R.Params, Session), Resp))
        return -1;
    }
    json::Value V;
    std::string Err;
    if (Resp.Status != 200 || !json::parse(Resp.Body, V, Err)) {
      Ops.fail("compile.submit answered " + std::to_string(Resp.Status) +
               ": " + Resp.Body);
      return -1;
    }
    std::string JobId = V["result"].getString("jobID");
    json::Object Q;
    Q["jobID"] = JobId;
    std::string Poll = envelope("compile.result", json::Value(std::move(Q)),
                                Session);
    unsigned Polls = 0;
    PollBackoff Backoff(Jitter);
    for (;; Backoff.wait()) {
      ++Polls;
      {
        Tracer::Scope S(T, "service.poll", Id);
        if (!rpc(Poll, Resp))
          return -1;
      }
      if (Resp.Status != 200 || !json::parse(Resp.Body, V, Err)) {
        Ops.fail("compile.result answered " + std::to_string(Resp.Status));
        return -1;
      }
      std::string State = V["result"].getString("jobState");
      if (State == "FINISHED")
        break;
      if (State != "QUEUED" && State != "COMPILING") {
        Ops.fail("job " + JobId + " is " + State);
        return -1;
      }
    }
    double Ns = static_cast<double>(nowNs() - T0);
    T.count("service.polls_per_req", Id, Polls);
    const json::Value &Res = V["result"]["result"];
    if (Res["error"].isObject()) {
      Ops.fail("compile of " + R.Source + ": " + Res["error"].serialize());
      return -1;
    }
    std::string Why;
    if (!checkResult(Res, R, Why)) {
      Ops.wrong(R.Source + ": " + Why);
      return -1;
    }
    return Ns;
  }

  /// GET /healthz: the bare HTTP round trip.
  void health() {
    ++Ops.Attempted;
    service::HttpResponse Resp;
    Tracer::Scope S(T, "service.http", freshId());
    if (rpc("", Resp, "GET", "/healthz") && Resp.Status != 200)
      Ops.fail("/healthz answered " + std::to_string(Resp.Status));
  }

private:
  bool rpc(const std::string &Body, service::HttpResponse &Resp,
           const char *Method = "POST", const char *Path = "/rpc") {
    std::string Err;
    if ((!Http.connected() && !Http.connect("127.0.0.1", Port, Err)) ||
        !Http.request(Method, Path, Body, Resp, Err)) {
      Ops.fail(std::string("HTTP ") + Path + ": " + Err);
      return false;
    }
    return true;
  }

  service::HttpClient Http;
  uint16_t Port;
  std::string Session;
  Rng Jitter;
  Tracer &T;
};

/// CompileQueue::submit → FINISHED without HTTP.
void directQueueRequest(service::CompileQueue &Q, const std::string &Session,
                        const Request &R, Tracer &T) {
  ++Ops.Attempted;
  uint64_t Id = freshId();
  Tracer::Scope S(T, "service.queue", Id);
  json::Value Sub;
  try {
    Sub = Q.submit(Session, R.Params);
  } catch (const std::exception &E) {
    Ops.fail(std::string("direct queue submit: ") + E.what());
    return;
  }
  json::Object P;
  P["jobID"] = Sub.getString("jobID");
  json::Value Poll(std::move(P));
  Rng Jitter = streamRng(Id, 0x9011);
  PollBackoff Backoff(Jitter);
  for (;; Backoff.wait()) {
    json::Value V = Q.result(Session, Poll);
    if (V.getString("jobState") != "FINISHED")
      continue;
    std::string Why;
    if (!checkResult(V["result"], R, Why))
      Ops.wrong(R.Source + " (direct queue): " + Why);
    return;
  }
}

struct LoadStats {
  std::vector<double> Ns;
  double WallS = 0;
};

/// Closed loop of keep-alive clients, each making \p Rounds rounds (one
/// resubmission of every request, starting at its own offset) preceded by
/// a GET /healthz and a request straight into the CompileQueue.
LoadStats serviceLoad(service::Service &Svc, unsigned Clients,
                      const std::vector<Request> &Warm, unsigned Rounds,
                      uint64_t Seed, Tracer &T) {
  std::vector<std::vector<double>> Per(Clients);
  int64_t T0 = nowNs();
  std::vector<std::thread> Threads;
  for (unsigned CI = 0; CI != Clients; ++CI)
    Threads.emplace_back([&, CI] {
      std::string Session = "perfbench-" + std::to_string(CI);
      Client Cl(Svc.port(), Session, Seed, T);
      for (unsigned Round = 0; Round != Rounds; ++Round) {
        Cl.health();
        directQueueRequest(Svc.queue(), Session, Warm[Round % Warm.size()],
                           T);
        for (size_t I = 0; I != Warm.size(); ++I) {
          double Ns = Cl.roundTrip(Warm[(I + CI) % Warm.size()]);
          if (Ns >= 0)
            Per[CI].push_back(Ns);
        }
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  LoadStats All;
  All.WallS = (nowNs() - T0) / 1e9;
  for (const std::vector<double> &V : Per)
    All.Ns.insert(All.Ns.end(), V.begin(), V.end());
  return All;
}

/// The in-process layers under a warm request (traced runs only): the
/// cache-hit compile (which clones), model timing and simulated execution.
void warmRequestLayers(const Compiler &C, const std::vector<Request> &Warm,
                       Tracer &T) {
  for (unsigned Rep = 0; Rep != 20; ++Rep)
    for (const Request &R : Warm) {
      uint64_t Id = freshId();
      ll::Program P = ll::parseProgramOrDie(R.Source);
      std::optional<CompiledKernel> CK;
      {
        Tracer::Scope S(T, "compiler.hit", Id);
        CK.emplace(C.compile(P));
      }
      {
        Tracer::Scope S(T, "machine.model", Id);
        (void)CK->time(atom());
      }
      Tracer::Scope S(T, "machine.sim", Id);
      (void)simulatedChecksum(*CK);
    }
}

//===----------------------------------------------------------------------===//
// Fault injection: the checks must catch a wrong kernel
//===----------------------------------------------------------------------===//

/// Builds an AXPY with its first addition flipped to a subtraction and
/// confirms both output checks reject it. Exits if either check passes it.
/// (Not a reduction: there the first addition may be the one into the zero
/// accumulator, where the flip changes nothing.)
void checkFaultIsCaught(const std::string &Config) {
  const std::string Source = bench::blacs::axpy(7);
  Options O = Options::named(Config, Target).valueOrDie();
  O.InjectFault = "flip-add";
  Compiler C(O);
  ll::Program P = ll::parseProgramOrDie(Source);
  CompiledKernel CK = C.compile(P);
  Expected<NativeKernel> NK = NativeKernel::load(CK);
  if (!NK) {
    std::fprintf(stderr, "perfbench: cannot load the fault-injected kernel: "
                         "%s\n", NK.error().c_str());
    std::exit(1);
  }
  ll::Bindings In = makeInputs(P, 0xfa017, 1);
  ll::MatrixValue Expected = ll::evaluate(P, In);
  std::string Why;
  bool NativeCaught =
      !checkNative(*NK, P, In, Expected,
                   std::vector<unsigned>(P.Operands.size(), 0), Why);
  bool ChecksumCaught = !serviceChecksum(P).accepts(simulatedChecksum(CK));
  if (!NativeCaught || !ChecksumCaught) {
    std::fprintf(stderr,
                 "perfbench: a flip-add kernel passed the %s check; the "
                 "output checks are vacuous\n",
                 NativeCaught ? "checksum" : "native");
    std::exit(1);
  }
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

struct Report {
  std::map<std::string, Metric> EndToEnd;
  std::map<std::string, Metric> PerLayer;
};

/// Reports quantile \p Q of \p V (samples in the order taken) into \p Into.
/// A tail needs ten samples beyond it, so tails are taken per block of
/// 10/(1−Q) consecutive samples and the median over blocks is reported:
/// one burst of interference on a shared host then moves one block, not
/// the figure. False when there are too few samples.
bool reportQuantile(std::map<std::string, Metric> &Into, const char *Name,
                    const std::vector<double> &V, double Q, double Scale,
                    const char *Unit) {
  size_t Block = static_cast<size_t>(std::ceil(10.0 / (1.0 - Q) - 1e-9));
  if (V.size() < Block) {
    std::fprintf(stderr, "perfbench: %zu samples cannot support %s\n",
                 V.size(), Name);
    return false;
  }
  std::vector<double> PerBlock;
  for (size_t I = 0; I + Block <= V.size(); I += Block)
    PerBlock.push_back(quantile(std::vector<double>(V.begin() + I,
                                                    V.begin() + I + Block),
                                Q));
  double Value = Q <= 0.5 ? quantile(V, Q) : median(PerBlock);
  Into[Name] = {Value / Scale, Unit};
  return true;
}

/// The warm compile service over one round's kernels (traced runs only):
/// a fresh service whose cache is filled with the kernels \p C compiled,
/// so every request is a hit. Adds its round trips to \p Load.
void warmService(const Compiler &C, const std::vector<Kernel> &Kernels,
                 const std::string &Config, uint64_t Seed, Tracer &T,
                 LoadStats &Load) {
  unsigned Clients = numClients();
  auto Svc = startService(Clients);
  std::vector<Request> Warm;
  for (const Kernel &K : Kernels) {
    Svc->queue().sharedCache()->storeKernel(K.Key, C.lookupCached(K.P));
    Warm.push_back(makeRequest(K.Source, Config, ColdSearchSamples));
  }
  if (Warm.empty())
    return;
  unsigned Rounds = static_cast<unsigned>(
      (ServiceRequestsPerRound + Clients * Warm.size() - 1) /
      (Clients * Warm.size()));
  LoadStats L = serviceLoad(*Svc, Clients, Warm, Rounds, Seed, T);
  Load.Ns.insert(Load.Ns.end(), L.Ns.begin(), L.Ns.end());
  Load.WallS += L.WallS;
  if (uint64_t Misses = Svc->queue().sharedCache()->instanceStats().Misses)
    Ops.fail(std::to_string(Misses) +
             " warm service requests missed the prefilled cache");
  warmRequestLayers(C, Warm, T);
  Svc->stop();
  Svc->drain();
}

/// cold-full / cold-base: rounds of distinct BLACs (one per family) from
/// text to checked native results, started while the run's seconds last.
Report runCold(const Args &A, const std::string &Config, size_t Rounds,
               Tracer &T) {
  Options O = Options::named(Config, Target).valueOrDie();
  O.SearchSamples = ColdSearchSamples;
  size_t RoundSize = families().size();

  // Set-up: a fresh compiler and cache, and one warm-up compile through
  // the toolchain (a BLAC outside every ladder, distinct per repetition).
  std::vector<double> SetupS;
  std::unique_ptr<Compiler> C;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    int64_t T0 = nowNs();
    C = std::make_unique<Compiler>(O);
    // The LRU holds one round: memory stays flat however many rounds run.
    C->setKernelCache(std::make_shared<KernelCache>("", RoundSize));
    ll::Program P = ll::parseProgramOrDie(bench::blacs::mvm(4, 4 + Rep));
    CompiledKernel CK = C->compile(P);
    Expected<NativeKernel> NK = NativeKernel::load(CK);
    ll::Bindings In = makeInputs(P, 0x5e7, Rep);
    std::string Why;
    if (!NK || !checkNative(*NK, P, In, ll::evaluate(P, In),
                            std::vector<unsigned>(P.Operands.size(), 0),
                            Why)) {
      std::fprintf(stderr, "perfbench: warm-up compile failed: %s\n",
                   NK ? Why.c_str() : NK.error().c_str());
      std::exit(1);
    }
    SetupS.push_back((nowNs() - T0) / 1e9);
    phaseDone("set-up", T0);
  }

  // After each cold kernel comes a warm slice: in-process dispatches over
  // the round's kernels so far, and a pass of the native timer over every
  // kernel loaded. The warm samples thus cover every kernel and the whole
  // run. The cold path and its dispatch slice (cc included: children
  // inherit the pin) run on the CPUs in turn.
  Draw D(A.Seed, {Rounds});
  ColdStats Cold;
  std::vector<double> DispatchNs;
  size_t RoundsRun = 0;
  LoadStats Load;
  int64_t T0 = nowNs();
  int64_t Deadline = T0 + static_cast<int64_t>(A.Seconds * 1e9);
  for (size_t Round = 0; Round != D.capacity() && nowNs() < Deadline;
       ++Round) {
    std::vector<Kernel> Kernels;
    ++RoundsRun;
    for (size_t F = 0; F != RoundSize; ++F) {
      size_t Index = Round * RoundSize + F;
      Cpus::get().pin(Index);
      int64_t TK = nowNs();
      bool Ok = coldKernel(*C, D.source(F, Round), Index, A.Seed, T, Cold,
                           Kernels);
      Cold.WallS += (nowNs() - TK) / 1e9;
      if (Ok) {
        std::vector<double> Ns =
            warmDispatch(*C, Kernels, DispatchesPerKernel, T);
        DispatchNs.insert(DispatchNs.end(), Ns.begin(), Ns.end());
      }
      Cpus::get().unpin();
      Cold.Native.pass(NativeBatchesPerPass);
    }
    if (T.enabled())
      warmService(*C, Kernels, Config, A.Seed, T, Load);
  }
  Cold.Native.pass(4 * NativeBatchesPerPass);
  phaseDone("rounds", T0);

  Report R;
  R.EndToEnd["setup_s"] = {median(SetupS), "s"};
  R.EndToEnd["ttfr_ms.p50"] = {median(Cold.TtfrMs), "ms"};
  R.EndToEnd["kernels_per_s"] = {Cold.Kernels / Cold.WallS, "1/s"};
  R.EndToEnd["native_ns.geomean"] = {geomean(Cold.Native.medians()), "ns"};
  R.EndToEnd["model_fpc.geomean"] = {geomean(Cold.ModelFpc), "flops/cycle"};
  R.EndToEnd["so_kb"] = {Cold.SoBytes / 1024.0 / RoundsRun, "KB"};
  if (!reportQuantile(R.EndToEnd, "dispatch_ns.p50", DispatchNs, 0.5, 1,
                      "ns") ||
      !reportQuantile(R.EndToEnd, "dispatch_ns.p99", DispatchNs, 0.99, 1,
                      "ns"))
    std::exit(1);
  if (T.enabled()) {
    // The warm service's own end-to-end figures, from the traced run.
    reportQuantile(R.PerLayer, "service.rt_ms.p50", Load.Ns, 0.5, 1e6, "ms");
    reportQuantile(R.PerLayer, "service.rt_ms.p99", Load.Ns, 0.99, 1e6, "ms");
    R.PerLayer["service.req_per_s"] = {
        Load.WallS > 0 ? Load.Ns.size() / Load.WallS : 0.0, "1/s"};
    R.PerLayer["trace.overhead_pct"] = {median(Cold.TraceOverhead), "%"};
  }
  return R;
}

/// Per-layer metrics from the span recorder: (metric, span or counter,
/// divisor from ns, unit). Layers a workload never enters report 0.
void reportLayers(Report &R, const Tracer &T) {
  struct Layer {
    const char *Metric;
    const char *Source;
    double Div; ///< 0 marks a counter.
    const char *Unit;
  };
  static const Layer Layers[] = {
      {"ll.parse_us", "ll.parse", 1e3, "us"},
      {"compiler.tune_ms", "compiler.tune", 1e6, "ms"},
      {"cir.core_ms", "cir.core", 1e6, "ms"},
      {"absint.version_ms", "absint.version", 1e6, "ms"},
      {"absint.versions", "absint.versions", 0, "count"},
      {"absint.distinct_bodies", "absint.distinct_bodies", 0, "count"},
      {"absint.distinct_ratio", "absint.distinct_ratio", 0, "ratio"},
      {"machine.finalize_ms", "machine.finalize", 1e6, "ms"},
      {"machine.finalize_calls", "machine.finalize_calls", 0, "count"},
      {"codegen.unparse_ms", "codegen.unparse", 1e6, "ms"},
      {"codegen.c_kb", "codegen.c_kb", 0, "KB"},
      {"runtime.cc_ms", "runtime.cc", 1e6, "ms"},
      {"runtime.dlopen_ms", "runtime.dlopen", 1e6, "ms"},
      {"compiler.lookup_ns", "compiler.lookup", 1, "ns"},
      {"runtime.acquire_ns", "runtime.acquire", 1, "ns"},
      {"runtime.marshal_ns", "runtime.marshal", 1, "ns"},
      {"service.http_us", "service.http", 1e3, "us"},
      {"service.submit_us", "service.submit", 1e3, "us"},
      {"service.poll_us", "service.poll", 1e3, "us"},
      {"service.polls_per_req", "service.polls_per_req", 0, "count"},
      {"service.queue_ms", "service.queue", 1e6, "ms"},
      {"compiler.cold_ms", "compiler.cold", 1e6, "ms"},
      {"compiler.hit_us", "compiler.hit", 1e3, "us"},
      {"machine.model_us", "machine.model", 1e3, "us"},
      {"machine.sim_us", "machine.sim", 1e3, "us"},
  };
  std::map<std::string, double> Self = T.selfTimeNs();
  std::map<std::string, double> Counts = T.counters();
  for (const Layer &L : Layers) {
    const auto &From = L.Div == 0 ? Counts : Self;
    auto It = From.find(L.Source);
    double V = It == From.end() ? 0.0 : It->second / (L.Div == 0 ? 1 : L.Div);
    R.PerLayer[L.Metric] = {V, L.Unit};
  }
  for (const auto &[Name, Unit] :
       {std::pair<const char *, const char *>{"service.rt_ms.p50", "ms"},
        {"service.rt_ms.p99", "ms"},
        {"service.req_per_s", "1/s"},
        {"trace.overhead_pct", "%"}})
    R.PerLayer.emplace(Name, Metric{0.0, Unit});
}

void printResult(const Report &R, bool Trace) {
  const auto &M = Trace ? R.PerLayer : R.EndToEnd;
  std::string Out = "{\"correct\": ";
  Out += Ops.Wrong ? "false" : "true";
  Out += ", \"attempted\": " + std::to_string(Ops.Attempted.load());
  Out += ", \"failed\": " + std::to_string(Ops.Failed.load());
  Out += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, V] : M) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  First ? "" : ", ", Name.c_str(), V.Value, V.Unit);
    Out += Buf;
    First = false;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--trace-out")
      A.TraceOut = V;
    else
      return false;
  }
  return Argc % 2 == 1 && !A.Workload.empty() && A.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: %s --workload cold-full|cold-base "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
                 Argv[0]);
    return 2;
  }
  Tracer T(A.Trace);
  Report R;
  std::string FaultConfig = "LGen-Full";
  if (A.Workload == "cold-full") {
    R = runCold(A, "LGen-Full", ColdFullRounds, T);
  } else if (A.Workload == "cold-base") {
    R = runCold(A, "LGen", ColdBaseRounds, T);
    FaultConfig = "LGen";
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }
  R.EndToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
  checkFaultIsCaught(FaultConfig);
  if (A.Trace) {
    reportLayers(R, T);
    if (!A.TraceOut.empty() && !T.write(A.TraceOut))
      std::fprintf(stderr, "perfbench: cannot write %s\n", A.TraceOut.c_str());
  }
  printResult(R, A.Trace);
  return Ops.Wrong ? 1 : 0;
}
