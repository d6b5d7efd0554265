//===- Draw.h - Seeded, stratified BLAC draws ------------------*- C++ -*-===//
//
// Part of the LGen end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inputs of every workload, made from the seed. A *round* holds one
/// BLAC of each family below (the thesis §5.1.1 families, shapes from
/// bench/Blacs.h). All BLACs of a run are distinct sources. The seed draws
/// the order of each family's sizes, every operand value and every base
/// offset; which sizes a workload compiles is fixed, because the cost of a
/// kernel (its versions, its C, its cache-hit clone) moves steeply with its
/// shape, and figures that moved with the draw could gate nothing.
///
//===----------------------------------------------------------------------===//

#ifndef LGEN_PERFBENCH_DRAW_H
#define LGEN_PERFBENCH_DRAW_H

#include "bench/Blacs.h"
#include "support/Support.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// An independent generator for stream \p Stream of run seed \p Seed.
inline lgen::Rng streamRng(uint64_t Seed, uint64_t Stream) {
  return lgen::Rng(splitmix64(splitmix64(Seed) ^ (Stream * 0x632be59bd9b4e019ULL)));
}

/// A family and its ladder of sizes. Each ladder mixes dimensions on and
/// off multiples of ν at a similar amount of work.
struct Family {
  const char *Name;
  std::vector<std::string> Ladder;
};

namespace bl = lgen::bench::blacs;

/// The families of one round: one per §5.1.1 category that compiles in
/// seconds. Five, so the median kernel of any whole number of rounds is the
/// middle family's, not a boundary between two. The four-operand BLACs
/// (twoMvm, addTransGemm) are left out: under LGen-Full each has 257
/// versions and costs 20–25 s of cc alone, more than a run can hold.
inline const std::vector<Family> &families() {
  static const std::vector<Family> F = {
      {"axpy",
       {bl::axpy(32), bl::axpy(37), bl::axpy(42), bl::axpy(47), bl::axpy(34),
        bl::axpy(39)}},
      {"mvm",
       {bl::mvm(4, 12), bl::mvm(7, 9), bl::mvm(5, 13), bl::mvm(8, 10),
        bl::mvm(6, 11), bl::mvm(9, 7)}},
      {"bilinear",
       {bl::bilinear(4, 8), bl::bilinear(7, 5), bl::bilinear(5, 10),
        bl::bilinear(6, 9), bl::bilinear(8, 6), bl::bilinear(5, 7)}},
      {"gemv",
       {bl::gemv(4, 12), bl::gemv(7, 9), bl::gemv(5, 13), bl::gemv(8, 10),
        bl::gemv(6, 11), bl::gemv(9, 7)}},
      {"gemm",
       {bl::gemm(4, 4, 8), bl::gemm(5, 4, 7), bl::gemm(6, 4, 9),
        bl::gemm(4, 5, 10), bl::gemm(7, 4, 6), bl::gemm(4, 6, 5)}},
  };
  return F;
}

/// The kernels of one run: the first entries of every family's ladder, in
/// an order drawn from the seed. \p Groups splits those entries into
/// consecutive groups (say, a warm set and a trickle) and the seed only
/// shuffles within a group, so every seed compiles the same kernels in the
/// same roles and the per-run figures do not move with the draw.
class Draw {
public:
  Draw(uint64_t Seed, const std::vector<size_t> &Groups) {
    for (size_t F = 0; F != families().size(); ++F) {
      lgen::Rng R = streamRng(Seed, 100 + F);
      std::vector<size_t> Order;
      for (size_t G : Groups) {
        size_t First = Order.size();
        for (size_t I = 0; I != G; ++I)
          Order.push_back(First + I);
        for (size_t I = G; I > 1; --I)
          std::swap(Order[First + I - 1], Order[First + R.nextBelow(I)]);
      }
      Orders.push_back(std::move(Order));
    }
  }
  /// How many distinct sources every family supplies.
  size_t capacity() const { return Orders.front().size(); }
  std::string source(size_t F, size_t K) const {
    return families()[F].Ladder[Orders[F][K]];
  }

private:
  std::vector<std::vector<size_t>> Orders;
};

} // namespace perfbench

#endif // LGEN_PERFBENCH_DRAW_H
