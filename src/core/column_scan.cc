#include "core/column_scan.h"

#include <algorithm>
#include <cmath>
#include <limits>

// Built with -fno-trapping-math (lets GCC if-convert the float selects of
// the prefilter loop; no IEEE result changes) and -ffp-contract=off (every
// variant rounds each operation separately, so the lower bounds are
// bit-identical across variants). See src/CMakeLists.txt.

namespace halk::core {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// Range reduction x = k·π + r, |r| <= π/2 + 1.2e-4, Cody-Waite style:
// kPiHi has 8 significant bits, so k·kPiHi is exact for the |k| <= 326 that
// |x| <= kAbsSinSafeLimit allows, and x - k·kPiHi is exact by Sterbenz.
constexpr float kInvPi = 0.318309886183790671538f;
constexpr float kPiHi = 3.140625f;
constexpr float kPiLo = 9.67653589793e-4f;  // π - kPiHi
// Adding and subtracting 1.5·2^23 rounds |v| < 2^22 to the nearest integer
// in plain SSE2 code.
constexpr float kRoundMagic = 12582912.0f;

struct SinCos {
  float sin;
  float cos;
};

// sin r and cos r (Taylor to r^9 and r^10) of the reduced argument. sin x
// and cos x are these up to one common sign (-1)^k, so |sin x| = |sin r|
// and |sin x·cos a ± cos x·sin a| = |sin r·cos a ± cos r·sin a|.
//
// Error budget for |x| <= kAbsSinSafeLimit, |r| < 1.6:
//   sin: truncation |r|^11/11! < 4.5e-6; reduction (rounding of k·kPiLo
//        and of the subtraction, plus 326·|π - kPiHi - kPiLo|) < 1.4e-7;
//        Horner in float < 1.8e-7. Total < 4.9e-6.
//   cos: truncation |r|^12/12! < 6.0e-7; reduction and Horner as above.
//        Total < 1.0e-6.
__attribute__((always_inline)) inline SinCos ReducedSinCos(float x) {
  const float k = (x * kInvPi + kRoundMagic) - kRoundMagic;
  const float r = (x - k * kPiHi) - k * kPiLo;
  const float r2 = r * r;
  float s = 2.75573192240e-6f;     //  1/9!
  s = s * r2 - 1.98412698413e-4f;  // -1/7!
  s = s * r2 + 8.33333333333e-3f;  //  1/5!
  s = s * r2 - 1.66666666667e-1f;  // -1/3!
  float c = -2.75573192240e-7f;    // -1/10!
  c = c * r2 + 2.48015873016e-5f;  //  1/8!
  c = c * r2 - 1.38888888889e-3f;  // -1/6!
  c = c * r2 + 4.16666666667e-2f;  //  1/4!
  c = c * r2 - 0.5f;               // -1/2!
  return {r + r * r2 * s, 1.0f + r2 * c};
}

// max(|v| - margin, 0); 0 for NaN v and for an infinite margin.
__attribute__((always_inline)) inline float LowerBound(float v, float margin) {
  const float lower = std::fabs(v) - margin;
  return lower > 0.0f ? lower : 0.0f;
}

// Per dimension the exact kernel adds, with tc/ts/te the float chords to
// the center/start/end and hw the half-width chord,
//   outside (tc > hw):  d_o += min(ts, te);  d_i += hw
//   inside:                                  d_i += tc
// Here tc_lo <= tc, ts_lo <= ts and te_lo <= te:
//   * tc_lo: the exact kernel's sine argument is this same float x, so
//     |sin r| - kAbsSinEpsilon (4.9e-6 of polynomial error plus about one
//     ulp of std::sin) is below its |sin x|; 2ρ·(·) rounds monotonically.
//   * ts_lo, te_lo: with x_s = x + (c - a_s)/2 exactly,
//     sin x_s = sin x·cos((c - a_s)/2) + cos x·sin((c - a_s)/2), and
//     likewise for the end. Error: polynomials 4.9e-6 + 1.0e-6, the
//     float-rounded constants and three roundings 3e-7, the rounding of
//     θ - c and of the exact kernel's θ - a_s (each moves a sine argument
//     by at most 2^-20 while |θ|, |c|, |a_s|, |a_e| <= kEndpointLimit),
//     and std::sin's ulp: in all < 8.3e-6 < kEndpointEpsilon. Outside
//     those limits the bound is 0.
// tc_lo > hw proves the outside case; there the terms are bounded by
// min(ts_lo, te_lo) and hw. Otherwise (inside, or not provably outside)
// d_o gets 0 and d_i gets min(tc_lo, hw), which is below both hw and tc.
// Each lower-bound term is <= its exact term, so the float sums, taken in
// the same order, are <= the exact float sums.
__attribute__((always_inline)) inline void AddLowerBoundsBody(
    const float* __restrict column, int64_t rows, const PrefilterDim& dim,
    float* __restrict lo_out, float* __restrict lo_in) {
  const PrefilterDim p = dim;
  for (int64_t i = 0; i < rows; ++i) {
    const float theta = column[i];
    const float x = (theta - p.center) / 2.0f;
    const SinCos sc = ReducedSinCos(x);
    const float to_center =
        p.two_rho * (std::fabs(x) <= kAbsSinSafeLimit
                         ? LowerBound(sc.sin, kAbsSinEpsilon)
                         : 0.0f);
    const float margin =
        std::fabs(theta) <= kEndpointLimit ? p.endpoint_margin : kInf;
    const float to_start = p.two_rho * LowerBound(sc.sin * p.cos_start +
                                                      sc.cos * p.sin_start,
                                                  margin);
    const float to_end = p.two_rho * LowerBound(sc.sin * p.cos_end -
                                                    sc.cos * p.sin_end,
                                                margin);
    const float nearest = to_start < to_end ? to_start : to_end;
    lo_out[i] += to_center > p.half_width ? nearest : 0.0f;
    lo_in[i] += to_center < p.half_width ? to_center : p.half_width;
  }
}

void AddLowerBoundsBaseline(const float* column, int64_t rows,
                            const PrefilterDim& dim, float* lo_out,
                            float* lo_in) {
  AddLowerBoundsBody(column, rows, dim, lo_out, lo_in);
}

#if defined(__x86_64__) || defined(__i386__)
// The same loop compiled for AVX2 (x86-64-v3 also guarantees FMA; with
// contraction off it is not used, so results match the baseline bit for
// bit).
__attribute__((target("avx2,fma"))) void AddLowerBoundsAvx2(
    const float* column, int64_t rows, const PrefilterDim& dim,
    float* lo_out, float* lo_in) {
  AddLowerBoundsBody(column, rows, dim, lo_out, lo_in);
}
#endif

std::vector<ScanKernel> DetectKernels() {
  std::vector<ScanKernel> kernels = {{"baseline", &AddLowerBoundsBaseline}};
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    kernels.push_back({"avx2", &AddLowerBoundsAvx2});
  }
#endif
  return kernels;
}

// Threshold a prefilter partial must exceed for its pair to be pruned.
float PruneThreshold(float bound) {
  if (!std::isfinite(bound)) return bound;
  return bound + std::fabs(bound) * kPruneSlack + kPruneFloor;
}

// A pair survives while its partial d_o + η·d_i — the exact kernel's
// expression — does not exceed the threshold; a NaN partial survives and
// goes to the exact kernel.
inline bool Survives(float lo_out, float lo_in, float eta, float threshold) {
  return !(lo_out + eta * lo_in > threshold);
}

// Whether any of n pairs survives, written as a flag reduction so it
// vectorizes.
bool AnySurvivor(const float* lo_out, const float* lo_in, int64_t n,
                 float eta, float threshold) {
  int alive = 0;
  for (int64_t i = 0; i < n; ++i) {
    alive |= static_cast<int>(Survives(lo_out[i], lo_in[i], eta, threshold));
  }
  return alive != 0;
}

}  // namespace

const std::vector<ScanKernel>& SupportedScanKernels() {
  static const std::vector<ScanKernel> kernels = DetectKernels();
  return kernels;
}

const ScanKernel& DefaultScanKernel() {
  return SupportedScanKernels().back();
}

float AbsSinLowerBound(float x) {
  return std::fabs(x) <= kAbsSinSafeLimit
             ? LowerBound(ReducedSinCos(x).sin, kAbsSinEpsilon)
             : 0.0f;
}

std::vector<PrefilterDim> MakePrefilterDims(const ArcConstants& arc) {
  std::vector<PrefilterDim> dims(arc.center.size());
  for (size_t j = 0; j < dims.size(); ++j) {
    PrefilterDim& p = dims[j];
    const float c = arc.center[j];
    p.two_rho = 2.0f * arc.rho;  // the exact kernel's factor
    p.center = c;
    p.half_width = arc.half_width[j];
    // Half-angles from the center to each endpoint, exact in double.
    const double to_start = (static_cast<double>(c) - arc.a_s[j]) / 2.0;
    const double to_end = (static_cast<double>(arc.a_e[j]) - c) / 2.0;
    p.sin_start = static_cast<float>(std::sin(to_start));
    p.cos_start = static_cast<float>(std::cos(to_start));
    p.sin_end = static_cast<float>(std::sin(to_end));
    p.cos_end = static_cast<float>(std::cos(to_end));
    const bool in_range = std::fabs(c) <= kEndpointLimit &&
                          std::fabs(arc.a_s[j]) <= kEndpointLimit &&
                          std::fabs(arc.a_e[j]) <= kEndpointLimit;
    p.endpoint_margin = in_range ? kEndpointEpsilon : kInf;
  }
  return dims;
}

ColumnScanner::ColumnScanner(const std::vector<ArcConstants>& arcs,
                             const ScanKernel& kernel)
    : arcs_(arcs), kernel_(kernel) {
  if (arcs.empty()) return;
  dim_ = static_cast<int64_t>(arcs.front().center.size());
  for (const ArcConstants& arc : arcs) {
    const std::vector<PrefilterDim> dims = MakePrefilterDims(arc);
    dims_.insert(dims_.end(), dims.begin(), dims.end());
  }
  lo_out_.resize(arcs.size() * static_cast<size_t>(kScanSubBlockRows));
  lo_in_.resize(lo_out_.size());
  row_.resize(static_cast<size_t>(dim_));
}

void ColumnScanner::Scan(const ColumnBlockView& block, TopKAccumulator* acc,
                         ScanStats* stats) {
  if (block.rows <= 0 || arcs_.empty()) return;
  const int64_t d = dim_;
  const size_t nb = arcs_.size();
  constexpr size_t kSub = static_cast<size_t>(kScanSubBlockRows);
  int64_t pruned = 0;
  int64_t reranked = 0;
  int64_t dims_read = 0;

  for (int64_t r0 = 0; r0 < block.rows; r0 += kScanSubBlockRows) {
    const int64_t n = std::min(kScanSubBlockRows, block.rows - r0);
    // Pushes from earlier sub-blocks only tighten the bound, so pruning
    // against this value stays conservative for the whole sub-block.
    const float threshold = PruneThreshold(acc->bound());
    auto survives = [&](size_t b, int64_t i) {
      const size_t idx = b * kSub + static_cast<size_t>(i);
      return Survives(lo_out_[idx], lo_in_[idx], arcs_[b].eta, threshold);
    };
    std::fill(lo_out_.begin(), lo_out_.end(), 0.0f);
    std::fill(lo_in_.begin(), lo_in_.end(), 0.0f);
    bool any_alive = true;
    int64_t j = 0;
    while (j < d && any_alive) {
      const float* column = block.columns + j * block.column_stride + r0;
      for (size_t b = 0; b < nb; ++b) {
        kernel_.add_lower_bounds(column, n,
                                 dims_[b * static_cast<size_t>(d) +
                                       static_cast<size_t>(j)],
                                 lo_out_.data() + b * kSub,
                                 lo_in_.data() + b * kSub);
      }
      ++j;
      any_alive = false;
      for (size_t b = 0; b < nb && !any_alive; ++b) {
        any_alive = AnySurvivor(lo_out_.data() + b * kSub,
                                lo_in_.data() + b * kSub, n, arcs_[b].eta,
                                threshold);
      }
    }
    dims_read = std::max(dims_read, j);
    if (!any_alive) {
      pruned += n;
      continue;
    }

    for (int64_t i = 0; i < n; ++i) {
      bool candidate = false;
      for (size_t b = 0; b < nb; ++b) candidate |= survives(b, i);
      if (!candidate) {
        ++pruned;
        continue;
      }
      ++reranked;
      for (int64_t k = 0; k < d; ++k) {
        row_[static_cast<size_t>(k)] =
            block.columns[k * block.column_stride + r0 + i];
      }
      // The in-RAM loop (HalkModel::AccumulateTopKRange) over the
      // surviving arcs: a pruned arc's exact distance exceeds the bound,
      // so it can neither be the minimum nor admit the entity.
      const float admission = acc->bound();
      float dmin = kInf;
      for (size_t b = 0; b < nb; ++b) {
        if (!survives(b, i)) continue;
        const float cap = std::min(dmin, admission);
        dmin = std::min(dmin,
                        ArcPointDistanceBounded(row_.data(), arcs_[b], cap));
      }
      if (dmin <= admission) {
        acc->Push(block.first_entity + r0 + i, dmin);
      } else {
        ++pruned;
      }
    }
  }
  if (stats != nullptr) {
    stats->entities_scanned += block.rows;
    stats->entities_pruned += pruned;
    stats->entities_reranked += reranked;
    stats->column_blocks_scanned += dims_read;
    stats->column_blocks_skipped += d - dims_read;
  }
}

}  // namespace halk::core
