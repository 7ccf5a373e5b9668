#ifndef HALK_CORE_COLUMN_SCAN_H_
#define HALK_CORE_COLUMN_SCAN_H_

#include <cstdint>
#include <vector>

#include "core/distance.h"
#include "core/query_model.h"
#include "core/topk.h"

namespace halk::core {

/// Two-pass exact top-k scan over a dimension-minor (columnar) entity
/// table — the kernel of the mmap store's Scan (docs/storage.md).
///
///   1. Prefilter: a branch-free, vectorizable loop adds, per (row, arc)
///      and dimension, lower bounds of the exact kernel's two per-dimension
///      terms (ArcPointDistanceBounded's d_o and d_i). No std::sin: the
///      center chord comes from a range-reduced polynomial sine, the
///      endpoint chords from that sine and cosine by angle addition. The
///      bounds are accumulated in the exact kernel's two sums, in its
///      order, so the float partial d_o + η·d_i never exceeds the exact
///      one. A pair is dropped once its partial exceeds the admission
///      bound (plus the kPruneSlack/kPruneFloor margin).
///   2. Rerank: every row with a surviving arc is gathered and scored by
///      the unchanged ArcPointDistanceBounded over its surviving arcs,
///      capped exactly like the in-RAM loop, so every pushed value is
///      bit-identical to the in-RAM scan.
///
/// The admission bound is re-read before every kScanSubBlockRows rows.

/// Absolute error bound of the prefilter's |sin x| against the float
/// |std::sin(x)| for |x| <= kAbsSinSafeLimit (derivation in
/// column_scan.cc; tests/core/column_scan_test.cc samples it).
inline constexpr float kAbsSinEpsilon = 0x1p-16f;
/// Largest |x| the range reduction covers; beyond it (and for NaN) the
/// lower bound of |sin x| is 0, which leaves the term to the exact rerank.
inline constexpr float kAbsSinSafeLimit = 1024.0f;
/// Endpoint chords are bounded only while the entity angle and the arc's
/// center and endpoints are within ±kEndpointLimit (the float rounding of
/// θ - a_s in the exact kernel is then below 2^-20); otherwise their lower
/// bound is 0. kEndpointEpsilon is their absolute error bound.
inline constexpr float kEndpointLimit = 32.0f;
inline constexpr float kEndpointEpsilon = 0x1p-15f;

/// Pruning margin: a pair is pruned only when its prefilter partial
/// exceeds bound + |bound|·kPruneSlack + kPruneFloor. The lower-bound sums
/// need none when the exact kernel rounds every operation (the default
/// build); the margin keeps the scan exact if the compiler fuses the exact
/// kernel's final d_o + η·d_i into one FMA (a few ulps), and kPruneFloor
/// covers that fusion near the subnormal range.
inline constexpr float kPruneSlack = 0x1p-20f;
inline constexpr float kPruneFloor = 0x1p-126f;

/// Rows per prefilter sub-block; the admission bound is refreshed before
/// each one.
inline constexpr int64_t kScanSubBlockRows = 128;

/// Prefilter constants of one arc in one dimension.
struct PrefilterDim {
  float two_rho = 0.0f;
  float center = 0.0f;
  float half_width = 0.0f;
  float sin_start = 0.0f;  // sin((center - a_s) / 2)
  float cos_start = 0.0f;  // cos((center - a_s) / 2)
  float sin_end = 0.0f;    // sin((a_e - center) / 2)
  float cos_end = 0.0f;    // cos((a_e - center) / 2)
  /// kEndpointEpsilon, or +inf (endpoint bounds 0) when the center or an
  /// endpoint is beyond kEndpointLimit.
  float endpoint_margin = kEndpointEpsilon;
};

/// The prefilter constants of `arc`, one per dimension.
std::vector<PrefilterDim> MakePrefilterDims(const ArcConstants& arc);

/// One compiled copy of the prefilter loop.
struct ScanKernel {
  const char* name;
  /// For rows [0, rows) of `column` (one dimension of consecutive
  /// entities), adds lower bounds of the exact kernel's d_o and d_i terms
  /// for that dimension of the arc to lo_out[i] and lo_in[i].
  void (*add_lower_bounds)(const float* column, int64_t rows,
                           const PrefilterDim& dim, float* lo_out,
                           float* lo_in);
};

/// The variants the host CPU can run, baseline first. Every variant
/// computes bit-identical lower bounds (the source file disables FMA
/// contraction), so they differ in speed only.
const std::vector<ScanKernel>& SupportedScanKernels();

/// The widest supported variant, picked once with __builtin_cpu_supports.
const ScanKernel& DefaultScanKernel();

/// The prefilter's |sin x| lower bound: within kAbsSinEpsilon of the float
/// |std::sin(x)| and never above it; 0 when |x| > kAbsSinSafeLimit or x
/// is NaN.
float AbsSinLowerBound(float x);

/// A slice of a dimension-minor table: dimension j of `rows` consecutive
/// entities, the first being `first_entity`, starts at
/// `columns + j * column_stride`.
struct ColumnBlockView {
  const float* columns = nullptr;
  int64_t column_stride = 0;
  int64_t rows = 0;
  int64_t first_entity = 0;
};

/// Scans column blocks against one set of arcs (the DNF branches of one
/// request; rho > 0, eta >= 0, all of the table's width). Holds the
/// prefilter constants and scratch, and a reference to `arcs`, which must
/// outlive it. Not thread-safe; use one per scan.
class ColumnScanner {
 public:
  explicit ColumnScanner(const std::vector<ArcConstants>& arcs,
                         const ScanKernel& kernel = DefaultScanKernel());

  /// Streams the block's entities into `acc`, scoring each by its minimum
  /// exact arc distance. Exact: the heap afterwards equals the in-RAM
  /// HalkModel loop over the same entities in the same order. `stats`
  /// (optional) gains entities_scanned/_pruned/_reranked and the block's
  /// column blocks read vs skipped — a dimension counts as read when any
  /// sub-block's prefilter reached it.
  void Scan(const ColumnBlockView& block, TopKAccumulator* acc,
            ScanStats* stats);

 private:
  const std::vector<ArcConstants>& arcs_;
  const ScanKernel& kernel_;
  int64_t dim_ = 0;
  std::vector<PrefilterDim> dims_;  // arc b, dimension j at b * dim_ + j
  // Arc-major partial sums of one sub-block: pair (b, i) at
  // b * kScanSubBlockRows + i.
  std::vector<float> lo_out_;
  std::vector<float> lo_in_;
  std::vector<float> row_;
};

}  // namespace halk::core

#endif  // HALK_CORE_COLUMN_SCAN_H_
