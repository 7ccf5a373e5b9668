#include "core/column_scan.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/distance.h"
#include "core/topk.h"

namespace halk::core {
namespace {

constexpr float kPi = 3.14159265358979f;
constexpr float kInf = std::numeric_limits<float>::infinity();

float Ulps(float x, int n) {
  const float dir = n >= 0 ? kInf : -kInf;
  for (int i = 0; i < std::abs(n); ++i) x = std::nextafter(x, dir);
  return x;
}

// Dimension j of `arc` as a one-dimensional arc, so the exact kernel
// returns that dimension's float term.
ArcConstants Dimension(const ArcConstants& arc, size_t j, float eta) {
  ArcConstants one;
  one.rho = arc.rho;
  one.eta = eta;
  one.a_s = {arc.a_s[j]};
  one.a_e = {arc.a_e[j]};
  one.center = {arc.center[j]};
  one.half_width = {arc.half_width[j]};
  return one;
}

ArcConstants RandomArc(Rng* rng, int64_t dim, float rho, float eta) {
  std::vector<float> center(static_cast<size_t>(dim));
  std::vector<float> length(static_cast<size_t>(dim));
  for (int64_t j = 0; j < dim; ++j) {
    center[static_cast<size_t>(j)] =
        static_cast<float>(rng->Uniform(0.0, 2.0 * kPi));
    length[static_cast<size_t>(j)] =
        static_cast<float>(rng->Uniform(0.0, 2.0 * kPi * rho));
  }
  return MakeArcConstants(center.data(), length.data(), dim, rho, eta);
}

// Angles that stress the prefilter for one dimension: the center and both
// endpoints (and a few ulps around them), their antipodes, the 2π wrap,
// and |θ - c|/2 at and beyond the range reduction's safe limit.
std::vector<float> AdversarialAngles(const ArcConstants& arc, size_t j) {
  std::vector<float> out;
  for (const float base : {arc.center[j], arc.a_s[j], arc.a_e[j]}) {
    for (const float shift : {0.0f, kPi, -kPi, 2.0f * kPi, -2.0f * kPi,
                              4.0f * kPi}) {
      const float t = base + shift;
      for (int u = -3; u <= 3; ++u) out.push_back(Ulps(t, u));
      out.push_back(t + 1e-4f);
      out.push_back(t - 1e-4f);
    }
  }
  const float c = arc.center[j];
  for (const float edge : {2.0f * kAbsSinSafeLimit, -2.0f * kAbsSinSafeLimit}) {
    for (int u = -2; u <= 2; ++u) out.push_back(Ulps(c + edge, u));
  }
  for (const float far : {3000.0f, -3000.0f, 1e6f, -1e30f, kInf, -kInf,
                          std::numeric_limits<float>::quiet_NaN()}) {
    out.push_back(far);
  }
  return out;
}

TEST(AbsSinLowerBoundTest, BelowFloatSineAndWithinTwoEpsilon) {
  Rng rng(11);
  std::vector<float> xs;
  for (int i = 0; i < 400000; ++i) {
    xs.push_back(static_cast<float>(
        rng.Uniform(-kAbsSinSafeLimit, kAbsSinSafeLimit)));
  }
  // Near every multiple of π/2 in the safe range: zeros and peaks of |sin|,
  // where range reduction and the polynomial are at their worst.
  for (int m = -652; m <= 652; ++m) {
    const float x = static_cast<float>(m) * (kPi / 2.0f);
    if (std::fabs(x) > kAbsSinSafeLimit) continue;
    for (int u = -4; u <= 4; ++u) xs.push_back(Ulps(x, u));
  }
  for (const float x : {0.0f, -0.0f, 1e-30f, -1e-30f, 1e-7f, kAbsSinSafeLimit,
                        -kAbsSinSafeLimit}) {
    xs.push_back(x);
  }
  for (const float x : xs) {
    const float exact = std::fabs(std::sin(x));
    const float lower = AbsSinLowerBound(x);
    ASSERT_GE(lower, 0.0f) << x;
    ASSERT_LE(lower, exact) << "x=" << x;
    ASSERT_GE(lower, exact - 2.0f * kAbsSinEpsilon) << "x=" << x;
  }
}

TEST(AbsSinLowerBoundTest, ZeroBeyondTheSafeLimit) {
  for (const float x :
       {Ulps(kAbsSinSafeLimit, 1), Ulps(-kAbsSinSafeLimit, -1), 2048.0f,
        1e6f, -1e20f, kInf, -kInf, std::numeric_limits<float>::quiet_NaN()}) {
    EXPECT_EQ(AbsSinLowerBound(x), 0.0f) << x;
  }
}

class ScanKernelTest : public ::testing::TestWithParam<size_t> {
 protected:
  const ScanKernel& kernel() const {
    return SupportedScanKernels()[GetParam()];
  }
};

// The prefilter's per-dimension terms never exceed the exact kernel's:
// d_o alone (η = 0) and the combined d_o + η·d_i for several η.
TEST_P(ScanKernelTest, LowerBoundNeverExceedsExactTerm) {
  Rng rng(5 + GetParam());
  const int64_t dim = 6;
  for (int trial = 0; trial < 40; ++trial) {
    const float rho = trial % 4 == 0 ? 0.37f : 1.0f + static_cast<float>(trial);
    const ArcConstants arc = RandomArc(&rng, dim, rho, 0.5f);
    for (size_t j = 0; j < static_cast<size_t>(dim); ++j) {
      std::vector<float> thetas = AdversarialAngles(arc, j);
      for (int i = 0; i < 64; ++i) {
        thetas.push_back(static_cast<float>(rng.Uniform(-10.0, 10.0)));
      }
      const int64_t n = static_cast<int64_t>(thetas.size());
      std::vector<float> lo_out(thetas.size(), 0.0f);
      std::vector<float> lo_in(thetas.size(), 0.0f);
      kernel().add_lower_bounds(thetas.data(), n, MakePrefilterDims(arc)[j],
                                lo_out.data(), lo_in.data());
      for (size_t i = 0; i < thetas.size(); ++i) {
        const float theta = thetas[i];
        ASSERT_GE(lo_out[i], 0.0f);
        ASSERT_GE(lo_in[i], 0.0f);
        const float outside = ArcPointDistanceBounded(
            &theta, Dimension(arc, j, 0.0f), kInf);
        if (!std::isnan(outside)) {
          ASSERT_LE(lo_out[i], outside) << "theta=" << theta;
        }
        for (const float eta : {0.25f, 1.0f, 3.0f}) {
          const float exact =
              ArcPointDistanceBounded(&theta, Dimension(arc, j, eta), kInf);
          if (std::isnan(exact)) continue;
          ASSERT_LE(lo_out[i] + eta * lo_in[i], exact)
              << "theta=" << theta << " eta=" << eta;
        }
        // Beyond the range reduction's limit the term falls back to 0.
        if (!(std::fabs((theta - arc.center[j]) / 2.0f) <= kAbsSinSafeLimit)) {
          EXPECT_EQ(lo_out[i], 0.0f) << theta;
          EXPECT_EQ(lo_in[i], 0.0f) << theta;
        }
        // Beyond the endpoint limit only the center chord is bounded.
        if (!(std::fabs(theta) <= kEndpointLimit)) {
          EXPECT_EQ(lo_out[i], 0.0f) << theta;
        }
      }
    }
  }
}

// Every variant computes the same lower bounds, bit for bit.
TEST_P(ScanKernelTest, MatchesTheBaselineBitForBit) {
  Rng rng(23);
  const int64_t dim = 4;
  const int64_t n = 333;
  const ArcConstants arc = RandomArc(&rng, dim, 1.0f, 0.7f);
  const std::vector<PrefilterDim> dims = MakePrefilterDims(arc);
  std::vector<float> column(static_cast<size_t>(n));
  for (float& v : column) v = static_cast<float>(rng.Uniform(-7.0, 14.0));
  for (int64_t j = 0; j < dim; ++j) {
    std::vector<float> base_out(column.size(), 0.0f);
    std::vector<float> base_in(column.size(), 0.0f);
    std::vector<float> out(column.size(), 0.0f);
    std::vector<float> in(column.size(), 0.0f);
    SupportedScanKernels().front().add_lower_bounds(
        column.data(), n, dims[static_cast<size_t>(j)], base_out.data(),
        base_in.data());
    kernel().add_lower_bounds(column.data(), n, dims[static_cast<size_t>(j)],
                              out.data(), in.data());
    EXPECT_EQ(out, base_out);
    EXPECT_EQ(in, base_in);
  }
}

struct Table {
  int64_t rows = 0;
  int64_t stride = 0;
  std::vector<float> columns;  // dimension-minor: column j at j * stride

  float at(int64_t row, int64_t j) const {
    return columns[static_cast<size_t>(j * stride + row)];
  }
};

// Random angles, with every fifth row a copy of an earlier one so exact
// distance ties (broken by entity id) sit at the admission bound.
Table RandomTable(Rng* rng, int64_t rows, int64_t dim) {
  Table t;
  t.rows = rows;
  t.stride = rows + 7;
  t.columns.assign(static_cast<size_t>(t.stride * dim), 0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t src =
        r >= 5 && r % 5 == 0 ? static_cast<int64_t>(rng->UniformInt(
                                   static_cast<uint64_t>(r)))
                             : -1;
    for (int64_t j = 0; j < dim; ++j) {
      t.columns[static_cast<size_t>(j * t.stride + r)] =
          src >= 0 ? t.at(src, j)
                   : static_cast<float>(rng->Uniform(0.0, 2.0 * kPi));
    }
  }
  return t;
}

// The oracle: every entity's exact min-over-arcs distance, ranked.
std::vector<ScoredEntity> BruteForce(const Table& t, int64_t dim,
                                     const std::vector<ArcConstants>& arcs,
                                     int64_t first_entity, int64_t k) {
  std::vector<float> dist(static_cast<size_t>(t.rows));
  std::vector<float> row(static_cast<size_t>(dim));
  for (int64_t r = 0; r < t.rows; ++r) {
    for (int64_t j = 0; j < dim; ++j) row[static_cast<size_t>(j)] = t.at(r, j);
    float best = kInf;
    for (const ArcConstants& arc : arcs) {
      best = std::min(best, ArcPointDistanceBounded(row.data(), arc, kInf));
    }
    dist[static_cast<size_t>(r)] = best;
  }
  return TopKFromDistances(dist, k, first_entity);
}

TEST_P(ScanKernelTest, ScanIsBitIdenticalToBruteForce) {
  Rng rng(101 + GetParam());
  const int64_t dim = 12;
  for (const int64_t rows : {1, 77, 128, 300, 1000}) {
    for (const int num_arcs : {1, 2, 3}) {
      for (const float eta : {0.0f, 0.6f}) {
        std::vector<ArcConstants> arcs;
        for (int b = 0; b < num_arcs; ++b) {
          arcs.push_back(RandomArc(&rng, dim, 1.0f, eta));
        }
        const Table t = RandomTable(&rng, rows, dim);
        for (const int64_t k : {int64_t{1}, int64_t{10}, rows + 5}) {
          ColumnBlockView view;
          view.columns = t.columns.data();
          view.column_stride = t.stride;
          view.rows = rows;
          view.first_entity = 1000;
          TopKAccumulator acc(k);
          ScanStats stats;
          ColumnScanner(arcs, kernel()).Scan(view, &acc, &stats);
          const std::string where = "rows=" + std::to_string(rows) +
                                    " arcs=" + std::to_string(num_arcs) +
                                    " eta=" + std::to_string(eta) +
                                    " k=" + std::to_string(k);
          ASSERT_EQ(acc.Take(), BruteForce(t, dim, arcs, 1000, k)) << where;
          EXPECT_EQ(stats.entities_scanned, rows) << where;
          EXPECT_LE(stats.entities_reranked, rows) << where;
          EXPECT_EQ(stats.column_blocks_scanned + stats.column_blocks_skipped,
                    dim)
              << where;
        }
      }
    }
  }
}

// Row groups scanned one after another into one accumulator, the way the
// store walks a file: the bound carries across blocks and sub-blocks.
TEST_P(ScanKernelTest, ConsecutiveBlocksShareTheBound) {
  Rng rng(7);
  const int64_t dim = 8;
  const std::vector<ArcConstants> arcs = {RandomArc(&rng, dim, 1.0f, 0.3f),
                                          RandomArc(&rng, dim, 1.0f, 0.3f)};
  const Table t = RandomTable(&rng, 900, dim);
  TopKAccumulator acc(10);
  ScanStats stats;
  ColumnScanner scanner(arcs, kernel());
  for (int64_t r0 = 0; r0 < t.rows; r0 += 200) {
    ColumnBlockView view;
    view.columns = t.columns.data() + r0;
    view.column_stride = t.stride;
    view.rows = std::min<int64_t>(200, t.rows - r0);
    view.first_entity = r0;
    scanner.Scan(view, &acc, &stats);
  }
  EXPECT_EQ(acc.Take(), BruteForce(t, dim, arcs, 0, 10));
  EXPECT_EQ(stats.entities_scanned, t.rows);
  // A filled heap prunes most rows in the prefilter, before the exact
  // kernel.
  EXPECT_LT(stats.entities_reranked, t.rows / 2);
  EXPECT_GT(stats.entities_pruned, 0);
}

// Rows equal to an already-admitted entity tie at the bound; the lower id
// wins, so the later copies are pruned and the heap keeps the originals.
TEST_P(ScanKernelTest, TiesAtTheBoundKeepTheLowerIds) {
  Rng rng(3);
  const int64_t dim = 5;
  const std::vector<ArcConstants> arcs = {RandomArc(&rng, dim, 1.0f, 0.5f)};
  Table t;
  t.rows = 260;
  t.stride = t.rows;
  t.columns.resize(static_cast<size_t>(t.rows * dim));
  for (int64_t j = 0; j < dim; ++j) {
    const float v = static_cast<float>(rng.Uniform(0.0, 2.0 * kPi));
    for (int64_t r = 0; r < t.rows; ++r) {
      t.columns[static_cast<size_t>(j * t.stride + r)] = v;
    }
  }
  for (const int64_t k : {int64_t{1}, int64_t{3}, int64_t{200}}) {
    ColumnBlockView view;
    view.columns = t.columns.data();
    view.column_stride = t.stride;
    view.rows = t.rows;
    TopKAccumulator acc(k);
    ColumnScanner(arcs, kernel()).Scan(view, &acc, nullptr);
    const std::vector<ScoredEntity> got = acc.Take();
    ASSERT_EQ(got, BruteForce(t, dim, arcs, 0, k));
    ASSERT_EQ(static_cast<int64_t>(got.size()), k);
    EXPECT_EQ(got.back().entity, k - 1);
  }
}

// A bound already below every distance prunes everything in the
// prefilter, and stops reading dimensions early.
TEST_P(ScanKernelTest, TightBoundSkipsColumnBlocks) {
  Rng rng(19);
  const int64_t dim = 16;
  const std::vector<ArcConstants> arcs = {RandomArc(&rng, dim, 1.0f, 0.2f)};
  const Table t = RandomTable(&rng, 500, dim);
  TopKAccumulator acc(1);
  acc.Push(-1, 0.0f);
  ColumnBlockView view;
  view.columns = t.columns.data();
  view.column_stride = t.stride;
  view.rows = t.rows;
  ScanStats stats;
  ColumnScanner(arcs, kernel()).Scan(view, &acc, &stats);
  EXPECT_EQ(stats.entities_pruned, t.rows);
  EXPECT_EQ(stats.entities_reranked, 0);
  EXPECT_GT(stats.column_blocks_skipped, 0);
  EXPECT_EQ(acc.Take(), (std::vector<ScoredEntity>{{-1, 0.0f}}));
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ScanKernelTest,
    ::testing::Range<size_t>(0, SupportedScanKernels().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(SupportedScanKernels()[info.param].name);
    });

TEST(ScanKernelDispatchTest, DefaultIsTheWidestSupportedVariant) {
  ASSERT_FALSE(SupportedScanKernels().empty());
  EXPECT_STREQ(SupportedScanKernels().front().name, "baseline");
  EXPECT_EQ(&DefaultScanKernel(), &SupportedScanKernels().back());
}

}  // namespace
}  // namespace halk::core
