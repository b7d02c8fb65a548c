#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "core/tile_pool.h"
#include "raster/classify.h"
#include "raster/nearest_row.h"
#include "raster/scene.h"
#include "test_util.h"

namespace gaea {
namespace {

// A 1-band image with two well separated value clusters.
Image TwoClusterBand() {
  std::vector<double> v;
  for (int i = 0; i < 32; ++i) v.push_back(i < 16 ? 0.0 + i * 0.01 : 10.0 + i * 0.01);
  return Image::FromValues(4, 8, v).value();
}

TEST(KMeansTest, ValidatesArguments) {
  Image band = TwoClusterBand();
  EXPECT_FALSE(UnsupervisedClassify({&band}, 0).ok());
  EXPECT_FALSE(UnsupervisedClassify({&band}, -3).ok());
  EXPECT_FALSE(UnsupervisedClassify({}, 2).ok());
  // More classes than pixels.
  ASSERT_OK_AND_ASSIGN(Image tiny, Image::FromValues(1, 2, {0, 1}));
  EXPECT_FALSE(UnsupervisedClassify({&tiny}, 3).ok());
}

TEST(KMeansTest, SeparatesObviousClusters) {
  Image band = TwoClusterBand();
  ASSERT_OK_AND_ASSIGN(Image labels, UnsupervisedClassify({&band}, 2));
  EXPECT_EQ(labels.pixel_type(), PixelType::kInt32);
  // All low-value pixels share one label, all high-value the other.
  std::set<int> low_labels, high_labels;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 8; ++c) {
      int idx = r * 8 + c;
      int label = static_cast<int>(labels.Get(r, c));
      (idx < 16 ? low_labels : high_labels).insert(label);
    }
  }
  EXPECT_EQ(low_labels.size(), 1u);
  EXPECT_EQ(high_labels.size(), 1u);
  EXPECT_NE(*low_labels.begin(), *high_labels.begin());
}

TEST(KMeansTest, LabelsWithinRange) {
  SceneSpec spec;
  spec.nrow = 16;
  spec.ncol = 16;
  std::vector<Image> bands = GenerateScene(spec).value();
  std::vector<const Image*> ptrs = {&bands[0], &bands[1], &bands[2]};
  ASSERT_OK_AND_ASSIGN(Image labels, UnsupervisedClassify(ptrs, 5));
  std::set<int> seen;
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 16; ++c) {
      int label = static_cast<int>(labels.Get(r, c));
      EXPECT_GE(label, 0);
      EXPECT_LT(label, 5);
      seen.insert(label);
    }
  }
  // A structured scene should populate more than one class.
  EXPECT_GT(seen.size(), 1u);
}

TEST(KMeansTest, DeterministicGivenSeed) {
  SceneSpec spec;
  spec.nrow = 12;
  spec.ncol = 12;
  std::vector<Image> bands = GenerateScene(spec).value();
  std::vector<const Image*> ptrs = {&bands[0], &bands[1]};
  ASSERT_OK_AND_ASSIGN(Image a, UnsupervisedClassify(ptrs, 4));
  ASSERT_OK_AND_ASSIGN(Image b, UnsupervisedClassify(ptrs, 4));
  EXPECT_EQ(a, b);  // reproducibility of derivations
  KMeansOptions other;
  other.seed = 777;
  ASSERT_OK_AND_ASSIGN(Image c, UnsupervisedClassify(ptrs, 4, other));
  // A different seed may relabel clusters; shapes still match.
  EXPECT_TRUE(c.SameShape(a));
}

// ---- golden label bytes -----------------------------------------------------
//
// A derived object is defined by its process, so a stored landcover raster
// and every DerivationCache entry stay valid only while the classifiers
// reproduce their labels bit for bit. The digests below were recorded from
// the reference (scalar, gather-copy) k-means and maxlike implementations;
// a kernel that changes labels the same way at every pool width — a `<=`
// tie-break, a distance summed in another order — fails here even though
// the width-invariance suites still pass.

// FNV-1a 64 over the label image's shape and int32 labels.
uint64_t LabelDigest(const Image& labels) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<uint64_t>(v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(labels.nrow());
  mix(labels.ncol());
  for (int r = 0; r < labels.nrow(); ++r) {
    for (int c = 0; c < labels.ncol(); ++c) {
      mix(static_cast<int64_t>(labels.Get(r, c)));
    }
  }
  return h;
}

enum class Bands { kFloat, kDn, kNaN };

struct GoldenCase {
  int nrow, ncol, nb, k;
  Bands kind;
  uint64_t digest;
};

// Float bands are the scene generator's float8 output; DN bands quantize
// them to 8-bit digital numbers, so many pixel-to-center distances tie
// exactly; NaN bands blank every 7th pixel of band 0.
std::vector<Image> GoldenBands(const GoldenCase& gc) {
  SceneSpec spec;
  spec.nrow = gc.nrow;
  spec.ncol = gc.ncol;
  spec.nbands = gc.nb;
  spec.seed = static_cast<uint64_t>(gc.nrow * 1000 + gc.ncol * 10 + gc.nb);
  spec.feature_scale = 6.0;
  std::vector<Image> bands = GenerateScene(spec).value();
  for (size_t b = 0; b < bands.size(); ++b) {
    std::vector<double> v;
    for (int r = 0; r < gc.nrow; ++r) {
      for (int c = 0; c < gc.ncol; ++c) v.push_back(bands[b].Get(r, c));
    }
    if (gc.kind == Bands::kDn) {
      for (double& x : v) x = x * 40.0 + 100.0;
      bands[b] =
          Image::FromValues(gc.nrow, gc.ncol, v, PixelType::kUInt8).value();
    } else if (gc.kind == Bands::kNaN && b == 0) {
      for (size_t i = 0; i < v.size(); i += 7) {
        v[i] = std::numeric_limits<double>::quiet_NaN();
      }
      bands[b] = Image::FromValues(gc.nrow, gc.ncol, v).value();
    }
  }
  return bands;
}

// Runs `fn` at pool widths 1 and 4 and checks both digests against the pin.
template <typename Fn>
void ExpectGolden(const char* what, const GoldenCase& gc, Fn fn) {
  for (int width : {1, 4}) {
    TilePool::Global().SetMaxParallel(width);
    uint64_t got = LabelDigest(fn());
    TilePool::Global().SetMaxParallel(1);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "{%d, %d, %d, %d, Bands::%s, 0x%016" PRIx64 "ull},",
                  gc.nrow, gc.ncol, gc.nb, gc.k,
                  gc.kind == Bands::kFloat ? "kFloat"
                  : gc.kind == Bands::kDn  ? "kDn"
                                           : "kNaN",
                  got);
    EXPECT_EQ(got, gc.digest) << what << " at pool width " << width
                              << "; actual case row: " << line;
  }
}

// Every width in {1, 7, 8, 9, 29, 63, 65, 130} meets every k in
// {1, 2, 3, 12, 20}; band counts {1, 2, 3, 5, 7} and float/DN bands cycle
// through them, and heights cross the 64-row tile boundary.
const GoldenCase kKMeansGolden[] = {
    {70, 1, 1, 1, Bands::kFloat, 0x5bca1a1dc3067b82ull},
    {73, 1, 2, 2, Bands::kDn, 0xd9ac7b0b8b6d73ccull},
    {76, 1, 3, 3, Bands::kFloat, 0x5b58d1ea57f02169ull},
    {79, 1, 5, 12, Bands::kDn, 0xd12d03fc38569423ull},
    {82, 1, 7, 20, Bands::kFloat, 0xf1bf45859ffb054aull},
    {23, 7, 2, 1, Bands::kDn, 0xc8cd1713bc7376b5ull},
    {26, 7, 3, 2, Bands::kFloat, 0x8e20d8f71de5cdb9ull},
    {29, 7, 5, 3, Bands::kDn, 0x108155cc8e646dfdull},
    {32, 7, 7, 12, Bands::kFloat, 0x1ca4a8d631c94ccfull},
    {35, 7, 1, 20, Bands::kDn, 0x845bc009327d5935ull},
    {65, 8, 3, 1, Bands::kFloat, 0x0185afbe9714196cull},
    {68, 8, 5, 2, Bands::kDn, 0xb7574f92010e2388ull},
    {71, 8, 7, 3, Bands::kFloat, 0xe5d427107a51f90aull},
    {74, 8, 1, 12, Bands::kDn, 0x8836c3401e178d0dull},
    {77, 8, 2, 20, Bands::kFloat, 0x46448c59c83e29e0ull},
    {130, 9, 5, 1, Bands::kDn, 0x1ae58704662b9bceull},
    {133, 9, 7, 2, Bands::kFloat, 0x5b6be24541d5d168ull},
    {136, 9, 1, 3, Bands::kDn, 0xd50448cba95e30a5ull},
    {139, 9, 2, 12, Bands::kFloat, 0xc8144406761ba909ull},
    {142, 9, 3, 20, Bands::kDn, 0x9c4127fe69ba15ceull},
    {37, 29, 7, 1, Bands::kFloat, 0x1a651ee3bfab305dull},
    {40, 29, 1, 2, Bands::kDn, 0x1a0341a6421dce70ull},
    {43, 29, 2, 3, Bands::kFloat, 0x363e98ecb74dbeb2ull},
    {46, 29, 3, 12, Bands::kDn, 0x479e22b0a5b03495ull},
    {49, 29, 5, 20, Bands::kFloat, 0x2411397957978da4ull},
    {64, 63, 1, 1, Bands::kDn, 0xf128b9712be3fd7aull},
    {67, 63, 2, 2, Bands::kFloat, 0x394d743ae6d75f99ull},
    {70, 63, 3, 3, Bands::kDn, 0xcd7f2094bde66a3dull},
    {73, 63, 5, 12, Bands::kFloat, 0xb6225ed46f35e255ull},
    {76, 63, 7, 20, Bands::kDn, 0x2bf2ee18e6282776ull},
    {3, 65, 2, 1, Bands::kFloat, 0x0b23f1f7f504bf27ull},
    {6, 65, 3, 2, Bands::kDn, 0x1076dbabc0524e22ull},
    {9, 65, 5, 3, Bands::kFloat, 0x837c9094ecf56bedull},
    {12, 65, 7, 12, Bands::kDn, 0xe7b77d0186a394cfull},
    {15, 65, 1, 20, Bands::kFloat, 0xf5c7cf103813db75ull},
    {66, 130, 3, 1, Bands::kDn, 0xc5230a0fcd7903e5ull},
    {69, 130, 5, 2, Bands::kFloat, 0x856bd6b348a27da2ull},
    {72, 130, 7, 3, Bands::kDn, 0xdebb64513f0d172dull},
    {75, 130, 1, 12, Bands::kFloat, 0x36e429451da28d47ull},
    {78, 130, 2, 20, Bands::kDn, 0xbf3d78ac8d5c2f48ull},
    {70, 29, 3, 12, Bands::kNaN, 0xfb388f03171e821eull},
    {13, 9, 2, 3, Bands::kNaN, 0xff91b2cc83aa76e1ull},
};

TEST(KMeansGoldenTest, LabelsMatchPinnedDigests) {
  for (const GoldenCase& gc : kKMeansGolden) {
    std::vector<Image> bands = GoldenBands(gc);
    std::vector<const Image*> ptrs;
    for (const Image& b : bands) ptrs.push_back(&b);
    ExpectGolden("unsuperclassify", gc,
                 [&] { return UnsupervisedClassify(ptrs, gc.k).value(); });
  }
}

// Exact ties: each probe pixel p = (s + 0.3, t, s) is, in real arithmetic,
// equally far from A = (0, 0.7, 5) and B = (5.3, 0.7, -0.3), because its
// offsets from the two are the same three numbers in another band order.
// Which center wins therefore depends only on how the squared band
// differences round, so a distance sum taken in any other order relabels
// some probes. With one iteration the seeds are the centers: the first is a
// B pixel, the second the farthest pixel from it, an A pixel. Rows are 37
// wide so probes fall in the AVX2 kernel's 16-pixel blocks, in the portable
// kernel's 8-pixel blocks and in either kernel's tail (the last 5 pixels).
TEST(KMeansGoldenTest, DistanceSumOrderDecidesExactTies) {
  constexpr int kCols = 37;
  std::vector<double> v[3];
  for (int i = 0; i < 2 * kCols; ++i) {
    double s = 2.0 + 0.037 * i;
    v[0].push_back(s + 0.3);
    v[1].push_back(0.7 + 0.011 * i);
    v[2].push_back(s);
  }
  const double a[3] = {0.0, 0.7, 5.0}, b[3] = {5.3, 0.7, -0.3};
  for (int j = 0; j < 3; ++j) {
    v[j].insert(v[j].end(), kCols, a[j]);
    v[j].insert(v[j].end(), kCols, b[j]);
  }
  std::vector<Image> bands;
  for (const auto& values : v) {
    bands.push_back(Image::FromValues(4, kCols, values).value());
  }
  std::vector<const Image*> ptrs = {&bands[0], &bands[1], &bands[2]};
  KMeansOptions seeds_only;
  seeds_only.max_iterations = 1;
  const GoldenCase ties = {4, kCols, 3, 2, Bands::kFloat,
                           0xa3e7355933166944ull};
  ExpectGolden("unsuperclassify ties", ties, [&] {
    return UnsupervisedClassify(ptrs, 2, seeds_only).value();
  });
}

// ---- every kernel width -----------------------------------------------------
//
// UnsupervisedClassify labels with the widest nearest-center row kernel the
// CPU runs, so on a given host the digests above pin only that one. Here the
// AVX2 kernel must return the 2-lane kernel's labels, label for label, on
// random rows: every width 1..130 (16-pixel blocks and every tail length),
// 1-7 bands and k = 1..20, over four kinds of data.

enum class RowData {
  kFloat,      // uniform doubles
  kDn,         // small integers: many pixels tie exactly with several centers
  kTies,       // every pixel ties two centers in real arithmetic; rounding
               // in band order decides
  kNonFinite,  // NaN and +-inf scattered over bands and centers
};

struct RowCase {
  std::vector<std::vector<double>> bands;  // nb x ncol
  std::vector<double> centers;             // k x nb
};

RowCase MakeRowCase(std::mt19937_64& rng, RowData kind, int64_t ncol,
                    int64_t nb, int64_t k) {
  std::uniform_real_distribution<double> uniform(-3.0, 3.0);
  std::uniform_int_distribution<int> dn(0, 7);
  std::uniform_int_distribution<int> tenth(0, 9);
  auto value = [&] {
    if (kind == RowData::kDn) return static_cast<double>(dn(rng));
    if (kind == RowData::kNonFinite) {
      switch (tenth(rng)) {
        case 0: return std::numeric_limits<double>::quiet_NaN();
        case 1: return std::numeric_limits<double>::infinity();
        case 2: return -std::numeric_limits<double>::infinity();
        default: break;
      }
    }
    return uniform(rng);
  };
  RowCase rc;
  rc.bands.assign(static_cast<size_t>(nb),
                  std::vector<double>(static_cast<size_t>(ncol)));
  for (auto& band : rc.bands) {
    for (double& x : band) x = value();
  }
  rc.centers.resize(static_cast<size_t>(k * nb));
  for (double& x : rc.centers) x = value();
  if (kind == RowData::kTies && nb >= 2 && k >= 2) {
    // Centers A = (0, m, a) and B = (a, m, 0), middle bands m shared, and
    // pixels p = (s, x, s): p - A and p - B are the same offsets with the
    // first and last band swapped, so the two distances are equal in real
    // arithmetic and differ only by the order their squares are summed in.
    const size_t last = static_cast<size_t>(nb - 1);
    const auto pick = [&rng](int64_t n) {
      return static_cast<int64_t>(rng() % static_cast<uint64_t>(n));
    };
    const int64_t ia = pick(k);
    const int64_t ib = (ia + 1 + pick(k - 1)) % k;
    double* ca = rc.centers.data() + ia * nb;
    double* cb = rc.centers.data() + ib * nb;
    const double a = uniform(rng);
    for (size_t j = 1; j < last; ++j) cb[j] = ca[j];
    ca[0] = 0.0;
    ca[last] = a;
    cb[0] = a;
    cb[last] = 0.0;
    for (size_t c = 0; c < static_cast<size_t>(ncol); ++c) {
      rc.bands[last][c] = rc.bands[0][c];
    }
  }
  return rc;
}

TEST(NearestRowTest, EveryWidthReturnsThePortableLabels) {
#ifndef GAEA_NEAREST_ROW_HAVE_AVX2
  GTEST_SKIP() << "no AVX2 row kernel on this architecture";
#else
  if (!CpuHasAvx2()) GTEST_SKIP() << "this CPU has no AVX2";
  std::mt19937_64 rng(20240501);
  for (RowData kind : {RowData::kFloat, RowData::kDn, RowData::kTies,
                       RowData::kNonFinite}) {
    int64_t i = 0;
    for (int64_t nb = 1; nb <= 7; ++nb) {
      for (int64_t k = 1; k <= 20; ++k) {
        for (int rep = 0; rep < 2; ++rep, ++i) {
          // 67 is prime to 130: each kind's 280 rows take every width.
          const int64_t ncol = 1 + (i * 67) % 130;
          RowCase rc = MakeRowCase(rng, kind, ncol, nb, k);
          std::vector<const double*> rows;
          for (const auto& band : rc.bands) rows.push_back(band.data());
          std::vector<int32_t> portable(static_cast<size_t>(ncol), -1);
          std::vector<int32_t> avx2(static_cast<size_t>(ncol), -2);
          NearestRowPortable(rows.data(), ncol, rc.centers.data(), k, nb,
                             portable.data());
          NearestRowAvx2(rows.data(), ncol, rc.centers.data(), k, nb,
                         avx2.data());
          ASSERT_EQ(avx2, portable)
              << "data kind " << static_cast<int>(kind) << ", ncol " << ncol
              << ", nb " << nb << ", k " << k;
        }
      }
    }
  }
#endif
}

// k is the number of ground-truth training classes here.
const GoldenCase kMaxLikeGolden[] = {
    {37, 29, 3, 4, Bands::kFloat, 0xe8e5470f15e26edfull},
    {130, 9, 5, 6, Bands::kDn, 0xa2f3868d92f4504dull},
    {66, 65, 2, 3, Bands::kFloat, 0xfa578127d4b74ae4ull},
};

TEST(MaxLikeGoldenTest, LabelsMatchPinnedDigests) {
  for (const GoldenCase& gc : kMaxLikeGolden) {
    std::vector<Image> bands = GoldenBands(gc);
    std::vector<const Image*> ptrs;
    for (const Image& b : bands) ptrs.push_back(&b);
    SceneSpec spec;
    spec.nrow = gc.nrow;
    spec.ncol = gc.ncol;
    spec.seed = 7;
    Image training = GenerateGroundTruth(spec, gc.k).value();
    ExpectGolden("maxlike", gc, [&] {
      return MaxLikelihoodClassify(ptrs, training).value();
    });
  }
}

TEST(MaxLikeTest, RecoverReferenceLabelsFromSeparableData) {
  Image band = TwoClusterBand();
  // Label a few pixels of each cluster; -1 elsewhere.
  ASSERT_OK_AND_ASSIGN(Image training,
                       Image::Create(4, 8, PixelType::kInt32));
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 8; ++c) training.Set(r, c, -1);
  }
  training.Set(0, 0, 0);
  training.Set(0, 1, 0);
  training.Set(3, 6, 1);
  training.Set(3, 7, 1);
  ASSERT_OK_AND_ASSIGN(Image labels, MaxLikelihoodClassify({&band}, training));
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 8; ++c) {
      int idx = r * 8 + c;
      EXPECT_EQ(static_cast<int>(labels.Get(r, c)), idx < 16 ? 0 : 1)
          << "pixel " << r << "," << c;
    }
  }
}

TEST(MaxLikeTest, RequiresLabelsAndMatchingShape) {
  Image band = TwoClusterBand();
  ASSERT_OK_AND_ASSIGN(Image empty_training,
                       Image::Create(4, 8, PixelType::kInt32));
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 8; ++c) empty_training.Set(r, c, -1);
  }
  EXPECT_EQ(MaxLikelihoodClassify({&band}, empty_training).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_OK_AND_ASSIGN(Image wrong_shape,
                       Image::Create(2, 2, PixelType::kInt32));
  EXPECT_FALSE(MaxLikelihoodClassify({&band}, wrong_shape).ok());
}

TEST(MaxLikeTest, AgreesWithGroundTruthOnSyntheticScene) {
  SceneSpec spec;
  spec.nrow = 32;
  spec.ncol = 32;
  spec.noise = 0.02;
  std::vector<Image> bands = GenerateScene(spec).value();
  ASSERT_OK_AND_ASSIGN(Image truth, GenerateGroundTruth(spec, 3));
  std::vector<const Image*> ptrs = {&bands[0], &bands[1], &bands[2]};
  ASSERT_OK_AND_ASSIGN(Image labels, MaxLikelihoodClassify(ptrs, truth));
  // Trained on full truth, prediction should agree far above chance (1/3).
  int64_t agree = 0;
  for (int r = 0; r < 32; ++r) {
    for (int c = 0; c < 32; ++c) {
      if (labels.Get(r, c) == truth.Get(r, c)) ++agree;
    }
  }
  EXPECT_GT(static_cast<double>(agree) / (32 * 32), 0.6);
}

TEST(ChangeMapTest, EncodesTransitions) {
  ASSERT_OK_AND_ASSIGN(Image before, Image::FromValues(1, 3, {0, 1, 2}));
  ASSERT_OK_AND_ASSIGN(Image after, Image::FromValues(1, 3, {0, 2, 1}));
  ASSERT_OK_AND_ASSIGN(Image change, ChangeMap(before, after, 3));
  EXPECT_EQ(change.Get(0, 0), -1.0);            // unchanged
  EXPECT_EQ(change.Get(0, 1), 1.0 * 3 + 2.0);   // 1 -> 2
  EXPECT_EQ(change.Get(0, 2), 2.0 * 3 + 1.0);   // 2 -> 1
  ASSERT_OK_AND_ASSIGN(double frac, ChangedFraction(change));
  EXPECT_NEAR(frac, 2.0 / 3.0, 1e-12);
}

TEST(ChangeMapTest, Validation) {
  ASSERT_OK_AND_ASSIGN(Image a, Image::FromValues(1, 2, {0, 1}));
  EXPECT_FALSE(ChangeMap(a, a, 0).ok());
  ASSERT_OK_AND_ASSIGN(Image b, Image::FromValues(2, 1, {0, 1}));
  EXPECT_FALSE(ChangeMap(a, b, 2).ok());
}

}  // namespace
}  // namespace gaea
