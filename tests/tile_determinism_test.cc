// Determinism of intra-derivation (tile-level) parallelism: every raster
// kernel that fans out over the TilePool (src/core/tile_pool.h) must
// produce BYTE-IDENTICAL output at every thread count — reproducibility is
// the property Gaea's derived-data management stands on (docs/PERF.md
// "Two-level parallelism"). The suite pins:
//
//  * the pool itself: fixed tile geometry, full coverage, nested calls run
//    inline, and a poisoned tile fails the whole job with the
//    lowest-indexed tile's error;
//  * each parallelized operator: output at 2/4/8 pool threads equals the
//    1-thread output exactly (operator== is exact pixel equality), across
//    awkward shapes — 1 row, exactly one tile, and heights that are not a
//    multiple of the 64-row tile;
//  * the kernel path: a full derivation's output pages hash (CRC32) the
//    same under SetDeriveThreads(1) and SetDeriveThreads(4), and a
//    derivation whose operator fails mid-tile commits nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/tile_pool.h"
#include "gaea/kernel.h"
#include "raster/classify.h"
#include "raster/image.h"
#include "raster/image_ops.h"
#include "raster/matrix.h"
#include "raster/scene.h"
#include "test_util.h"
#include "util/crc32.h"

using ::gaea::testing::TempDir;

namespace gaea {
namespace {

// Widens the process-global pool for one scope; restores serial on exit so
// test order never leaks parallelism into unrelated suites.
class PoolWidth {
 public:
  explicit PoolWidth(int n) { TilePool::Global().SetMaxParallel(n); }
  ~PoolWidth() { TilePool::Global().SetMaxParallel(1); }
};

// Heights that exercise every geometry corner: a single row, less than one
// tile, exactly one tile, a non-multiple of 64, and several full tiles
// plus a remainder.
const int kHeights[] = {1, 37, 64, 130, 333};
constexpr int kWidth = 29;

std::vector<Image> TestScene(int nrow, int ncol, int nbands,
                             double drift = 0.0) {
  SceneSpec spec;
  spec.nrow = nrow;
  spec.ncol = ncol;
  spec.nbands = nbands;
  spec.epoch_drift = drift;
  return GenerateScene(spec).value();
}

// Runs `compute` serially, then at pool widths 2, 4 and 8, and checks every
// parallel result equals the serial one via `equal`.
template <typename Fn, typename Eq>
void ExpectWidthInvariant(const char* what, Fn compute, Eq equal) {
  TilePool::Global().SetMaxParallel(1);
  auto serial = compute();
  for (int width : {2, 4, 8}) {
    PoolWidth scope(width);
    auto parallel = compute();
    EXPECT_TRUE(equal(serial, parallel))
        << what << ": output at pool width " << width
        << " differs from serial";
  }
}

template <typename Fn>
void ExpectSameImage(const char* what, Fn compute) {
  ExpectWidthInvariant(what, std::move(compute),
                       [](const Image& a, const Image& b) { return a == b; });
}

bool SameMatrix(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.rows()) * a.cols() *
                         sizeof(double)) == 0;
}

// ---- TilePool ---------------------------------------------------------------

TEST(TilePool, FixedTileGeometry) {
  // Geometry depends only on the row count, never on the thread count:
  // that invariant is what makes per-tile partials reorderable.
  EXPECT_EQ(TileCount(1), 1);
  EXPECT_EQ(TileCount(64), 1);
  EXPECT_EQ(TileCount(65), 2);
  EXPECT_EQ(TileCount(128), 2);
  EXPECT_EQ(TileCount(130), 3);
  EXPECT_EQ(TileCount(333), 6);
}

TEST(TilePool, CoversEveryRowExactlyOnce) {
  for (int64_t nrows : {int64_t{1}, int64_t{64}, int64_t{130}, int64_t{333}}) {
    for (int width : {1, 4}) {
      PoolWidth scope(width);
      std::vector<std::atomic<int>> hits(nrows);
      for (auto& h : hits) h.store(0);
      Status s = TilePool::Global().ParallelRows(
          "coverage", nrows, [&](int64_t r0, int64_t r1) {
            EXPECT_LE(r1, nrows);
            EXPECT_LT(r0, r1);
            for (int64_t r = r0; r < r1; ++r) hits[r].fetch_add(1);
            return Status::OK();
          });
      EXPECT_TRUE(s.ok());
      for (int64_t r = 0; r < nrows; ++r) {
        EXPECT_EQ(hits[r].load(), 1) << "row " << r << " width " << width;
      }
    }
  }
}

TEST(TilePool, NestedParallelRowsRunsInline) {
  PoolWidth scope(4);
  TilePool::Stats before = TilePool::Global().stats();
  std::atomic<int64_t> inner_rows{0};
  Status s = TilePool::Global().ParallelRows(
      "outer", 333, [&](int64_t r0, int64_t r1) {
        // A kernel that itself calls a tiled kernel must not deadlock or
        // oversubscribe: the inner call runs inline on this thread.
        return TilePool::Global().ParallelRows(
            "inner", r1 - r0, [&](int64_t i0, int64_t i1) {
              inner_rows.fetch_add(i1 - i0);
              return Status::OK();
            });
      });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(inner_rows.load(), 333);
  TilePool::Stats after = TilePool::Global().stats();
  EXPECT_GE(after.inline_jobs - before.inline_jobs, 6u);  // all inner calls
  EXPECT_EQ(after.fanout_jobs - before.fanout_jobs, 1u);  // the outer call
}

TEST(TilePool, PoisonedTileFailsTheJobWithTheLowestTilesError) {
  for (int width : {1, 4}) {
    PoolWidth scope(width);
    std::atomic<int64_t> rows_run{0};
    // Tiles 1 and 3 (rows 64.. and 192..) both fail; the job must surface
    // tile 1's error regardless of completion order.
    Status s = TilePool::Global().ParallelRows(
        "poison", 333, [&](int64_t r0, int64_t r1) {
          rows_run.fetch_add(r1 - r0);
          if (r0 == 64) return Status::Internal("poisoned tile 1");
          if (r0 == 192) return Status::Internal("poisoned tile 3");
          return Status::OK();
        });
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find("poisoned tile 1"), std::string::npos)
        << "width " << width << ": got " << s.ToString();
    // Every tile still ran: no tile is skipped on error, so side effects
    // (and the row coverage) stay deterministic.
    EXPECT_EQ(rows_run.load(), 333) << "width " << width;
  }
}

// ---- pixel-wise operators ---------------------------------------------------

TEST(TileDeterminism, PointwiseArithmetic) {
  for (int nrow : kHeights) {
    std::vector<Image> s = TestScene(nrow, kWidth, 2);
    const Image& a = s[0];
    const Image& b = s[1];
    ExpectSameImage("ImgAdd", [&] { return ImgAdd(a, b).value(); });
    ExpectSameImage("ImgSubtract", [&] { return ImgSubtract(a, b).value(); });
    ExpectSameImage("ImgMultiply", [&] { return ImgMultiply(a, b).value(); });
    ExpectSameImage("ImgDivide", [&] { return ImgDivide(a, b).value(); });
    ExpectSameImage("ImgScale", [&] { return ImgScale(a, 2.5, -1.0).value(); });
    ExpectSameImage("ImgAbs", [&] { return ImgAbs(a).value(); });
    ExpectSameImage("Ndvi", [&] { return Ndvi(a, b).value(); });
    ExpectSameImage("BlendLinear",
                    [&] { return BlendLinear(a, b, 0.25).value(); });
    ExpectSameImage("Threshold", [&] { return Threshold(a, 0.5).value(); });
    ExpectSameImage("PointwiseBinary", [&] {
      return PointwiseBinary(a, b, [](double x, double y) {
               return x * 3.0 - y;
             }).value();
    });
    ExpectSameImage("PointwiseUnary", [&] {
      return PointwiseUnary(a, [](double x) { return x * x; }).value();
    });
  }
}

TEST(TileDeterminism, ConvertAndResample) {
  for (int nrow : kHeights) {
    Image a = std::move(TestScene(nrow, kWidth, 1)[0]);
    ExpectSameImage("ConvertTo(uint8)", [&] {
      return a.ConvertTo(PixelType::kUInt8).value();
    });
    Image small = std::move(TestScene(nrow, kWidth, 1, 0.3)[0]);
    ExpectSameImage("Resample(bilinear)", [&] {
      return Resample(small, nrow * 2 + 1, kWidth + 3,
                      ResampleMethod::kBilinear).value();
    });
    ExpectSameImage("Resample(nearest)", [&] {
      return Resample(small, (nrow + 1) / 2, kWidth - 7,
                      ResampleMethod::kNearest).value();
    });
  }
}

TEST(TileDeterminism, MultiBandConversions) {
  for (int nrow : kHeights) {
    std::vector<Image> s = TestScene(nrow, kWidth, 3);
    std::vector<const Image*> bands{&s[0], &s[1], &s[2]};
    ExpectWidthInvariant(
        "ImagesToMatrix",
        [&] { return ImagesToMatrix(bands).value(); }, SameMatrix);
    Matrix m = ImagesToMatrix(bands).value();
    ExpectWidthInvariant(
        "MatrixToImages",
        [&] { return MatrixToImages(m, nrow, kWidth).value(); },
        [](const std::vector<Image>& x, const std::vector<Image>& y) {
          return x == y;
        });
    ExpectWidthInvariant(
        "Composite", [&] { return Composite(bands).value(); },
        [](const std::vector<Image>& x, const std::vector<Image>& y) {
          return x == y;
        });
  }
}

TEST(TileDeterminism, ReductionsMatchSerialBitForBit) {
  for (int nrow : kHeights) {
    std::vector<Image> s = TestScene(nrow, kWidth, 3);
    std::vector<const Image*> bands{&s[0], &s[1], &s[2]};
    // Reductions combine per-tile partials in ascending tile order, so the
    // floating-point result is the same expression tree at every width.
    Image t0 = Threshold(*bands[0], 0.4).value();
    Image t1 = Threshold(*bands[1], 0.4).value();
    ExpectWidthInvariant(
        "AgreementRatio", [&] { return AgreementRatio(t0, t1).value(); },
        [](double x, double y) { return x == y; });
    Matrix m = ImagesToMatrix(bands).value();
    ExpectWidthInvariant(
        "ColumnMeans", [&] { return m.ColumnMeans(); },
        [](const std::vector<double>& x, const std::vector<double>& y) {
          return x == y;
        });
    ExpectWidthInvariant(
        "Covariance", [&] { return m.Covariance().value(); }, SameMatrix);
    Matrix weights(3, 2);
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 2; ++c) weights(r, c) = 0.3 * r - 0.7 * c;
    ExpectWidthInvariant(
        "Multiply", [&] { return m.Multiply(weights).value(); }, SameMatrix);
  }
}

TEST(TileDeterminism, Classifiers) {
  for (int nrow : kHeights) {
    std::vector<Image> s = TestScene(nrow, kWidth, 3);
    std::vector<const Image*> bands{&s[0], &s[1], &s[2]};
    ExpectSameImage("UnsupervisedClassify", [&] {
      return UnsupervisedClassify(bands, 4).value();
    });
    SceneSpec spec;
    spec.nrow = nrow;
    spec.ncol = kWidth;
    spec.nbands = 3;
    Image training = GenerateGroundTruth(spec, 4).value();
    ExpectSameImage("MaxLikelihoodClassify", [&] {
      return MaxLikelihoodClassify(bands, training).value();
    });
    Image before = UnsupervisedClassify(bands, 4).value();
    std::vector<Image> s2 = TestScene(nrow, kWidth, 3, 0.6);
    std::vector<const Image*> bands2{&s2[0], &s2[1], &s2[2]};
    Image after = UnsupervisedClassify(bands2, 4).value();
    ExpectSameImage("ChangeMap",
                    [&] { return ChangeMap(before, after, 4).value(); });
    Image cmap = ChangeMap(before, after, 4).value();
    ExpectWidthInvariant(
        "ChangedFraction", [&] { return ChangedFraction(cmap).value(); },
        [](double x, double y) { return x == y; });
  }
}

// ---- full kernel path -------------------------------------------------------

constexpr char kClassifySchema[] = R"(
CLASS scene_band (
  ATTRIBUTES:
    band = int4;
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
CLASS class_map (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: band-classify
)
DEFINE PROCESS band-classify
OUTPUT class_map
ARGUMENT ( SETOF scene_band bands MIN 3 )
PARAMETERS { numclass = 5; }
TEMPLATE {
  MAPPINGS:
    class_map.data = unsuperclassify(composite(bands.data), $numclass);
    class_map.spatialextent = ANYOF bands.spatialextent;
    class_map.timestamp = ANYOF bands.timestamp;
}
)";

class TileKernelTest : public ::testing::Test {
 protected:
  std::unique_ptr<GaeaKernel> OpenKernel(TempDir* dir) {
    GaeaKernel::Options options;
    options.dir = dir->path();
    auto kernel = GaeaKernel::Open(options);
    EXPECT_TRUE(kernel.ok()) << kernel.status().ToString();
    (*kernel)->SetClock(AbsTime(1));
    EXPECT_TRUE((*kernel)->ExecuteDdl(kClassifySchema).ok());
    return *std::move(kernel);
  }

  std::vector<Oid> InsertScene(GaeaKernel* kernel, int nrow, int ncol) {
    const ClassDef* cls =
        kernel->catalog().classes().LookupByName("scene_band").value();
    std::vector<Image> bands = TestScene(nrow, ncol, 3);
    std::vector<Oid> oids;
    for (int i = 0; i < 3; ++i) {
      DataObject obj(*cls);
      EXPECT_TRUE(obj.Set(*cls, "band", Value::Int(i)).ok());
      EXPECT_TRUE(
          obj.Set(*cls, "data", Value::OfImage(std::move(bands[i]))).ok());
      EXPECT_TRUE(
          obj.Set(*cls, "spatialextent", Value::OfBox(Box(0, 0, 1, 1))).ok());
      EXPECT_TRUE(obj.Set(*cls, "timestamp", Value::Time(AbsTime(1))).ok());
      oids.push_back(kernel->Insert(std::move(obj)).value());
    }
    return oids;
  }

  // CRC over the derived image's logical pixel stream (row-major float8),
  // the byte-identity check the determinism contract promises.
  uint32_t DeriveAndCrc(GaeaKernel* kernel, int threads) {
    std::vector<Oid> bands = InsertScene(kernel, 130, 37);
    kernel->SetDeriveThreads(threads);
    Oid out = kernel->Derive("band-classify", {{"bands", bands}}).value();
    DataObject obj = kernel->Get(out).value();
    const ClassDef* cls =
        kernel->catalog().classes().LookupByName("class_map").value();
    ImagePtr img = obj.Get(*cls, "data").value().AsImage().value();
    std::vector<double> pixels(img->PixelCount());
    for (int64_t r = 0; r < img->nrow64(); ++r) {
      img->ReadRow(r, pixels.data() + r * img->ncol64());
    }
    return Crc32(pixels.data(), pixels.size() * sizeof(double));
  }
};

TEST_F(TileKernelTest, DerivedPagesAreByteIdenticalAcrossThreadCounts) {
  TempDir serial_dir("tile_serial");
  auto serial_kernel = OpenKernel(&serial_dir);
  uint32_t serial_crc = DeriveAndCrc(serial_kernel.get(), 1);

  for (int threads : {4, 8}) {
    TempDir dir("tile_parallel_" + std::to_string(threads));
    auto kernel = OpenKernel(&dir);
    EXPECT_EQ(DeriveAndCrc(kernel.get(), threads), serial_crc)
        << "derived page CRC differs at " << threads << " threads";
  }
  TilePool::Global().SetMaxParallel(1);
}

TEST_F(TileKernelTest, PoisonedTileDerivationCommitsNothing) {
  TempDir dir("tile_poison");
  auto kernel = OpenKernel(&dir);

  // An image-shaped operator whose kernel fails inside one tile: the
  // derivation must fail as a whole and leave no partial output behind.
  OperatorSignature sig;
  sig.params = {TypeId::kImage};
  sig.result = TypeId::kImage;
  sig.doc = "tiled identity that fails in the second tile";
  sig.fn = [](const ValueList& args) -> StatusOr<Value> {
    ImagePtr in = args[0].AsImage().value();
    GAEA_ASSIGN_OR_RETURN(Image out,
                          Image::Create(in->nrow(), in->ncol()));
    Status s = TilePool::Global().ParallelRows(
        "poison_op", in->nrow64(), [&](int64_t r0, int64_t r1) {
          if (r0 >= TilePool::kTileRows) {
            return Status::Internal("tile poisoned mid-derivation");
          }
          std::vector<double> row(in->ncol64());
          for (int64_t r = r0; r < r1; ++r) {
            in->ReadRow(r, row.data());
            out.WriteRow(r, row.data());
          }
          return Status::OK();
        });
    GAEA_RETURN_IF_ERROR(s);
    return Value::OfImage(std::move(out));
  };
  ASSERT_TRUE(kernel->operators().Register("test_poison_ident",
                                           std::move(sig)).ok());

  ProcessDef def("poison-derive", "class_map");
  ASSERT_TRUE(def.AddArg({"in", "scene_band", false, 1}).ok());
  std::vector<ExprPtr> call_args;
  call_args.push_back(Expr::AttrRef("in", "data"));
  ASSERT_TRUE(def.AddMapping(
      "data", Expr::OpCall("test_poison_ident", std::move(call_args))).ok());
  ASSERT_TRUE(def.AddMapping("spatialextent",
                             Expr::AttrRef("in", "spatialextent")).ok());
  ASSERT_TRUE(
      def.AddMapping("timestamp", Expr::AttrRef("in", "timestamp")).ok());
  ASSERT_TRUE(kernel->DefineProcess(std::move(def)).ok());

  std::vector<Oid> bands = InsertScene(kernel.get(), 130, 37);
  GaeaKernel::Stats before = kernel->GetStats();

  for (int threads : {1, 4}) {
    kernel->SetDeriveThreads(threads);
    auto result = kernel->Derive("poison-derive", {{"in", {bands[0]}}});
    ASSERT_FALSE(result.ok()) << "threads " << threads;
    EXPECT_NE(result.status().ToString().find("tile poisoned"),
              std::string::npos)
        << "threads " << threads << ": " << result.status().ToString();
  }
  TilePool::Global().SetMaxParallel(1);

  // No partial commit: the object count is unchanged and the failed
  // derivation was not cached as a success.
  GaeaKernel::Stats after = kernel->GetStats();
  EXPECT_EQ(after.objects, before.objects);
  auto rerun = kernel->Derive("poison-derive", {{"in", {bands[0]}}});
  EXPECT_FALSE(rerun.ok());
}

}  // namespace
}  // namespace gaea
