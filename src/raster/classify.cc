#include "raster/classify.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include "core/tile_pool.h"
#include "raster/image_ops.h"
#include "raster/nearest_row.h"

namespace gaea {

namespace {

// Deterministic xorshift64* PRNG: classification must replay identically.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ? seed : 0x1234567) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1DULL;
  }
  // Uniform in [0, n).
  size_t Index(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

// Points rows[j] at row r of band j of Composite()'s float8 planes.
void BandRows(const std::vector<Image>& stack, int64_t r,
              std::vector<const double*>* rows) {
  for (size_t j = 0; j < stack.size(); ++j) (*rows)[j] = stack[j].RowF64(r);
}

// Nearest-center kernel, written once over the lane count L. GCC does not
// if-convert the argmin's conditional update across pixels, so it will not
// vectorize that loop itself (docs/PERF.md §2); this kernel is the argmin
// in GCC/Clang generic vectors. GCC drops `vector_size` on a dependent
// size, so each width's lane types are an explicit specialization.
template <int L>
struct Lanes;
template <>
struct Lanes<2> {  // SSE2/NEON baseline: every x86-64 and AArch64 CPU
  using D = double __attribute__((vector_size(16)));
  using I = int64_t __attribute__((vector_size(16)));
};
template <>
struct Lanes<4> {  // AVX2, inside NearestRowAvx2 only
  using D = double __attribute__((vector_size(32)));
  using I = int64_t __attribute__((vector_size(32)));
};

// Labels the 4L pixels at [col, col + 4L) of one row as four independent
// L-lane chains; each lane computes what NearestOne computes for its pixel.
// always_inline: the kernel is compiled only inside each width's row
// function, for that function's target. Wide generic vectors emitted out of
// line for the baseline ISA run several times slower than the 2-lane code.
// The chain loops are unrolled by pragma because at -O2 GCC otherwise keeps
// the chains in stack arrays, which costs the 4-lane kernel its gain.
template <int L>
__attribute__((always_inline)) inline void NearestBlock(
    const double* const* rows, int64_t col, const double* centers, int64_t k,
    int64_t nb, int32_t* out) {
  using D = typename Lanes<L>::D;
  using I = typename Lanes<L>::I;
  const D inf = D{} + std::numeric_limits<double>::infinity();
  D best[4] = {inf, inf, inf, inf};
  I label[4] = {};
  for (int64_t c = 0; c < k; ++c) {
    const double* center = centers + c * nb;
    D d[4] = {};
    for (int64_t j = 0; j < nb; ++j) {
#pragma GCC unroll 4
      for (int64_t q = 0; q < 4; ++q) {
        D x;
        std::memcpy(&x, rows[j] + col + L * q, sizeof(x));
        const D t = x - center[j];
        d[q] += t * t;
      }
    }
#pragma GCC unroll 4
    for (int64_t q = 0; q < 4; ++q) {
      const I take = reinterpret_cast<I>(d[q] < best[q]);
      best[q] = reinterpret_cast<D>((reinterpret_cast<I>(d[q]) & take) |
                                    (reinterpret_cast<I>(best[q]) & ~take));
      label[q] = (take & c) | (label[q] & ~take);
    }
  }
#pragma GCC unroll 4
  for (int64_t q = 0; q < 4; ++q) {
#pragma GCC unroll 4
    for (int64_t i = 0; i < L; ++i) {
      out[L * q + i] = static_cast<int32_t>(label[q][i]);
    }
  }
}

// The same selection for one pixel: the `ncol % 4L` tail of a row.
int32_t NearestOne(const double* const* rows, int64_t col,
                   const double* centers, int64_t k, int64_t nb) {
  int32_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (int64_t c = 0; c < k; ++c) {
    const double* center = centers + c * nb;
    double d = 0;
    for (int64_t j = 0; j < nb; ++j) {
      double t = rows[j][col] - center[j];
      d += t * t;
    }
    if (d < best_dist) {
      best_dist = d;
      best = static_cast<int32_t>(c);
    }
  }
  return best;
}

template <int L>
__attribute__((always_inline)) inline void NearestRow(
    const double* const* rows, int64_t ncol, const double* centers, int64_t k,
    int64_t nb, int32_t* out) {
  constexpr int64_t kBlock = int64_t{4} * L;
  int64_t c = 0;
  for (; c + kBlock <= ncol; c += kBlock) {
    NearestBlock<L>(rows, c, centers, k, nb, out + c);
  }
  for (; c < ncol; ++c) out[c] = NearestOne(rows, c, centers, k, nb);
}

using NearestRowFn = void (*)(const double* const*, int64_t, const double*,
                              int64_t, int64_t, int32_t*);

// The widest row kernel this CPU runs, chosen once.
NearestRowFn NearestRowKernel() {
#ifdef GAEA_NEAREST_ROW_HAVE_AVX2
  if (CpuHasAvx2()) return NearestRowAvx2;
#endif
  return NearestRowPortable;
}

}  // namespace

void NearestRowPortable(const double* const* rows, int64_t ncol,
                        const double* centers, int64_t k, int64_t nb,
                        int32_t* out) {
  NearestRow<2>(rows, ncol, centers, k, nb, out);
}

#ifdef GAEA_NEAREST_ROW_HAVE_AVX2
__attribute__((target("avx2"))) void NearestRowAvx2(
    const double* const* rows, int64_t ncol, const double* centers, int64_t k,
    int64_t nb, int32_t* out) {
  NearestRow<4>(rows, ncol, centers, k, nb, out);
}
#endif

bool CpuHasAvx2() {
#ifdef GAEA_NEAREST_ROW_HAVE_AVX2
  // Function-local static: thread-safe, probed on first use.
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

StatusOr<Image> UnsupervisedClassify(const std::vector<const Image*>& bands,
                                     int k, const KMeansOptions& opts) {
  if (k <= 0) {
    return Status::InvalidArgument("unsuperclassify: k must be positive");
  }
  GAEA_ASSIGN_OR_RETURN(std::vector<Image> stack, Composite(bands));
  const Image& first = stack[0];
  const int64_t nrows = first.nrow64();
  const int64_t ncol = first.ncol64();
  const int64_t npix = nrows * ncol;
  if (npix < k) {
    return Status::InvalidArgument("unsuperclassify: fewer pixels than classes");
  }
  const int64_t nb = static_cast<int64_t>(stack.size());
  const int64_t ntiles = TileCount(nrows);
  TilePool& pool = TilePool::Global();

  // Every pass reads Composite()'s float8 band planes in place.
  std::vector<double> centers;  // k x nb, row-major
  centers.reserve(static_cast<size_t>(k) * nb);
  auto add_center = [&](int64_t i) {
    for (const Image& band : stack) {
      centers.push_back(band.RowF64(i / ncol)[i % ncol]);
    }
  };

  // Farthest-point (k-means++ without randomness beyond the first pick)
  // seeding from a fixed PRNG: deterministic given inputs. Each tile finds
  // its farthest pixel; partials combine in ascending tile order with a
  // strict >, so the lowest pixel index wins ties exactly as the serial
  // scan would.
  Rng rng(opts.seed);
  add_center(static_cast<int64_t>(rng.Index(npix)));
  std::vector<double> best_d2(static_cast<size_t>(npix),
                              std::numeric_limits<double>::infinity());
  struct Farthest {
    double d2 = -1;
    int64_t idx = 0;
  };
  std::vector<Farthest> partial(static_cast<size_t>(ntiles));
  while (static_cast<int64_t>(centers.size()) / nb < k) {
    const double* last = centers.data() + centers.size() - nb;
    pool.ParallelRows("kmeans_seed", nrows, [&](int64_t r0, int64_t r1) {
      std::vector<double> d2(static_cast<size_t>(ncol));
      for (int64_t r = r0; r < r1; ++r) {
        // d2 = 0 + sum_j (x_j - last_j)^2 in band order, a row at a time.
        double* __restrict__ d = d2.data();
        std::fill(d2.begin(), d2.end(), 0.0);
        for (int64_t j = 0; j < nb; ++j) {
          const double* __restrict__ x =
              stack[static_cast<size_t>(j)].RowF64(r);
          const double m = last[j];
          for (int64_t c = 0; c < ncol; ++c) {
            double t = x[c] - m;
            d[c] += t * t;
          }
        }
        double* __restrict__ best = best_d2.data() + r * ncol;
        for (int64_t c = 0; c < ncol; ++c) best[c] = std::min(best[c], d[c]);
      }
      Farthest far;
      for (int64_t i = r0 * ncol; i < r1 * ncol; ++i) {
        if (best_d2[static_cast<size_t>(i)] > far.d2) {
          far.d2 = best_d2[static_cast<size_t>(i)];
          far.idx = i;
        }
      }
      partial[static_cast<size_t>(r0 / TilePool::kTileRows)] = far;
      return Status::OK();
    });
    Farthest far;
    for (const Farthest& p : partial) {
      if (p.d2 > far.d2) far = p;
    }
    add_center(far.idx);
  }

  // Lloyd iterations, one tile pass each: a tile labels its rows with the
  // nearest center, then adds each pixel, in ascending pixel order, into
  // its own per-class sums and counts. Partials combine in ascending tile
  // order, so every center is the same floating-point expression at every
  // pool width.
  const size_t kn = static_cast<size_t>(k * nb);
  // Each tile's sums and counts start a cache line past the end of the
  // previous tile's, so no two tiles' accumulators share a line (when they
  // did, a 256x256 step's per-pixel sums took ~3x as long at 4 threads).
  const size_t sum_stride = kn + 64 / sizeof(double);
  const size_t count_stride = static_cast<size_t>(k) + 64 / sizeof(int64_t);
  std::vector<int32_t> assign(static_cast<size_t>(npix), 0);
  std::vector<uint8_t> tile_moved(static_cast<size_t>(ntiles), 0);
  std::vector<double> sum_partial(static_cast<size_t>(ntiles) * sum_stride);
  std::vector<int64_t> count_partial(static_cast<size_t>(ntiles) *
                                     count_stride);
  const NearestRowFn nearest_row = NearestRowKernel();
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    pool.ParallelRows("kmeans_step", nrows, [&](int64_t r0, int64_t r1) {
      const size_t tile = static_cast<size_t>(r0 / TilePool::kTileRows);
      double* sums = sum_partial.data() + tile * sum_stride;
      int64_t* counts = count_partial.data() + tile * count_stride;
      std::fill(sums, sums + kn, 0.0);
      std::fill(counts, counts + k, 0);
      std::vector<const double*> rows(static_cast<size_t>(nb));
      std::vector<int32_t> nearest(static_cast<size_t>(ncol));
      bool moved = false;
      for (int64_t r = r0; r < r1; ++r) {
        BandRows(stack, r, &rows);
        nearest_row(rows.data(), ncol, centers.data(), k, nb, nearest.data());
        int32_t* arow = assign.data() + r * ncol;
        for (int64_t c = 0; c < ncol; ++c) {
          const int32_t label = nearest[static_cast<size_t>(c)];
          moved |= arow[c] != label;
          arow[c] = label;
          counts[label]++;
          double* s = sums + static_cast<int64_t>(label) * nb;
          for (size_t j = 0; j < rows.size(); ++j) s[j] += rows[j][c];
        }
      }
      tile_moved[tile] = moved;
      return Status::OK();
    });
    bool moved = false;
    for (uint8_t m : tile_moved) moved |= m != 0;
    if (!moved) break;

    std::vector<double> sums(kn, 0.0);
    std::vector<int64_t> counts(static_cast<size_t>(k), 0);
    for (size_t t = 0; t < static_cast<size_t>(ntiles); ++t) {
      const double* sp = sum_partial.data() + t * sum_stride;
      for (size_t i = 0; i < kn; ++i) sums[i] += sp[i];
      const int64_t* cp = count_partial.data() + t * count_stride;
      for (int64_t i = 0; i < k; ++i) counts[static_cast<size_t>(i)] += cp[i];
    }
    for (int64_t c = 0; c < k; ++c) {
      if (counts[static_cast<size_t>(c)] == 0) continue;  // keep old center
      for (int64_t j = 0; j < nb; ++j) {
        centers[static_cast<size_t>(c * nb + j)] =
            sums[static_cast<size_t>(c * nb + j)] /
            static_cast<double>(counts[static_cast<size_t>(c)]);
      }
    }
  }

  GAEA_ASSIGN_OR_RETURN(
      Image out, Image::Create(first.nrow(), first.ncol(), PixelType::kInt32));
  GAEA_RETURN_IF_ERROR(
      pool.ParallelRows("kmeans_emit", nrows, [&](int64_t r0, int64_t r1) {
        std::vector<double> row(ncol);
        for (int64_t r = r0; r < r1; ++r) {
          const int32_t* arow = assign.data() + r * ncol;
          for (int64_t c = 0; c < ncol; ++c) row[static_cast<size_t>(c)] = arow[c];
          out.WriteRow(r, row.data());
        }
        return Status::OK();
      }));
  return out;
}

StatusOr<Image> MaxLikelihoodClassify(const std::vector<const Image*>& bands,
                                      const Image& training) {
  GAEA_ASSIGN_OR_RETURN(std::vector<Image> stack, Composite(bands));
  const Image& first = stack[0];
  if (!training.SameShape(first)) {
    return Status::InvalidArgument("maxlike: training image shape mismatch");
  }
  const int64_t nrows = first.nrow64();
  const int64_t ncol = first.ncol64();
  const int64_t nb = static_cast<int64_t>(stack.size());
  const int64_t ntiles = TileCount(nrows);
  TilePool& pool = TilePool::Global();

  // Per-class mean and diagonal variance over labeled pixels: per-tile
  // label->sums maps merged in ascending tile order (deterministic for any
  // thread count; a single-tile raster reproduces the serial pass).
  struct ClassStats {
    std::vector<double> sum, sum2;
    int64_t n = 0;
  };
  std::vector<std::map<int, ClassStats>> partial(static_cast<size_t>(ntiles));
  pool.ParallelRows("maxlike_train", nrows, [&](int64_t r0, int64_t r1) {
    std::map<int, ClassStats>& local =
        partial[static_cast<size_t>(r0 / TilePool::kTileRows)];
    std::vector<double> lrow(ncol);
    std::vector<const double*> rows(static_cast<size_t>(nb));
    for (int64_t r = r0; r < r1; ++r) {
      training.ReadRow(r, lrow.data());
      BandRows(stack, r, &rows);
      for (int64_t c = 0; c < ncol; ++c) {
        int label = static_cast<int>(lrow[static_cast<size_t>(c)]);
        if (label < 0) continue;
        ClassStats& cs = local[label];
        if (cs.sum.empty()) {
          cs.sum.assign(static_cast<size_t>(nb), 0.0);
          cs.sum2.assign(static_cast<size_t>(nb), 0.0);
        }
        for (int64_t j = 0; j < nb; ++j) {
          double v = rows[static_cast<size_t>(j)][c];
          cs.sum[static_cast<size_t>(j)] += v;
          cs.sum2[static_cast<size_t>(j)] += v * v;
        }
        cs.n++;
      }
    }
    return Status::OK();
  });
  std::map<int, ClassStats> stats;
  for (const auto& local : partial) {
    for (const auto& [label, cs] : local) {
      ClassStats& merged = stats[label];
      if (merged.sum.empty()) {
        merged.sum.assign(static_cast<size_t>(nb), 0.0);
        merged.sum2.assign(static_cast<size_t>(nb), 0.0);
      }
      for (int64_t j = 0; j < nb; ++j) {
        merged.sum[static_cast<size_t>(j)] += cs.sum[static_cast<size_t>(j)];
        merged.sum2[static_cast<size_t>(j)] += cs.sum2[static_cast<size_t>(j)];
      }
      merged.n += cs.n;
    }
  }
  if (stats.empty()) {
    return Status::FailedPrecondition("maxlike: training image has no labels");
  }

  struct Gaussian {
    int label;
    std::vector<double> mean, var, log_var;
  };
  std::vector<Gaussian> models;
  for (const auto& [label, cs] : stats) {
    Gaussian g;
    g.label = label;
    g.mean.resize(static_cast<size_t>(nb));
    g.var.resize(static_cast<size_t>(nb));
    for (int64_t j = 0; j < nb; ++j) {
      g.mean[static_cast<size_t>(j)] =
          cs.sum[static_cast<size_t>(j)] / static_cast<double>(cs.n);
      double var = cs.sum2[static_cast<size_t>(j)] / static_cast<double>(cs.n) -
                   g.mean[static_cast<size_t>(j)] * g.mean[static_cast<size_t>(j)];
      g.var[static_cast<size_t>(j)] =
          std::max(var, 1e-6);  // floor to keep log-likelihood finite
    }
    for (double v : g.var) g.log_var.push_back(std::log(v));
    models.push_back(std::move(g));
  }

  GAEA_ASSIGN_OR_RETURN(
      Image out, Image::Create(first.nrow(), first.ncol(), PixelType::kInt32));
  GAEA_RETURN_IF_ERROR(
      pool.ParallelRows("maxlike_classify", nrows, [&](int64_t r0, int64_t r1) {
        std::vector<const double*> rows(static_cast<size_t>(nb));
        std::vector<double> orow(static_cast<size_t>(ncol));
        for (int64_t r = r0; r < r1; ++r) {
          BandRows(stack, r, &rows);
          for (int64_t c = 0; c < ncol; ++c) {
            double best_ll = -std::numeric_limits<double>::infinity();
            int best_label = models[0].label;
            for (const Gaussian& g : models) {
              double ll = 0;
              for (size_t j = 0; j < rows.size(); ++j) {
                double d = rows[j][c] - g.mean[j];
                ll += -0.5 * (d * d / g.var[j] + g.log_var[j]);
              }
              if (ll > best_ll) {
                best_ll = ll;
                best_label = g.label;
              }
            }
            orow[static_cast<size_t>(c)] = best_label;
          }
          out.WriteRow(r, orow.data());
        }
        return Status::OK();
      }));
  return out;
}

StatusOr<Image> ChangeMap(const Image& before, const Image& after,
                          int num_classes) {
  if (num_classes <= 0) {
    return Status::InvalidArgument("changemap: num_classes must be positive");
  }
  GAEA_ASSIGN_OR_RETURN(
      Image out,
      PointwiseBinary(before, after, [num_classes](double b, double a) {
        int bi = static_cast<int>(b), ai = static_cast<int>(a);
        return bi == ai ? -1.0 : static_cast<double>(bi * num_classes + ai);
      }));
  return out.ConvertTo(PixelType::kInt32);
}

StatusOr<double> ChangedFraction(const Image& change_map) {
  if (change_map.empty()) {
    return Status::InvalidArgument("changemap fraction of empty image");
  }
  const int64_t ncol = change_map.ncol64();
  std::vector<int64_t> partial(
      static_cast<size_t>(TileCount(change_map.nrow64())), 0);
  TilePool::Global().ParallelRows(
      "changed_fraction", change_map.nrow64(), [&](int64_t r0, int64_t r1) {
        std::vector<double> row(static_cast<size_t>(ncol));
        int64_t changed = 0;
        for (int64_t r = r0; r < r1; ++r) {
          change_map.ReadRow(r, row.data());
          for (int64_t c = 0; c < ncol; ++c) {
            if (row[static_cast<size_t>(c)] >= 0) ++changed;
          }
        }
        partial[static_cast<size_t>(r0 / TilePool::kTileRows)] = changed;
        return Status::OK();
      });
  int64_t changed = 0;
  for (int64_t p : partial) changed += p;
  return static_cast<double>(changed) /
         static_cast<double>(change_map.PixelCount());
}

}  // namespace gaea
