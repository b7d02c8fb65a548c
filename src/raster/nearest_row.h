// The k-means nearest-center row kernels behind UnsupervisedClassify
// (src/raster/classify.cc). One template, instantiated at two vector
// widths; every width returns the labels of the scalar scan, so the host's
// CPU never changes a derived object.
//
// Exposed so tests can pin each width against the other on hosts where
// UnsupervisedClassify dispatches to only one of them.

#ifndef GAEA_RASTER_NEAREST_ROW_H_
#define GAEA_RASTER_NEAREST_ROW_H_

#include <cstdint>

namespace gaea {

// Labels pixels [0, ncol) of one row given as band planes (`rows[j]` is
// band j's row): out[c] is the index of the nearest of the k row-major
// `centers` (k x nb). A distance is 0 + sum_j (x_j - c_j)^2 accumulated in
// band order, and a strict `<` over ascending centers keeps the lowest index
// on ties and never selects a NaN distance.
//
// Two doubles per vector, the SSE2/NEON baseline: runs on every CPU.
void NearestRowPortable(const double* const* rows, int64_t ncol,
                        const double* centers, int64_t k, int64_t nb,
                        int32_t* out);

#if defined(__x86_64__)
#define GAEA_NEAREST_ROW_HAVE_AVX2 1
// The same labels, four doubles per vector. Call only where CpuHasAvx2().
void NearestRowAvx2(const double* const* rows, int64_t ncol,
                    const double* centers, int64_t k, int64_t nb,
                    int32_t* out);
#endif

// Whether this CPU runs NearestRowAvx2 (always false off x86-64); probed
// once.
bool CpuHasAvx2();

}  // namespace gaea

#endif  // GAEA_RASTER_NEAREST_ROW_H_
