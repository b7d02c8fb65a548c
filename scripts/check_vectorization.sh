#!/usr/bin/env bash
# Verifies that the per-pixel raster kernels still auto-vectorize.
#
# The SIMD half of the two-level parallelism design (docs/PERF.md) relies on
# GCC turning the contiguous-row loops in src/raster/ into vector code under
# the flags src/CMakeLists.txt sets for those TUs (-O3 -fno-math-errno
# -fno-trapping-math; value-safe only — no -fassociative-math, reductions
# must stay bit-stable). Nothing in a normal build fails when a kernel
# silently drops back to scalar code, so CI compiles the four raster TUs
# with -fopt-info-vec-optimized and fails if the number of vectorized loops
# reported *inside each TU* falls below a floor set from the current
# GCC 12 baseline (image 5 / image_ops 11 / classify 11 / matrix 12,
# checked with ~20% headroom for compiler drift).
#
# It also guards each TU's object code (check_isa below): no fused
# multiply-add anywhere, since FMA rounds `a*b + c` once and so changes
# labels and pixel values; and, on x86-64, classify.cc must contain 256-bit
# (ymm) instructions, or its AVX2 nearest-center kernel is not really wide.
#
# Usage: scripts/check_vectorization.sh [compiler]   (default: g++)
#        scripts/check_vectorization.sh --object <classify.o>
#          only the object-code guard, on classify.cc compiled elsewhere
#          (CI runs it on clang++'s object).

set -u

# check_isa <object> <tu>: fails (returns 1) if the object has an FMA
# instruction, x86 (vfmadd/vfmsub/vfnmadd/vfnmsub) or AArch64
# (fmadd/fmsub/fnmadd/fnmsub/fmla/fmls), or if an x86-64 classify.cc object
# has no ymm instruction.
FMA_RE='[[:space:]](v?fn?m(add|sub)[0-9a-z]*|fml[as])[[:space:]]'
check_isa() {
  local obj="$1" tu="$2" asm fma
  asm="$(objdump -d --no-show-raw-insn "$obj")" || {
    echo "FAIL: objdump cannot read $obj"
    return 1
  }
  fma="$(grep -E "$FMA_RE" <<< "$asm")"
  if [ -n "$fma" ]; then
    echo "FAIL: $tu has fused multiply-add instructions"
    echo "      (is -ffp-contract=off missing from its flags?)"
    head -5 <<< "$fma"
    return 1
  fi
  if [ "$(basename "$tu")" = classify.cc ] &&
     grep -q 'file format elf64-x86-64' <<< "$asm"; then
    if ! grep -q '%ymm' <<< "$asm"; then
      echo "FAIL: $tu has no ymm instruction: the AVX2 kernel is not wide"
      return 1
    fi
    echo "OK:   $tu  no FMA, $(grep -c '%ymm' <<< "$asm") ymm instructions"
  else
    echo "OK:   $tu  no FMA"
  fi
}

if [ "${1:-}" = --object ]; then
  if [ -z "${2:-}" ]; then
    echo "usage: $0 --object <classify.o>"
    exit 2
  fi
  check_isa "$2" src/raster/classify.cc || exit 1
  exit 0
fi

cd "$(dirname "$0")/.."

CXX="${1:-g++}"
FLAGS="-std=c++20 -O3 -fno-math-errno -fno-trapping-math -ffp-contract=off -fopt-info-vec-optimized -Isrc"

# TU : minimum vectorized-loop count.
TUS="
src/raster/image.cc:4
src/raster/image_ops.cc:8
src/raster/classify.cc:8
src/raster/matrix.cc:9
"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

fail=0
for entry in $TUS; do
  tu="${entry%:*}"
  floor="${entry##*:}"
  remarks="$tmpdir/$(basename "$tu").remarks"
  if ! "$CXX" $FLAGS -c "$tu" -o "$tmpdir/out.o" 2> "$remarks"; then
    echo "FAIL: $tu does not compile under $CXX $FLAGS"
    cat "$remarks"
    fail=1
    continue
  fi
  # Count remarks attributed to the TU itself (headers vectorize too, but
  # the contract is about this file's kernels).
  count=$(grep -c "^$tu:.*loop vectorized" "$remarks")
  if [ "$count" -lt "$floor" ]; then
    echo "FAIL: $tu has $count vectorized loops, floor is $floor"
    echo "      (a kernel stopped auto-vectorizing; diff the remarks below"
    echo "       against the last green run)"
    grep "loop vectorized" "$remarks" | sort -u
    fail=1
  else
    echo "OK:   $tu  $count vectorized loops (floor $floor)"
  fi
  check_isa "$tmpdir/out.o" "$tu" || fail=1
done

if [ "$fail" -ne 0 ]; then
  echo "vectorization check FAILED"
  exit 1
fi
echo "vectorization check passed"
