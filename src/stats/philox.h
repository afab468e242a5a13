// Counter-based random substrate: Philox4x32-10 (Salmon et al.,
// "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11 — the Random123 /
// cuRAND configuration) plus scalar draws and batch sampling kernels.
//
// This is the library's only generator: every seeded population, noise
// stream, basis draw and retry jitter comes from it (stats::Rng in
// stats/rng.h is an alias). Output word w is a pure function of
// (seed, stream, w), which buys what the bulk paths need:
//
//   * O(1) seeking — any position in any stream can be generated without
//     producing the values before it;
//   * cheap derived substreams — Substream(id) keys an independent
//     stream, so chunked/parallel generation can hand block b its own
//     stream and remain bitwise reproducible for ANY chunk/thread split;
//   * batch fills — uniforms, Bernoulli flips and a vectorized
//     Box–Muller Gaussian transform run over SIMD lanes, with a scalar
//     reference implementation that is BITWISE IDENTICAL (the SIMD and
//     scalar code perform the same correctly-rounded operations in the
//     same order; dispatch is by runtime CPU detection, so one build
//     produces one stream on every x86-64 machine).
//
// Scalar draws (Gaussian(), Uniform(), UniformInt(), ...) read the same
// canonical sequence through a 64-word group cache, so a run of scalar
// draws equals the batch fill of the same length from the same cursor.
//
// Determinism contract (see README "Random substrate"):
//   * raw words, uniforms, Bernoulli bits and Gaussians are bitwise
//     stable across machines, SIMD levels, thread counts and chunk
//     splits for a fixed library version;
//   * derived transforms outside this file (e.g. Laplace inversion, MVN
//     factor multiplication) are bitwise stable for a fixed build.
//
// Choice of 4x32 over 4x64: the 32x32->64 products of Philox4x32 are
// single instructions on every SIMD tier (mul_epu32), while 64x64->128
// products vectorize poorly; measured on the build host the 4x32 kernel
// generates raw words ~2x faster. Ten rounds is the Random123 default
// (BigCrush-clean with headroom).

#ifndef RANDRECON_STATS_PHILOX_H_
#define RANDRECON_STATS_PHILOX_H_

#include <cstddef>
#include <cstdint>

#include "linalg/matrix.h"

namespace randrecon {
namespace stats {

/// Splittable counter-based PRNG stream with batch sampling kernels.
///
/// A Philox instance is a (seed, stream, cursor) triple. The canonical
/// 32-bit word sequence of (seed, stream) is fixed (see philox.cc); the
/// cursor is a position in that sequence. Consumption per element:
///   uniform double   — 2 words (53-bit mantissa)
///   Gaussian double  — 1 word (32-bit radius uniform or 2+30-bit angle;
///                      Box–Muller pairs, so fills round up to even)
///   Bernoulli draw   — 1 word (32-bit threshold compare)
///   UniformInt       — 2 words per try (rejection is rare)
class Philox {
 public:
  /// 32-bit output words per Philox block.
  static constexpr size_t kWordsPerBlock = 4;
  /// Blocks interleaved per SIMD group; the canonical word order is
  /// lane-major over groups of this many blocks.
  static constexpr size_t kBlocksPerGroup = 16;
  /// Words per group (= kWordsPerBlock * kBlocksPerGroup).
  static constexpr size_t kWordsPerGroup = 64;

  explicit Philox(uint64_t seed, uint64_t stream = 0)
      : seed_(seed), stream_(stream) {}

  uint64_t seed() const { return seed_; }
  uint64_t stream() const { return stream_; }

  /// Cursor position, in 32-bit words of the canonical sequence.
  uint64_t position() const { return pos_; }

  /// O(1) absolute repositioning (no values are generated).
  void Seek(uint64_t word_index) {
    pos_ = word_index;
    has_spare_ = false;
  }

  /// An independent derived stream (cursor at 0). The id is mixed
  /// through a SplitMix64 finalizer, so nested derivation is fine;
  /// the mapping is fixed forever but not cryptographic.
  Philox Substream(uint64_t substream_id) const;

  /// Next canonical word / two words little-endian.
  uint32_t Next32();
  uint64_t Next64();

  /// Uniform [0, 1) with 53-bit resolution (consumes 2 words; aligns the
  /// cursor up to an even word first).
  double NextUniform();

  /// Scalar draws. Gaussian() serves Box–Muller pairs: the first call
  /// computes a pair and keeps its second value, the next call returns
  /// it. A run of k consecutive Gaussian() calls therefore returns
  /// exactly FillGaussian(k) from the same cursor and leaves the cursor
  /// where that fill would. Any other draw, fill or Seek drops a kept
  /// value (as FillGaussian of an odd count drops the last sine).
  double Gaussian();
  double Gaussian(double mean, double stddev);  // mean + stddev * z
  double Uniform(double lo, double hi);         // lo + u * (hi - lo)
  /// Unbiased uniform integer on [lo, hi] inclusive (Lemire's
  /// multiply-and-reject over Next64; any span up to the full int64 range).
  int64_t UniformInt(int64_t lo, int64_t hi);
  /// A fresh seed derived from this stream (for per-trial generators).
  uint64_t NextSeed() { return Next64(); }

  /// A rows x cols matrix of i.i.d. N(0, 1) entries (one FillGaussian).
  linalg::Matrix GaussianMatrix(size_t rows, size_t cols);
  /// n i.i.d. N(mean, stddev²) entries (one FillGaussian).
  linalg::Vector GaussianVector(size_t n, double mean = 0.0,
                                double stddev = 1.0);

  /// Batch fills from the current cursor; each advances the cursor by
  /// the number of words consumed (after any alignment documented above).
  /// SIMD inside, bitwise equal to the scalar reference.
  void FillUniform(double* out, size_t n);  // [0, 1)
  void FillUniform(double lo, double hi, double* out, size_t n);
  void FillGaussian(double* out, size_t n);  // N(0, 1)
  void FillGaussian(double mean, double stddev, double* out, size_t n);
  void FillBernoulli(double p, uint8_t* out, size_t n);  // 1 w.p. p

 private:
  /// Fills the group cache with the group holding pos_.
  void LoadGroup();
  /// Aligns the cursor to an even word and consumes the pair there,
  /// returned from the group cache.
  const uint32_t* NextPair();

  uint64_t seed_ = 0;
  uint64_t stream_ = 0;
  uint64_t pos_ = 0;
  // Group cache for the scalar draws.
  uint32_t group_words_[kWordsPerGroup];
  uint64_t cached_group_ = ~uint64_t{0};
  // The kept second value of the last Gaussian() pair.
  double spare_ = 0.0;
  bool has_spare_ = false;
};

// ---------------------------------------------------------------------------
// Stateless random access. Element e of a canonical per-type sequence is
// a pure function of (stream.seed(), stream.stream(), e) — the cursor of
// `stream` is ignored. These are what the fixed-block parallel record
// generators build on: any [begin, begin+n) slice of any stream can be
// produced independently, and assembling slices in any order yields the
// byte-identical sequence.
// ---------------------------------------------------------------------------

/// out[i] = uniform element (elem_begin + i): words (2e, 2e+1), [0, 1).
void UniformSliceAt(const Philox& stream, uint64_t elem_begin, double* out,
                    size_t n);

/// Affine variant: lo + u * (hi - lo).
void UniformSliceAt(const Philox& stream, double lo, double hi,
                    uint64_t elem_begin, double* out, size_t n);

/// out[i] = standard-normal element (elem_begin + i). Elements 2p and
/// 2p+1 form Box–Muller pair p over words (2p, 2p+1).
void GaussianSliceAt(const Philox& stream, uint64_t elem_begin, double* out,
                     size_t n);

/// Affine variant: mean + stddev * z.
void GaussianSliceAt(const Philox& stream, double mean, double stddev,
                     uint64_t elem_begin, double* out, size_t n);

/// out[i] = 1 with probability p: word e scaled to [0,1) compared to p.
void BernoulliSliceAt(const Philox& stream, double p, uint64_t elem_begin,
                      uint8_t* out, size_t n);

/// The substrate's polynomial ln(x) for x in (0, 1], exactly the function
/// the Gaussian kernel applies to its radius uniform. Bitwise stable
/// across machines (unlike libm log); exposed for derived samplers
/// (e.g. Laplace inversion). Accuracy ~1e-12 relative.
double Log01(double x);

// ---------------------------------------------------------------------------
// Internals exposed for tests and benchmarks.
// ---------------------------------------------------------------------------
namespace philox_internal {

/// One Philox4x32-10 block: counter = (lo32(block_index), hi32(block_index),
/// lo32(stream), hi32(stream)), key = (lo32(seed), hi32(seed)). This is
/// the reference the known-answer tests pin.
void ReferenceBlock(uint64_t block_index, uint64_t stream, uint64_t seed,
                    uint32_t out[4]);

/// Fills out[0..n) with canonical words [word_begin, word_begin + n).
/// Scalar engine; the dispatched variant picks the widest SIMD engine the
/// CPU supports (bitwise identical output).
void FillRawScalar(uint64_t seed, uint64_t stream, uint64_t word_begin,
                   uint32_t* out, size_t n);
void FillRawDispatched(uint64_t seed, uint64_t stream, uint64_t word_begin,
                       uint32_t* out, size_t n);

/// Box–Muller over staged raw words: pair p reads words[2p] (radius
/// uniform) and words[2p+1] (quadrant + angle) and writes out[2p],
/// out[2p+1]. Scalar reference and runtime-dispatched SIMD variant are
/// bitwise identical.
void BoxMullerScalar(const uint32_t* words, double* out, size_t pairs);
void BoxMullerDispatched(const uint32_t* words, double* out, size_t pairs);

/// Name of the engine FillRawDispatched/BoxMullerDispatched resolve to on
/// this machine ("avx512", "avx2" or "scalar"). Set RANDRECON_NO_SIMD=1
/// to force "scalar".
const char* ActiveEngine();

}  // namespace philox_internal

}  // namespace stats
}  // namespace randrecon

#endif  // RANDRECON_STATS_PHILOX_H_
