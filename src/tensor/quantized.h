#ifndef RELGRAPH_TENSOR_QUANTIZED_H_
#define RELGRAPH_TENSOR_QUANTIZED_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/buffer_pool.h"
#include "core/status.h"
#include "tensor/tensor.h"

namespace relgraph {

/// Numeric representation for serving-time storage and forwards. fp32 is
/// the training representation and the byte-exact default; bf16 halves
/// storage with ~8 significand bits; int8 quarters it with symmetric
/// per-row affine codes. See docs/performance.md ("Low-precision
/// kernels") for the full contract and measured accuracy deltas.
enum class Precision { kFp32 = 0, kBf16 = 1, kInt8 = 2 };

/// "fp32" | "bf16" | "int8".
const char* PrecisionName(Precision p);

/// Parses a precision name (exact match); anything else is
/// InvalidArgument naming the offender and the accepted set.
Result<Precision> ParsePrecision(const std::string& s);

/// A dense matrix stored as symmetric per-row int8 codes.
///
/// Row r dequantizes as `scale[r] * q[r][c]` — the zero point is
/// identically 0 under the symmetric contract (max|row| maps to ±127, an
/// all-zero row gets scale 0 and all-zero codes), so no zero-point array
/// is stored. Quantization is `kern::QuantizeRowRef`: shared scalar code
/// in the kernel TU, byte-identical across the SIMD and portable builds
/// and across thread counts (rows are independent).
///
/// Storage cost: n + 4 bytes per n-column row, vs 4n for fp32 — a 0.26x
/// footprint at n=64 and asymptotically 0.25x.
///
/// Like Tensor, a QuantizedTensor either owns its codes and scales or is a
/// non-owning row view of another one (RowView); readers see one
/// contiguous code array and one scale array either way.
///
/// Move-only; owned payload bytes are registered with QuantBytesRegistry
/// for the accountant.
class QuantizedTensor {
 public:
  QuantizedTensor() = default;
  QuantizedTensor(QuantizedTensor&& other) noexcept {
    *this = std::move(other);
  }
  QuantizedTensor& operator=(QuantizedTensor&& other) noexcept;
  QuantizedTensor(const QuantizedTensor&) = delete;
  QuantizedTensor& operator=(const QuantizedTensor&) = delete;

  /// Quantizes `t` row by row. Every element must be finite: a NaN or
  /// ±inf anywhere poisons its row's scale, so it is rejected up front
  /// with an error naming the exact row and column.
  static Result<QuantizedTensor> FromTensor(const Tensor& t);

  /// Owned all-zero storage (zero codes, zero scales) of the given shape.
  static QuantizedTensor Zeros(int64_t rows, int64_t cols);

  /// Zero-copy view of `nrows` consecutive rows of `parent` starting at
  /// `row_begin`. The caller keeps the parent alive for the view's
  /// lifetime.
  static QuantizedTensor RowView(const QuantizedTensor& parent,
                                 int64_t row_begin, int64_t nrows);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  bool empty() const { return rows_ * cols_ == 0; }

  float scale(int64_t r) const { return row_scales_[r]; }
  const float* scales() const { return row_scales_; }
  const int8_t* data() const { return codes_; }

  int8_t code(int64_t r, int64_t c) const { return codes_[r * cols_ + c]; }

  /// Dequantized value of one element: scale(r) * code(r, c), exactly one
  /// float rounding — the same expression every consumer (InputFeatures,
  /// Dequantize, tests) uses, so all paths see identical bits.
  float Dequant(int64_t r, int64_t c) const {
    return scale(r) * static_cast<float>(code(r, c));
  }

  /// Full dequantized copy (tests and cold paths; hot paths read
  /// elementwise via Dequant).
  Tensor Dequantize() const;

  /// Copies every row of `src` (codes and scales; widths must match) into
  /// rows [row, row + src.rows()) of this owned tensor. Writes only those
  /// rows, so readers of other rows may run concurrently — the capacity
  /// buffers behind HeteroGraph::AppendNodes rely on it.
  void WriteRows(int64_t row, const QuantizedTensor& src);

  /// Payload + scale bytes of the rows this tensor exposes.
  int64_t bytes() const {
    return rows_ * cols_ + rows_ * static_cast<int64_t>(sizeof(float));
  }

 private:
  /// Points the read pointers at the owned vectors (after any resize).
  void Bind();

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<float> scales_;  ///< owned: one per row (empty for views)
  std::vector<int8_t> data_;   ///< owned: row-major codes (empty for views)
  const float* row_scales_ = nullptr;  ///< scales_ or the viewed parent's
  const int8_t* codes_ = nullptr;      ///< data_ or the viewed parent's
  ScopedQuantBytes accounted_;
};

/// A weight matrix packed for the int8 GEMM microkernel: symmetric
/// per-COLUMN scales (each output feature gets its own scale — the
/// transpose of the activation-side per-row contract) and the
/// pre-widened int16 panel layout of kern::PackBInt8. Pack once per
/// weight version, reuse across batches, like PackedMatrix.
struct PackedInt8Matrix {
  PackedInt8Matrix() = default;
  PackedInt8Matrix(PackedInt8Matrix&&) noexcept = default;
  PackedInt8Matrix& operator=(PackedInt8Matrix&&) noexcept = default;
  PackedInt8Matrix(const PackedInt8Matrix&) = delete;
  PackedInt8Matrix& operator=(const PackedInt8Matrix&) = delete;

  int64_t rows = 0;             ///< logical k of the source k×n matrix
  int64_t cols = 0;             ///< logical n of the source k×n matrix
  std::vector<float> scales;    ///< n per-column scales
  std::vector<int16_t> packed;  ///< kern::PackBInt8 layout
  ScopedQuantBytes accounted;
};

/// Quantizes and packs `b` (k×n, k <= kern::kInt8MaxK) for MatMulInt8.
/// Non-finite entries are rejected with a precise error.
Result<PackedInt8Matrix> PackForMatMulInt8(const Tensor& b);

/// A dense matrix stored as bf16 (round-to-nearest-even truncation of
/// fp32). Expansion back to fp32 is exact, so bf16 storage error is
/// exactly one RNE rounding per element. Move-only; accounted.
struct Bf16Matrix {
  Bf16Matrix() = default;
  Bf16Matrix(Bf16Matrix&&) noexcept = default;
  Bf16Matrix& operator=(Bf16Matrix&&) noexcept = default;
  Bf16Matrix(const Bf16Matrix&) = delete;
  Bf16Matrix& operator=(const Bf16Matrix&) = delete;

  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<uint16_t> data;  ///< row-major bf16
  ScopedQuantBytes accounted;

  int64_t bytes() const {
    return static_cast<int64_t>(data.size() * sizeof(uint16_t));
  }
};

/// Round-trips `t` through bf16 storage.
Bf16Matrix Bf16FromTensor(const Tensor& t);

/// Exact fp32 expansion of a Bf16Matrix.
Tensor TensorFromBf16(const Bf16Matrix& m);

/// out = dequant(quant(a) @ b): activations are quantized per row on the
/// fly (symmetric, same kern::QuantizeRowRef contract — `a` must be
/// finite), accumulated in exact int32, and dequantized as
/// (a_scale[i] * b.scales[j]) * float(acc). Bit-identical across thread
/// counts and SIMD/scalar builds by construction. Parallel dispatch
/// mirrors MatMul (same serial threshold and row grain).
Tensor MatMulInt8(const Tensor& a, const PackedInt8Matrix& b);

/// out = a @ expand(b): fp32 GEMM against bf16-stored B, following the
/// fp32 ascending-p accumulation contract after exact expansion.
Tensor MatMulBf16(const Tensor& a, const Bf16Matrix& b);

/// One embedding row encoded for the serving cache at a chosen storage
/// precision. fp32 encodes losslessly (the cache behaves exactly as
/// before); bf16/int8 encode lossily — the engine canonicalizes every
/// freshly computed row through Encode→Decode before use, so a cache hit
/// and a cache miss always see identical bytes (the caches-on/off
/// bit-identity guarantee survives quantization).
class EncodedEmbedding {
 public:
  EncodedEmbedding() = default;
  EncodedEmbedding(EncodedEmbedding&&) noexcept = default;
  EncodedEmbedding& operator=(EncodedEmbedding&&) noexcept = default;
  EncodedEmbedding(const EncodedEmbedding&) = delete;
  EncodedEmbedding& operator=(const EncodedEmbedding&) = delete;

  /// Encodes `n` floats at `src`. Inputs must be finite for int8 (the
  /// engine validates checkpoints and features up front; embeddings of a
  /// finite model on finite inputs are finite).
  static EncodedEmbedding Encode(const float* src, int64_t n, Precision p);

  /// Writes the `dim()` decoded floats into dst.
  void Decode(float* dst) const;

  Precision precision() const { return precision_; }
  int64_t dim() const { return dim_; }

  /// Resident payload bytes (excludes the fixed header fields).
  int64_t bytes() const { return static_cast<int64_t>(payload_.size()); }

 private:
  Precision precision_ = Precision::kFp32;
  int64_t dim_ = 0;
  float scale_ = 0.0f;            ///< int8 only
  std::vector<uint8_t> payload_;  ///< codes / bf16 halves / raw fp32
  ScopedQuantBytes accounted_;
};

}  // namespace relgraph

#endif  // RELGRAPH_TENSOR_QUANTIZED_H_
