#include "tensor/quantized.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "core/logging.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/string_util.h"
#include "tensor/gemm_dispatch.h"
#include "tensor/simd_kernels.h"

namespace relgraph {

namespace {

constexpr int64_t kQuantRowGrain = 64;

/// First non-finite element of `t`, or ok. The error names the exact
/// coordinate so a poisoned feature column is a one-line diagnosis.
Status CheckAllFinite(const Tensor& t, const char* what) {
  const float* d = t.data();
  const int64_t cols = t.cols() > 0 ? t.cols() : 1;
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(d[i])) {
      return Status::InvalidArgument(StrFormat(
          "%s: non-finite value %f at row %lld col %lld — quantization "
          "requires finite inputs",
          what, static_cast<double>(d[i]),
          static_cast<long long>(i / cols),
          static_cast<long long>(i % cols)));
    }
  }
  return Status::OK();
}

}  // namespace

const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kBf16: return "bf16";
    case Precision::kInt8: return "int8";
  }
  return "fp32";
}

Result<Precision> ParsePrecision(const std::string& s) {
  if (s == "fp32") return Precision::kFp32;
  if (s == "bf16") return Precision::kBf16;
  if (s == "int8") return Precision::kInt8;
  return Status::InvalidArgument("unknown precision '" + s +
                                 "' (want fp32 | bf16 | int8)");
}

QuantizedTensor& QuantizedTensor::operator=(
    QuantizedTensor&& other) noexcept {
  if (this == &other) return *this;
  rows_ = std::exchange(other.rows_, 0);
  cols_ = std::exchange(other.cols_, 0);
  scales_ = std::move(other.scales_);
  data_ = std::move(other.data_);
  row_scales_ = std::exchange(other.row_scales_, nullptr);
  codes_ = std::exchange(other.codes_, nullptr);
  accounted_ = std::move(other.accounted_);
  return *this;
}

void QuantizedTensor::Bind() {
  row_scales_ = scales_.data();
  codes_ = data_.data();
  accounted_.Reset(QuantDtype::kInt8, bytes());
}

Result<QuantizedTensor> QuantizedTensor::FromTensor(const Tensor& t) {
  RELGRAPH_RETURN_IF_ERROR(CheckAllFinite(t, "QuantizedTensor::FromTensor"));
  QuantizedTensor q = Zeros(t.rows(), t.cols());
  const float* src = t.data();
  const int64_t cols = t.cols();
  float* scales = q.scales_.data();
  int8_t* codes = q.data_.data();
  // Rows quantize independently (disjoint writes, pure reads), so the
  // chunked schedule is bit-identical to serial at any thread count.
  ParallelFor(0, t.rows(), kQuantRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      kern::QuantizeRowRef(src + r * cols, cols, codes + r * cols,
                           scales + r);
    }
  });
  return q;
}

QuantizedTensor QuantizedTensor::Zeros(int64_t rows, int64_t cols) {
  QuantizedTensor q;
  q.rows_ = rows;
  q.cols_ = cols;
  q.scales_.assign(static_cast<size_t>(rows), 0.0f);
  q.data_.assign(static_cast<size_t>(rows * cols), 0);
  q.Bind();
  return q;
}

QuantizedTensor QuantizedTensor::RowView(const QuantizedTensor& parent,
                                         int64_t row_begin, int64_t nrows) {
  RELGRAPH_CHECK(row_begin >= 0 && nrows >= 0 &&
                 row_begin + nrows <= parent.rows_)
      << "row view [" << row_begin << ", " << row_begin + nrows << ") of "
      << parent.rows_ << " rows";
  QuantizedTensor v;
  v.rows_ = nrows;
  v.cols_ = parent.cols_;
  v.row_scales_ = parent.row_scales_ + row_begin;
  v.codes_ = parent.codes_ + row_begin * parent.cols_;
  return v;
}

Tensor QuantizedTensor::Dequantize() const {
  Tensor out(rows_, cols_);
  float* dst = out.data();
  for (int64_t r = 0; r < rows_; ++r) {
    const float s = row_scales_[r];
    const int8_t* row = codes_ + r * cols_;
    float* orow = dst + r * cols_;
    for (int64_t c = 0; c < cols_; ++c) {
      orow[c] = s * static_cast<float>(row[c]);
    }
  }
  return out;
}

void QuantizedTensor::WriteRows(int64_t row, const QuantizedTensor& src) {
  RELGRAPH_CHECK(codes_ == data_.data()) << "WriteRows on a row view";
  RELGRAPH_CHECK(src.cols_ == cols_ && row >= 0 &&
                 row + src.rows_ <= rows_)
      << "WriteRows of " << src.rows_ << "x" << src.cols_ << " at row "
      << row << " into " << rows_ << "x" << cols_;
  std::memcpy(data_.data() + row * cols_, src.codes_,
              static_cast<size_t>(src.rows_ * cols_));
  std::memcpy(scales_.data() + row, src.row_scales_,
              static_cast<size_t>(src.rows_) * sizeof(float));
}

Result<PackedInt8Matrix> PackForMatMulInt8(const Tensor& b) {
  RELGRAPH_RETURN_IF_ERROR(CheckAllFinite(b, "PackForMatMulInt8"));
  const int64_t k = b.rows(), n = b.cols();
  RELGRAPH_CHECK(k <= kern::kInt8MaxK)
      << "int8 GEMM inner dimension " << k << " exceeds the exact-int32 "
      << "accumulation bound " << kern::kInt8MaxK;
  PackedInt8Matrix pm;
  pm.rows = k;
  pm.cols = n;
  pm.scales.resize(static_cast<size_t>(n));
  // Per-column symmetric quantization: each output feature j dequantizes
  // as scales[j] * q — the transpose of the activation-side per-row
  // contract, with the same scale/clamp/rounding rules as QuantizeRowRef.
  std::vector<int8_t> codes(static_cast<size_t>(k * n), 0);
  const float* src = b.data();
  for (int64_t j = 0; j < n; ++j) {
    float max_abs = 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      const float a = std::fabs(src[p * n + j]);
      if (a > max_abs) max_abs = a;
    }
    if (max_abs == 0.0f) {
      pm.scales[static_cast<size_t>(j)] = 0.0f;
      continue;  // codes are already zero
    }
    const float inv = 127.0f / max_abs;
    for (int64_t p = 0; p < k; ++p) {
      long v = std::lrintf(src[p * n + j] * inv);
      if (v > 127) v = 127;
      if (v < -127) v = -127;
      codes[static_cast<size_t>(p * n + j)] = static_cast<int8_t>(v);
    }
    pm.scales[static_cast<size_t>(j)] = max_abs / 127.0f;
  }
  pm.packed.resize(static_cast<size_t>(kern::PackedSizeInt8(k, n)));
  kern::PackBInt8(codes.data(), k, n, pm.packed.data());
  pm.accounted.Reset(
      QuantDtype::kInt8,
      static_cast<int64_t>(pm.packed.size() * sizeof(int16_t) +
                           pm.scales.size() * sizeof(float)));
  return pm;
}

Bf16Matrix Bf16FromTensor(const Tensor& t) {
  Bf16Matrix m;
  m.rows = t.rows();
  m.cols = t.cols();
  m.data.resize(static_cast<size_t>(t.numel()));
  const float* src = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    m.data[static_cast<size_t>(i)] = kern::Bf16FromF32(src[i]);
  }
  m.accounted.Reset(QuantDtype::kBf16, m.bytes());
  return m;
}

Tensor TensorFromBf16(const Bf16Matrix& m) {
  Tensor out(m.rows, m.cols);
  float* dst = out.data();
  for (size_t i = 0; i < m.data.size(); ++i) {
    dst[i] = kern::F32FromBf16(m.data[i]);
  }
  return out;
}

Tensor MatMulInt8(const Tensor& a, const PackedInt8Matrix& b) {
  RELGRAPH_CHECK(a.cols() == b.rows)
      << "matmul-int8 shape mismatch: " << a.cols() << " vs " << b.rows;
  Tensor out(a.rows(), b.cols);
  const int64_t m = a.rows(), k = a.cols(), n = b.cols;
  if (m == 0 || k == 0 || n == 0) return out;
  // Quantize activations per row and widen to the padded int16 layout the
  // madd kernel consumes. Rows are independent, so the parallel schedule
  // cannot change a byte.
  const int64_t k_pad = (k + 1) & ~int64_t{1};
  std::vector<int16_t> a16(static_cast<size_t>(m * k_pad), 0);
  std::vector<float> a_scales(static_cast<size_t>(m));
  const float* A = a.data();
  ParallelFor(0, m, kQuantRowGrain, [&](int64_t lo, int64_t hi) {
    std::vector<int8_t> qrow(static_cast<size_t>(k));
    for (int64_t i = lo; i < hi; ++i) {
      kern::QuantizeRowRef(A + i * k, k, qrow.data(),
                           a_scales.data() + i);
      int16_t* dst = a16.data() + i * k_pad;
      for (int64_t p = 0; p < k; ++p) {
        dst[p] = static_cast<int16_t>(qrow[static_cast<size_t>(p)]);
      }
    }
  });
  float* O = out.data();
  auto row_chunk = [&](int64_t i0, int64_t i1) {
    kern::Int8GemmPackedRowChunk(a16.data(), a_scales.data(),
                                 b.packed.data(), b.scales.data(), O, i0,
                                 i1, k, n);
  };
  RunGemmRows(m, n, k, row_chunk);
  return out;
}

Tensor MatMulBf16(const Tensor& a, const Bf16Matrix& b) {
  RELGRAPH_CHECK(a.cols() == b.rows)
      << "matmul-bf16 shape mismatch: " << a.cols() << " vs " << b.rows;
  Tensor out(a.rows(), b.cols);
  const int64_t m = a.rows(), k = a.cols(), n = b.cols;
  if (m == 0 || k == 0 || n == 0) return out;
  const float* A = a.data();
  const uint16_t* B16 = b.data.data();
  float* O = out.data();
  auto row_chunk = [&](int64_t i0, int64_t i1) {
    kern::Bf16GemmRowChunk(A, B16, O, i0, i1, k, n);
  };
  RunGemmRows(m, n, k, row_chunk);
  return out;
}

EncodedEmbedding EncodedEmbedding::Encode(const float* src, int64_t n,
                                          Precision p) {
  EncodedEmbedding e;
  e.precision_ = p;
  e.dim_ = n;
  switch (p) {
    case Precision::kFp32: {
      e.payload_.resize(static_cast<size_t>(n) * sizeof(float));
      std::memcpy(e.payload_.data(), src, e.payload_.size());
      // fp32 is not a low-precision dtype; no registry entry.
      break;
    }
    case Precision::kBf16: {
      e.payload_.resize(static_cast<size_t>(n) * sizeof(uint16_t));
      uint16_t* h = reinterpret_cast<uint16_t*>(e.payload_.data());
      for (int64_t i = 0; i < n; ++i) h[i] = kern::Bf16FromF32(src[i]);
      e.accounted_.Reset(QuantDtype::kBf16, e.bytes());
      break;
    }
    case Precision::kInt8: {
      e.payload_.resize(static_cast<size_t>(n));
      kern::QuantizeRowRef(src, n,
                           reinterpret_cast<int8_t*>(e.payload_.data()),
                           &e.scale_);
      e.accounted_.Reset(QuantDtype::kInt8, e.bytes());
      break;
    }
  }
  return e;
}

void EncodedEmbedding::Decode(float* dst) const {
  switch (precision_) {
    case Precision::kFp32: {
      std::memcpy(dst, payload_.data(),
                  static_cast<size_t>(dim_) * sizeof(float));
      break;
    }
    case Precision::kBf16: {
      const uint16_t* h =
          reinterpret_cast<const uint16_t*>(payload_.data());
      for (int64_t i = 0; i < dim_; ++i) dst[i] = kern::F32FromBf16(h[i]);
      break;
    }
    case Precision::kInt8: {
      const int8_t* q = reinterpret_cast<const int8_t*>(payload_.data());
      for (int64_t i = 0; i < dim_; ++i) {
        dst[i] = scale_ * static_cast<float>(q[i]);
      }
      break;
    }
  }
}

}  // namespace relgraph
