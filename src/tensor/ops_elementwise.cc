// Broadcasting elementwise kernels, comparisons, logical ops, and unary math.
#include <cmath>
#include <functional>

#include "tensor/ops.h"

namespace janus::ops {
namespace {

// Iterates an output shape, mapping each output linear index to the linear
// indices of two broadcast inputs (stride 0 on size-1 dims).
class BroadcastIndexer {
 public:
  BroadcastIndexer(const Shape& a, const Shape& b, const Shape& out)
      : rank_(out.rank()), out_dims_(out.dims()) {
    const auto pad_strides = [&](const Shape& s) {
      std::vector<std::int64_t> strides(static_cast<std::size_t>(rank_), 0);
      const auto native = s.Strides();
      const int offset = rank_ - s.rank();
      for (int i = 0; i < s.rank(); ++i) {
        const auto out_axis = static_cast<std::size_t>(offset + i);
        strides[out_axis] =
            s.dim(i) == 1 ? 0 : native[static_cast<std::size_t>(i)];
      }
      return strides;
    };
    a_strides_ = pad_strides(a);
    b_strides_ = pad_strides(b);
  }

  // Computes (a_index, b_index) for the given output linear index.
  std::pair<std::int64_t, std::int64_t> Map(std::int64_t out_index) const {
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t rem = out_index;
    for (int axis = rank_ - 1; axis >= 0; --axis) {
      const auto i = static_cast<std::size_t>(axis);
      const std::int64_t coord = rem % out_dims_[i];
      rem /= out_dims_[i];
      a += coord * a_strides_[i];
      b += coord * b_strides_[i];
    }
    return {a, b};
  }

 private:
  int rank_;
  std::vector<std::int64_t> out_dims_;
  std::vector<std::int64_t> a_strides_;
  std::vector<std::int64_t> b_strides_;
};

void CheckSameDType(const Tensor& a, const Tensor& b, const char* op) {
  if (a.dtype() != b.dtype()) {
    throw InvalidArgument(std::string(op) + ": dtype mismatch (" +
                          DTypeName(a.dtype()) + " vs " +
                          DTypeName(b.dtype()) + ")");
  }
}

template <typename T, typename F>
Tensor BinaryImpl(const Tensor& a, const Tensor& b, DType out_dtype, F fn) {
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  // With identical operand shapes every write to output element i reads only
  // operand element i, so (under an active InPlaceScope) the output may
  // overwrite a dying operand's buffer. Broadcast outputs must not alias an
  // operand: stride-0 dims re-read elements after earlier writes.
  const bool same_shape = a.shape() == b.shape();
  Tensor out = same_shape ? Tensor::OutputBuffer({&a, &b}, out_dtype, out_shape)
                          : Tensor::Uninitialized(out_dtype, out_shape);
  const auto av = a.data<T>();
  const auto bv = b.data<T>();
  const std::int64_t n = out_shape.num_elements();
  // Fast path: identical shapes — no index mapping needed.
  if (same_shape) {
    if constexpr (std::is_same_v<T, float>) {
      if (out_dtype == DType::kFloat32) {
        auto ov = out.mutable_data<float>();
        for (std::int64_t i = 0; i < n; ++i) {
          const auto u = static_cast<std::size_t>(i);
          ov[u] = fn(av[u], bv[u]);
        }
        return out;
      }
    }
  }
  const auto write = [&](auto span) {
    const auto u = [](std::int64_t i) { return static_cast<std::size_t>(i); };
    // A one-element operand broadcasts against every element of the other,
    // whose element i is then output element i: no index mapping needed.
    if (av.size() == 1 && bv.size() == u(n)) {
      for (std::int64_t i = 0; i < n; ++i) span[u(i)] = fn(av[0], bv[u(i)]);
      return;
    }
    if (bv.size() == 1 && av.size() == u(n)) {
      for (std::int64_t i = 0; i < n; ++i) span[u(i)] = fn(av[u(i)], bv[0]);
      return;
    }
    const BroadcastIndexer indexer(a.shape(), b.shape(), out_shape);
    for (std::int64_t i = 0; i < n; ++i) {
      const auto [ai, bi] = indexer.Map(i);
      span[u(i)] = fn(av[u(ai)], bv[u(bi)]);
    }
  };
  switch (out_dtype) {
    case DType::kFloat32:
      write(out.mutable_data<float>());
      break;
    case DType::kInt64:
      write(out.mutable_data<std::int64_t>());
      break;
    case DType::kBool:
      write(out.mutable_data<std::uint8_t>());
      break;
  }
  return out;
}

// Dispatches a numeric binary op over float32 / int64 operands.
template <typename FF, typename FI>
Tensor NumericBinary(const char* name, const Tensor& a, const Tensor& b,
                     FF ffn, FI ifn) {
  CheckSameDType(a, b, name);
  switch (a.dtype()) {
    case DType::kFloat32:
      return BinaryImpl<float>(a, b, DType::kFloat32, ffn);
    case DType::kInt64:
      return BinaryImpl<std::int64_t>(a, b, DType::kInt64, ifn);
    case DType::kBool:
      throw InvalidArgument(std::string(name) + ": bool operands unsupported");
  }
  throw InternalError("unreachable dtype");
}

template <typename F>
Tensor Compare(const char* name, const Tensor& a, const Tensor& b, F fn) {
  CheckSameDType(a, b, name);
  switch (a.dtype()) {
    case DType::kFloat32:
      return BinaryImpl<float>(a, b, DType::kBool, [&](float x, float y) {
        return static_cast<std::uint8_t>(fn(x, y) ? 1 : 0);
      });
    case DType::kInt64:
      return BinaryImpl<std::int64_t>(
          a, b, DType::kBool, [&](std::int64_t x, std::int64_t y) {
            return static_cast<std::uint8_t>(fn(x, y) ? 1 : 0);
          });
    case DType::kBool:
      return BinaryImpl<std::uint8_t>(
          a, b, DType::kBool, [&](std::uint8_t x, std::uint8_t y) {
            return static_cast<std::uint8_t>(fn(x != 0, y != 0) ? 1 : 0);
          });
  }
  throw InternalError("unreachable dtype");
}

template <typename F>
Tensor UnaryFloat(const char* name, const Tensor& a, F fn) {
  if (a.dtype() != DType::kFloat32) {
    throw InvalidArgument(std::string(name) + ": requires float32 operand");
  }
  Tensor out = Tensor::OutputBuffer({&a}, DType::kFloat32, a.shape());
  const auto av = a.data<float>();
  auto ov = out.mutable_data<float>();
  for (std::size_t i = 0; i < av.size(); ++i) ov[i] = fn(av[i]);
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return NumericBinary(
      "Add", a, b, [](float x, float y) { return x + y; },
      [](std::int64_t x, std::int64_t y) { return x + y; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return NumericBinary(
      "Sub", a, b, [](float x, float y) { return x - y; },
      [](std::int64_t x, std::int64_t y) { return x - y; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return NumericBinary(
      "Mul", a, b, [](float x, float y) { return x * y; },
      [](std::int64_t x, std::int64_t y) { return x * y; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  CheckSameDType(a, b, "Div");
  if (a.dtype() == DType::kInt64) {
    // True division promotes to float, as in Python 3.
    return Div(Cast(a, DType::kFloat32), Cast(b, DType::kFloat32));
  }
  return BinaryImpl<float>(a, b, DType::kFloat32,
                           [](float x, float y) { return x / y; });
}

Tensor FloorDiv(const Tensor& a, const Tensor& b) {
  return NumericBinary(
      "FloorDiv", a, b,
      [](float x, float y) { return std::floor(x / y); },
      [](std::int64_t x, std::int64_t y) {
        if (y == 0) throw InvalidArgument("integer division by zero");
        std::int64_t q = x / y;
        if ((x % y != 0) && ((x < 0) != (y < 0))) --q;
        return q;
      });
}

Tensor Mod(const Tensor& a, const Tensor& b) {
  return NumericBinary(
      "Mod", a, b,
      [](float x, float y) { return x - y * std::floor(x / y); },
      [](std::int64_t x, std::int64_t y) {
        if (y == 0) throw InvalidArgument("integer modulo by zero");
        std::int64_t r = x % y;
        if (r != 0 && ((r < 0) != (y < 0))) r += y;
        return r;
      });
}

Tensor Pow(const Tensor& a, const Tensor& b) {
  return NumericBinary(
      "Pow", a, b, [](float x, float y) { return std::pow(x, y); },
      [](std::int64_t x, std::int64_t y) {
        std::int64_t result = 1;
        for (std::int64_t i = 0; i < y; ++i) result *= x;
        return result;
      });
}

Tensor Maximum(const Tensor& a, const Tensor& b) {
  return NumericBinary(
      "Maximum", a, b, [](float x, float y) { return x > y ? x : y; },
      [](std::int64_t x, std::int64_t y) { return x > y ? x : y; });
}

Tensor Minimum(const Tensor& a, const Tensor& b) {
  return NumericBinary(
      "Minimum", a, b, [](float x, float y) { return x < y ? x : y; },
      [](std::int64_t x, std::int64_t y) { return x < y ? x : y; });
}

Tensor Equal(const Tensor& a, const Tensor& b) {
  return Compare("Equal", a, b, [](auto x, auto y) { return x == y; });
}
Tensor NotEqual(const Tensor& a, const Tensor& b) {
  return Compare("NotEqual", a, b, [](auto x, auto y) { return x != y; });
}
Tensor Less(const Tensor& a, const Tensor& b) {
  return Compare("Less", a, b, [](auto x, auto y) { return x < y; });
}
Tensor LessEqual(const Tensor& a, const Tensor& b) {
  return Compare("LessEqual", a, b, [](auto x, auto y) { return x <= y; });
}
Tensor Greater(const Tensor& a, const Tensor& b) {
  return Compare("Greater", a, b, [](auto x, auto y) { return x > y; });
}
Tensor GreaterEqual(const Tensor& a, const Tensor& b) {
  return Compare("GreaterEqual", a, b, [](auto x, auto y) { return x >= y; });
}

Tensor LogicalAnd(const Tensor& a, const Tensor& b) {
  CheckSameDType(a, b, "LogicalAnd");
  return BinaryImpl<std::uint8_t>(
      a, b, DType::kBool, [](std::uint8_t x, std::uint8_t y) {
        return static_cast<std::uint8_t>((x != 0 && y != 0) ? 1 : 0);
      });
}

Tensor LogicalOr(const Tensor& a, const Tensor& b) {
  CheckSameDType(a, b, "LogicalOr");
  return BinaryImpl<std::uint8_t>(
      a, b, DType::kBool, [](std::uint8_t x, std::uint8_t y) {
        return static_cast<std::uint8_t>((x != 0 || y != 0) ? 1 : 0);
      });
}

Tensor LogicalNot(const Tensor& a) {
  if (a.dtype() != DType::kBool) {
    throw InvalidArgument("LogicalNot: requires bool operand");
  }
  Tensor out = Tensor::OutputBuffer({&a}, DType::kBool, a.shape());
  const auto av = a.data<std::uint8_t>();
  auto ov = out.mutable_data<std::uint8_t>();
  for (std::size_t i = 0; i < av.size(); ++i) ov[i] = av[i] != 0 ? 0 : 1;
  return out;
}

Tensor Neg(const Tensor& a) {
  if (a.dtype() == DType::kInt64) {
    Tensor out = Tensor::OutputBuffer({&a}, DType::kInt64, a.shape());
    const auto av = a.data<std::int64_t>();
    auto ov = out.mutable_data<std::int64_t>();
    for (std::size_t i = 0; i < av.size(); ++i) ov[i] = -av[i];
    return out;
  }
  return UnaryFloat("Neg", a, [](float x) { return -x; });
}

Tensor Abs(const Tensor& a) {
  if (a.dtype() == DType::kInt64) {
    Tensor out = Tensor::OutputBuffer({&a}, DType::kInt64, a.shape());
    const auto av = a.data<std::int64_t>();
    auto ov = out.mutable_data<std::int64_t>();
    for (std::size_t i = 0; i < av.size(); ++i)
      ov[i] = av[i] < 0 ? -av[i] : av[i];
    return out;
  }
  return UnaryFloat("Abs", a, [](float x) { return std::fabs(x); });
}

Tensor Sign(const Tensor& a) {
  return UnaryFloat("Sign", a, [](float x) {
    return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
  });
}

Tensor Exp(const Tensor& a) {
  return UnaryFloat("Exp", a, [](float x) { return std::exp(x); });
}
Tensor Log(const Tensor& a) {
  return UnaryFloat("Log", a, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) {
  return UnaryFloat("Sqrt", a, [](float x) { return std::sqrt(x); });
}
Tensor Square(const Tensor& a) {
  return UnaryFloat("Square", a, [](float x) { return x * x; });
}
Tensor Tanh(const Tensor& a) {
  return UnaryFloat("Tanh", a, [](float x) { return std::tanh(x); });
}
Tensor Sigmoid(const Tensor& a) {
  return UnaryFloat("Sigmoid", a,
                    [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}
Tensor Relu(const Tensor& a) {
  return UnaryFloat("Relu", a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor ReluGrad(const Tensor& grad, const Tensor& x) {
  if (grad.shape() != x.shape()) {
    throw InvalidArgument("ReluGrad: shape mismatch");
  }
  Tensor out = Tensor::OutputBuffer({&grad, &x}, DType::kFloat32, x.shape());
  const auto gv = grad.data<float>();
  const auto xv = x.data<float>();
  auto ov = out.mutable_data<float>();
  for (std::size_t i = 0; i < xv.size(); ++i)
    ov[i] = xv[i] > 0.0f ? gv[i] : 0.0f;
  return out;
}

Tensor Select(const Tensor& cond, const Tensor& a, const Tensor& b) {
  if (cond.dtype() != DType::kBool) {
    throw InvalidArgument("Select: condition must be bool");
  }
  CheckSameDType(a, b, "Select");
  const Shape out_shape =
      BroadcastShapes(BroadcastShapes(cond.shape(), a.shape()), b.shape());
  const Tensor cb = BroadcastTo(cond, out_shape);
  const Tensor ab = BroadcastTo(a, out_shape);
  const Tensor bb = BroadcastTo(b, out_shape);
  Tensor out(a.dtype(), out_shape);
  const auto cv = cb.data<std::uint8_t>();
  const std::int64_t n = out_shape.num_elements();
  const auto pick = [&](auto av, auto bv, auto ov) {
    for (std::int64_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      ov[u] = cv[u] != 0 ? av[u] : bv[u];
    }
  };
  switch (a.dtype()) {
    case DType::kFloat32:
      pick(ab.data<float>(), bb.data<float>(), out.mutable_data<float>());
      break;
    case DType::kInt64:
      pick(ab.data<std::int64_t>(), bb.data<std::int64_t>(),
           out.mutable_data<std::int64_t>());
      break;
    case DType::kBool:
      pick(ab.data<std::uint8_t>(), bb.data<std::uint8_t>(),
           out.mutable_data<std::uint8_t>());
      break;
  }
  return out;
}

Tensor RandomNormal(const Shape& shape, float mean, float stddev, Rng& rng) {
  Tensor out(DType::kFloat32, shape);
  for (float& v : out.mutable_data<float>())
    v = static_cast<float>(rng.Normal(mean, stddev));
  return out;
}

Tensor RandomUniform(const Shape& shape, float lo, float hi, Rng& rng) {
  Tensor out(DType::kFloat32, shape);
  for (float& v : out.mutable_data<float>())
    v = static_cast<float>(rng.Uniform(lo, hi));
  return out;
}

}  // namespace janus::ops
