#include "model/session.h"

#include <cmath>

#include "attention/layer_attention.h"
#include "attention/reference.h"
#include "tensor/half.h"
#include "tensor/ops.h"

namespace hack {
namespace {

// ---------------------------------------------------------------- backends

class ExactBackend : public HeadBackend {
 public:
  void append(const Matrix& k_new, const Matrix& v_new) override {
    k_ = k_.empty() ? k_new : vstack(k_, k_new);
    v_ = v_.empty() ? v_new : vstack(v_, v_new);
  }
  Matrix attend(const Matrix& q, std::size_t key_offset) override {
    return attention_reference(
        q, k_, v_, {.causal = true, .key_offset = key_offset});
  }
  std::size_t stored_bytes() const override {
    return (k_.size() + v_.size()) * 4;
  }

 private:
  Matrix k_, v_;
};

class Fp16Backend : public HeadBackend {
 public:
  void append(const Matrix& k_new, const Matrix& v_new) override {
    Matrix k = k_new, v = v_new;
    k.round_to_fp16();
    v.round_to_fp16();
    k_ = k_.empty() ? k : vstack(k_, k);
    v_ = v_.empty() ? v : vstack(v_, v);
  }
  Matrix attend(const Matrix& q, std::size_t key_offset) override {
    return attention_reference(
        q, k_, v_, {.causal = true, .key_offset = key_offset});
  }
  std::size_t stored_bytes() const override {
    return (k_.size() + v_.size()) * 2;
  }

 private:
  Matrix k_, v_;
};

class HackBackend : public HeadBackend {
 public:
  HackBackend(std::size_t d_head, const HackAttentionConfig& config,
              std::uint64_t seed)
      : state_(d_head, config), rng_(seed) {}

  void append(const Matrix& k_new, const Matrix& v_new) override {
    state_.append_tokens(k_new, v_new, rng_, &stats_);
  }
  Matrix attend(const Matrix& q, std::size_t key_offset) override {
    return hack_attention(q, state_,
                          {.causal = true, .key_offset = key_offset}, rng_,
                          &stats_);
  }
  std::size_t stored_bytes() const override { return state_.wire_bytes(); }

 private:
  HackKvState state_;
  Rng rng_;
  HackAttnStats stats_;
};

class CodecBackend : public HeadBackend {
 public:
  CodecBackend(std::size_t d_head, std::shared_ptr<const KvCodec> codec,
               std::uint64_t seed)
      : state_(d_head, std::move(codec)), rng_(seed) {}

  void append(const Matrix& k_new, const Matrix& v_new) override {
    state_.append_tokens(k_new, v_new, rng_, &stats_);
  }
  Matrix attend(const Matrix& q, std::size_t key_offset) override {
    return dequant_attention(
        q, state_, {.causal = true, .key_offset = key_offset}, &stats_);
  }
  std::size_t stored_bytes() const override { return state_.stored_bytes(); }

 private:
  DequantKvState state_;
  Rng rng_;
  DequantAttnStats stats_;
};

class MiniFloatBackend : public HeadBackend {
 public:
  explicit MiniFloatBackend(MiniFloatFormat format) : format_(format) {}

  void append(const Matrix& k_new, const Matrix& v_new) override {
    const Matrix k = minifloat_round_matrix(k_new, format_);
    const Matrix v = minifloat_round_matrix(v_new, format_);
    k_ = k_.empty() ? k : vstack(k_, k);
    v_ = v_.empty() ? v : vstack(v_, v);
  }
  Matrix attend(const Matrix& q, std::size_t key_offset) override {
    return attention_reference(
        q, k_, v_, {.causal = true, .key_offset = key_offset});
  }
  std::size_t stored_bytes() const override {
    return (k_.size() + v_.size()) * static_cast<std::size_t>(
               minifloat_bits(format_)) / 8;
  }

 private:
  MiniFloatFormat format_;
  Matrix k_, v_;
};

// ------------------------------------------------------------ layer backends

// The pre-batching model path: one HeadBackend per KV head, appended and
// attended in a serial loop. Still the route for every non-HACK method.
class PerHeadLayerBackend : public LayerBackend {
 public:
  PerHeadLayerBackend(const BackendFactory& factory, std::size_t d_head,
                      std::size_t kv_heads, std::size_t query_heads)
      : d_head_(d_head), kv_heads_(kv_heads), group_(query_heads / kv_heads) {
    heads_.reserve(kv_heads);
    for (std::size_t h = 0; h < kv_heads; ++h) {
      heads_.push_back(factory(d_head));
    }
  }

  void append(const Matrix& k_all, const Matrix& v_all) override {
    for (std::size_t h = 0; h < kv_heads_; ++h) {
      heads_[h]->append(take_cols(k_all, h * d_head_, (h + 1) * d_head_),
                        take_cols(v_all, h * d_head_, (h + 1) * d_head_));
    }
  }

  Matrix attend(const Matrix& q_all, std::size_t key_offset) override {
    Matrix out(q_all.rows(), kv_heads_ * group_ * d_head_);
    for (std::size_t g = 0; g < kv_heads_; ++g) {
      for (std::size_t sub = 0; sub < group_; ++sub) {
        const std::size_t head = g * group_ + sub;
        const Matrix o = heads_[g]->attend(
            take_cols(q_all, head * d_head_, (head + 1) * d_head_),
            key_offset);
        for (std::size_t r = 0; r < out.rows(); ++r) {
          const auto src = o.row(r);
          std::copy(src.begin(), src.end(),
                    out.row(r).begin() + head * d_head_);
        }
      }
    }
    return out;
  }

  std::size_t stored_bytes() const override {
    std::size_t total = 0;
    for (const auto& head : heads_) total += head->stored_bytes();
    return total;
  }

 private:
  std::size_t d_head_;
  std::size_t kv_heads_;
  std::size_t group_;
  std::vector<std::unique_ptr<HeadBackend>> heads_;
};

// The batched HACK path: all heads of the layer through HackLayerKvState.
class HackLayerBackend : public LayerBackend {
 public:
  HackLayerBackend(std::size_t d_head, std::size_t kv_heads,
                   std::size_t query_heads, const HackAttentionConfig& config,
                   std::uint64_t seed)
      : state_(d_head, kv_heads, query_heads, config, seed) {}

  void append(const Matrix& k_all, const Matrix& v_all) override {
    state_.append_tokens(k_all, v_all, &stats_);
  }
  Matrix attend(const Matrix& q_all, std::size_t key_offset) override {
    return state_.attend(q_all, {.causal = true, .key_offset = key_offset},
                         &stats_);
  }
  std::size_t stored_bytes() const override { return state_.wire_bytes(); }
  HackLayerKvState* hack_state() override { return &state_; }

 private:
  HackLayerKvState state_;
  HackAttnStats stats_;
};

// ------------------------------------------------------------ small kernels

std::vector<float> rms_norm(std::span<const float> x,
                            std::span<const float> gain) {
  double sum_sq = 0.0;
  for (const float v : x) sum_sq += static_cast<double>(v) * v;
  const float inv_rms = 1.0f / std::sqrt(static_cast<float>(
                                  sum_sq / static_cast<double>(x.size())) +
                              1e-6f);
  std::vector<float> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = x[i] * inv_rms * gain[i];
  }
  return out;
}

Matrix rms_norm_rows(const Matrix& x, std::span<const float> gain) {
  Matrix out(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto normed = rms_norm(x.row(i), gain);
    std::copy(normed.begin(), normed.end(), out.row(i).begin());
  }
  return out;
}

float silu(float x) { return x / (1.0f + std::exp(-x)); }

}  // namespace

BackendFactory make_exact_backend() {
  return [](std::size_t) { return std::make_unique<ExactBackend>(); };
}

BackendFactory make_fp16_backend() {
  return [](std::size_t) { return std::make_unique<Fp16Backend>(); };
}

BackendFactory make_hack_backend(HackAttentionConfig config,
                                 std::uint64_t seed) {
  auto counter = std::make_shared<std::uint64_t>(seed);
  return [config, counter](std::size_t d_head) {
    return std::make_unique<HackBackend>(d_head, config, (*counter)++);
  };
}

BackendFactory make_codec_backend(std::shared_ptr<const KvCodec> codec,
                                  std::uint64_t seed) {
  auto counter = std::make_shared<std::uint64_t>(seed);
  return [codec, counter](std::size_t d_head) {
    return std::make_unique<CodecBackend>(d_head, codec, (*counter)++);
  };
}

BackendFactory make_minifloat_backend(MiniFloatFormat format) {
  return [format](std::size_t) {
    return std::make_unique<MiniFloatBackend>(format);
  };
}

LayerBackendFactory per_head_layer_factory(BackendFactory factory) {
  return [factory = std::move(factory)](std::size_t d_head,
                                        std::size_t kv_heads,
                                        std::size_t query_heads) {
    return std::make_unique<PerHeadLayerBackend>(factory, d_head, kv_heads,
                                                 query_heads);
  };
}

LayerBackendFactory make_hack_layer_backend(HackAttentionConfig config,
                                            std::uint64_t seed) {
  auto counter = std::make_shared<std::uint64_t>(seed);
  return [config, counter](std::size_t d_head, std::size_t kv_heads,
                           std::size_t query_heads) {
    // Mirror the per-head counter: one stream per KV head, layer-major.
    const std::uint64_t base = *counter;
    *counter += kv_heads;
    return std::make_unique<HackLayerBackend>(d_head, kv_heads, query_heads,
                                              config, base);
  };
}

// ----------------------------------------------------------------- weights

TinyModelWeights::TinyModelWeights(const TinyConfig& config)
    : config_(config) {
  HACK_CHECK(config.heads % config.kv_heads == 0,
             "heads must be a multiple of kv_heads (GQA)");
  Rng rng(config.weight_seed);
  const std::size_t d = config.d_model();
  const float proj_std = 1.0f / std::sqrt(static_cast<float>(d));
  const float ff_std = 1.0f / std::sqrt(static_cast<float>(config.d_ff));

  // Each projection is drawn in row-major order (the Rng order every
  // earlier version used) and packed row by row as it is drawn.
  const auto draw = [&rng](std::size_t rows, std::size_t cols, float stddev) {
    PackedMatrix w(rows, cols);
    for (std::size_t k = 0; k < rows; ++k) {
      w.set_row(k, Matrix::random_gaussian(1, cols, rng, stddev).row(0));
    }
    return w;
  };
  // The tied embedding is held once, as Eᵀ (d_model x vocab) on the packed
  // GEMM's panels: token t's row, drawn in the same row-major Rng order, is
  // column t, which the LM head multiplies and embed() gathers.
  embedding_t_ = PackedMatrix(d, config.vocab);
  for (std::size_t t = 0; t < config.vocab; ++t) {
    embedding_t_.set_col(t,
                         Matrix::random_gaussian(1, d, rng, proj_std).row(0));
  }
  layers_.resize(config.layers);
  for (LayerWeights& lw : layers_) {
    lw.wq = draw(d, config.heads * config.d_head, proj_std);
    lw.wk = draw(d, config.kv_heads * config.d_head, proj_std);
    lw.wv = draw(d, config.kv_heads * config.d_head, proj_std);
    lw.wo = draw(config.heads * config.d_head, d, proj_std);
    lw.w_gate = draw(d, config.d_ff, proj_std);
    lw.w_up = draw(d, config.d_ff, proj_std);
    lw.w_down = draw(config.d_ff, d, ff_std);
    lw.norm_attn.assign(d, 1.0f);
    lw.norm_mlp.assign(d, 1.0f);
  }
  norm_final_.assign(d, 1.0f);
}

Matrix TinyModelWeights::embed(const std::vector<int>& tokens) const {
  HACK_CHECK(!tokens.empty(), "empty token batch");
  Matrix x(tokens.size(), config_.d_model());
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    HACK_CHECK(tokens[t] >= 0 &&
                   static_cast<std::size_t>(tokens[t]) < config_.vocab,
               "token " << tokens[t] << " out of vocab");
    embedding_t_.copy_col(static_cast<std::size_t>(tokens[t]), x.row(t));
  }
  return x;
}

std::vector<float> TinyModelWeights::logits(
    std::span<const float> hidden_row) const {
  Matrix hidden(1, hidden_row.size());
  std::copy(hidden_row.begin(), hidden_row.end(), hidden.row(0).begin());
  const Matrix logits = logits_batch(hidden);
  return {logits.flat().begin(), logits.flat().end()};
}

Matrix TinyModelWeights::logits_batch(const Matrix& hidden,
                                      int threads) const {
  const std::size_t d = config_.d_model();
  HACK_CHECK(hidden.cols() == d, "hidden width " << hidden.cols()
                                                 << " != d_model " << d);
  return matmul(rms_norm_rows(hidden, norm_final_), embedding_t_, threads);
}

TinyModelWeights::QkvRows TinyModelWeights::project_qkv(std::size_t layer,
                                                        const Matrix& x,
                                                        int threads) const {
  HACK_CHECK(layer < layers_.size(), "layer " << layer << " out of range");
  const LayerWeights& lw = layers_[layer];
  const Matrix h = rms_norm_rows(x, lw.norm_attn);
  return {matmul(h, lw.wq, threads), matmul(h, lw.wk, threads),
          matmul(h, lw.wv, threads)};
}

Matrix TinyModelWeights::finish_rows(std::size_t layer, Matrix x,
                                     const Matrix& attn_out,
                                     int threads) const {
  HACK_CHECK(layer < layers_.size(), "layer " << layer << " out of range");
  const LayerWeights& lw = layers_[layer];
  x = add(x, matmul(attn_out, lw.wo, threads));
  const Matrix h2 = rms_norm_rows(x, lw.norm_mlp);
  Matrix gate = matmul(h2, lw.w_gate, threads);
  const Matrix up = matmul(h2, lw.w_up, threads);
  for (std::size_t i = 0; i < gate.size(); ++i) {
    gate.flat()[i] = silu(gate.flat()[i]) * up.flat()[i];
  }
  return add(x, matmul(gate, lw.w_down, threads));
}

void TinyModelWeights::apply_rope(Matrix& x, std::size_t head_count,
                                  std::size_t start_pos) const {
  // No angle depends on the head: the inverse frequency is computed once per
  // pair i, and cos/sin once per (row, i), with the same expressions as a
  // per-head evaluation, so the rotation is the same bit for bit.
  const std::size_t dh = config_.d_head;
  const std::size_t pairs = dh / 2;
  std::vector<float> inv_freq(pairs), cos_t(pairs), sin_t(pairs);
  for (std::size_t j = 0; j < pairs; ++j) {
    inv_freq[j] = std::pow(config_.rope_base, -static_cast<float>(2 * j) /
                                                  static_cast<float>(dh));
  }
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto pos = static_cast<float>(start_pos + r);
    for (std::size_t j = 0; j < pairs; ++j) {
      const float theta = pos * inv_freq[j];
      cos_t[j] = std::cos(theta);
      sin_t[j] = std::sin(theta);
    }
    for (std::size_t h = 0; h < head_count; ++h) {
      for (std::size_t j = 0; j < pairs; ++j) {
        const float c = cos_t[j];
        const float s = sin_t[j];
        const std::size_t base = h * dh + 2 * j;
        const float x0 = x(r, base);
        const float x1 = x(r, base + 1);
        x(r, base) = x0 * c - x1 * s;
        x(r, base + 1) = x0 * s + x1 * c;
      }
    }
  }
}

std::size_t TinyModelWeights::weight_bytes() const {
  std::size_t floats = embedding_t_.stored_size() + norm_final_.size();
  for (const LayerWeights& lw : layers_) {
    floats += lw.wq.stored_size() + lw.wk.stored_size() +
              lw.wv.stored_size() + lw.wo.stored_size() +
              lw.w_gate.stored_size() + lw.w_up.stored_size() +
              lw.w_down.stored_size() + lw.norm_attn.size() +
              lw.norm_mlp.size();
  }
  return floats * sizeof(float);
}

std::shared_ptr<const TinyModelWeights> make_tiny_weights(
    const TinyConfig& config) {
  return std::make_shared<const TinyModelWeights>(config);
}

int argmax_logits(std::span<const float> logits) {
  int best = 0;
  for (std::size_t t = 1; t < logits.size(); ++t) {
    if (logits[t] > logits[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(t);
    }
  }
  return best;
}

// ----------------------------------------------------------------- session

TinyModelSession::TinyModelSession(
    std::shared_ptr<const TinyModelWeights> weights,
    const LayerBackendFactory& factory)
    : weights_(std::move(weights)) {
  HACK_CHECK(weights_ != nullptr, "session needs weights");
  const TinyConfig& config = weights_->config();
  backends_.reserve(config.layers);
  for (std::size_t i = 0; i < config.layers; ++i) {
    backends_.push_back(factory(config.d_head, config.kv_heads, config.heads));
  }
}

Matrix TinyModelSession::append_rows(std::size_t layer,
                                     TinyModelWeights::QkvRows qkv,
                                     std::size_t start_pos) {
  HACK_CHECK(layer < backends_.size(), "layer " << layer << " out of range");
  HACK_CHECK(start_pos == position_,
             "chunk start " << start_pos << " != session position "
                            << position_);
  const TinyConfig& config = weights_->config();
  weights_->apply_rope(qkv.q, config.heads, start_pos);
  weights_->apply_rope(qkv.k, config.kv_heads, start_pos);
  backends_[layer]->append(qkv.k, qkv.v);
  return std::move(qkv.q);
}

Matrix TinyModelSession::project_and_append(std::size_t layer, const Matrix& x,
                                            std::size_t start_pos) {
  return append_rows(layer, weights_->project_qkv(layer, x), start_pos);
}

Matrix TinyModelSession::finish_layer(std::size_t layer, Matrix x,
                                      const Matrix& attn_out) const {
  return weights_->finish_rows(layer, std::move(x), attn_out);
}

Matrix TinyModelSession::forward_layer(std::size_t layer, const Matrix& x,
                                       std::size_t start_pos) {
  const Matrix q = project_and_append(layer, x, start_pos);
  const Matrix attn_out = backends_[layer]->attend(q, start_pos);
  return finish_layer(layer, Matrix(x), attn_out);
}

Matrix TinyModelSession::forward_rows(const std::vector<int>& tokens) {
  const std::size_t start_pos = position_;
  Matrix x = weights_->embed(tokens);
  for (std::size_t layer = 0; layer < backends_.size(); ++layer) {
    x = forward_layer(layer, x, start_pos);
  }
  advance(tokens.size());
  return x;
}

void TinyModelSession::advance(std::size_t rows) { position_ += rows; }

void TinyModelSession::restore_position(std::size_t position) {
  HACK_CHECK(position_ == 0, "restore_position on a used session");
  position_ = position;
}

std::vector<float> TinyModelSession::logits_for_row(const Matrix& hidden,
                                                    std::size_t row) const {
  return weights_->logits(hidden.row(row));
}

std::size_t TinyModelSession::kv_stored_bytes() const {
  std::size_t total = 0;
  for (const auto& backend : backends_) {
    total += backend->stored_bytes();
  }
  return total;
}

}  // namespace hack
