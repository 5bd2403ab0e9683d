#include "core/gon.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/log.h"
#include "core/bucket.h"

namespace carol::core {

namespace {
constexpr int kMsInputWidth =
    FeatureEncoder::kMetricFeatures + FeatureEncoder::kSchedFeatures;  // 11
constexpr int kGatInputWidth = 4 + FeatureEncoder::kRoleFeatures;      // 6
}  // namespace

// The composite discriminator of Figure 3: per-host feed-forward encoder
// for [M,S], graph-attention branch for G, sigmoid likelihood head.
struct GonModel::Network : nn::Module {
  nn::Mlp ms_encoder;
  nn::GraphAttention gat;
  nn::Mlp head;

  Network(const GonConfig& cfg, common::Rng& rng)
      : ms_encoder(MsDims(cfg), rng, "gon.ms", nn::Activation::kRelu),
        gat(kGatInputWidth, static_cast<std::size_t>(cfg.gat_width), rng,
            "gon.gat"),
        head({static_cast<std::size_t>(cfg.hidden_width + cfg.gat_width),
              static_cast<std::size_t>(cfg.hidden_width), 1},
             rng, "gon.head", nn::Activation::kSigmoid) {}

  static std::vector<std::size_t> MsDims(const GonConfig& cfg) {
    std::vector<std::size_t> dims = {kMsInputWidth};
    for (int i = 0; i < std::max(1, cfg.num_layers); ++i) {
      dims.push_back(static_cast<std::size_t>(cfg.hidden_width));
    }
    return dims;
  }

  std::vector<nn::Parameter*> Parameters() override {
    std::vector<nn::Parameter*> out;
    for (auto* p : ms_encoder.Parameters()) out.push_back(p);
    for (auto* p : gat.Parameters()) out.push_back(p);
    for (auto* p : head.Parameters()) out.push_back(p);
    return out;
  }
};

// Recycled buffers for the tape-free scoring path and the stacked tape
// builds; steady state is allocation-free.
struct GonModel::InferenceWorkspace {
  nn::Matrix ms_stack;     // [K*H x 11]
  nn::Matrix u_stack;      // [K*H x 6]
  nn::Matrix s_stack;      // [K*H x 2]  (tape builds)
  nn::Matrix roles_stack;  // [K*H x 2]  (tape builds)
  nn::Matrix m_stack;      // [K*H x 9]  (tape builds)
  std::array<nn::Matrix, 2> mlp_scratch;
  std::array<nn::Matrix, 2> head_scratch;
  nn::GraphAttention::InferenceScratch gat;
  nn::Matrix e_g;     // [K*H x gat_width]
  nn::Matrix pooled;  // [K x hidden+gat]
  nn::Matrix ones_stack;
  std::vector<const nn::Matrix*> adj_ptrs;
  std::vector<const nn::Matrix*> m_ptrs;
  std::vector<double> scores;
};

GonModel::~GonModel() = default;

GonModel::GonModel(const GonConfig& config)
    : config_(config), rng_(config.seed) {
  net_impl_ = std::make_unique<Network>(config_, rng_);
  optimizer_ = std::make_unique<nn::Adam>(
      net_impl_->Parameters(), config_.train_lr, 0.9, 0.999, 1e-8,
      config_.weight_decay);
  inference_ = std::make_unique<InferenceWorkspace>();
}

nn::Module& GonModel::network() { return *net_impl_; }
const nn::Module& GonModel::network() const { return *net_impl_; }

bool GonModel::SameHostCount(std::span<const EncodedState* const> states) {
  for (const EncodedState* s : states) {
    if (s->m.rows() != states.front()->m.rows()) return false;
  }
  return true;
}

nn::Value GonModel::ForwardBatch(nn::Tape& tape, nn::Value m,
                                 std::span<const EncodedState* const> ctxs) {
  Network& net = *net_impl_;
  InferenceWorkspace& ws = *inference_;
  const std::size_t k = ctxs.size();
  const std::size_t h = ctxs.front()->m.rows();

  // Stacked S and role constants.
  ws.s_stack.Resize(k * h, FeatureEncoder::kSchedFeatures);
  ws.roles_stack.Resize(k * h, FeatureEncoder::kRoleFeatures);
  for (std::size_t i = 0; i < k; ++i) {
    std::copy(ctxs[i]->s.flat().begin(), ctxs[i]->s.flat().end(),
              ws.s_stack.flat().begin() +
                  static_cast<std::ptrdiff_t>(i * h *
                                              FeatureEncoder::kSchedFeatures));
    std::copy(ctxs[i]->roles.flat().begin(), ctxs[i]->roles.flat().end(),
              ws.roles_stack.flat().begin() +
                  static_cast<std::ptrdiff_t>(i * h *
                                              FeatureEncoder::kRoleFeatures));
  }
  nn::Value s = tape.LeafRef(ws.s_stack);
  nn::Value roles = tape.LeafRef(ws.roles_stack);

  // E_{M,S} = ReLU(FeedForward([M, S])) per host (Eq. 3). Rows are
  // per-host, so the stacked encoder pass equals K separate passes row
  // for row.
  nn::Value ms = tape.ConcatCols(m, s);
  nn::Value e_ms = net.ms_encoder.Forward(tape, ms);
  // GAT branch: shared projections batched, attention per state (Eq. 4).
  nn::Value u = tape.ConcatCols(tape.SliceCols(m, 0, 4), roles);
  ws.adj_ptrs.clear();
  for (const EncodedState* ctx : ctxs) ws.adj_ptrs.push_back(&ctx->adjacency);
  nn::Value e_g = net.gat.ForwardBatch(tape, u, ws.adj_ptrs);
  // Per-state mean-pools, stacked into the [K x hidden+gat] head input.
  std::vector<nn::Value> pooled_rows;
  pooled_rows.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    pooled_rows.push_back(tape.ConcatCols(
        tape.RowMean(tape.SliceRows(e_ms, i * h, (i + 1) * h)),
        tape.RowMean(tape.SliceRows(e_g, i * h, (i + 1) * h))));
  }
  nn::Value pooled =
      k == 1 ? pooled_rows.front() : tape.StackRows(pooled_rows);
  return net.head.Forward(tape, pooled);  // [K x 1] scores (Eq. 5)
}

void GonModel::ForwardInferenceBatch(
    std::span<const nn::Matrix* const> ms,
    std::span<const EncodedState* const> ctxs, std::vector<double>& out) {
  Network& net = *net_impl_;
  InferenceWorkspace& ws = *inference_;
  const std::size_t k = ctxs.size();
  const std::size_t h = ctxs.front()->m.rows();
  const std::size_t mc = FeatureEncoder::kMetricFeatures;

  // Stack [M_i, S_i] rows and the GAT inputs in one sweep.
  ws.ms_stack.Resize(k * h, kMsInputWidth);
  ws.u_stack.Resize(k * h, kGatInputWidth);
  for (std::size_t i = 0; i < k; ++i) {
    const nn::Matrix& m = *ms[i];
    const EncodedState& ctx = *ctxs[i];
    for (std::size_t r = 0; r < h; ++r) {
      auto mrow = m.row(r);
      auto srow = ctx.s.row(r);
      auto rrow = ctx.roles.row(r);
      auto ms_row = ws.ms_stack.row(i * h + r);
      std::copy(mrow.begin(), mrow.end(), ms_row.begin());
      std::copy(srow.begin(), srow.end(),
                ms_row.begin() + static_cast<std::ptrdiff_t>(mc));
      auto u_row = ws.u_stack.row(i * h + r);
      std::copy(mrow.begin(), mrow.begin() + 4, u_row.begin());
      std::copy(rrow.begin(), rrow.end(), u_row.begin() + 4);
    }
  }

  // GAT branch: shared projections batched, attention per state.
  ws.adj_ptrs.clear();
  for (const EncodedState* ctx : ctxs) ws.adj_ptrs.push_back(&ctx->adjacency);
  net.gat.ForwardInferenceBatch(ws.u_stack, ws.adj_ptrs, ws.gat, ws.e_g);

  // Encoder + per-state mean-pool (same sum-then-scale order as the
  // RowMean op).
  const nn::Matrix& e_ms =
      net.ms_encoder.ForwardInference(ws.ms_stack, ws.mlp_scratch);
  const std::size_t gw = ws.e_g.cols();
  const std::size_t hw = static_cast<std::size_t>(config_.hidden_width);
  const double inv = h == 0 ? 0.0 : 1.0 / static_cast<double>(h);
  ws.pooled.Resize(k, hw + gw);
  for (std::size_t i = 0; i < k; ++i) {
    double* prow = ws.pooled.flat().data() + i * (hw + gw);
    for (std::size_t c = 0; c < hw; ++c) {
      double acc = 0.0;
      for (std::size_t r = 0; r < h; ++r) acc += e_ms(i * h + r, c);
      prow[c] = acc * inv;
    }
    for (std::size_t c = 0; c < gw; ++c) {
      double acc = 0.0;
      for (std::size_t r = 0; r < h; ++r) acc += ws.e_g(i * h + r, c);
      prow[hw + c] = acc * inv;
    }
  }

  const nn::Matrix& scores =
      net.head.ForwardInference(ws.pooled, ws.head_scratch);
  out.resize(k);
  for (std::size_t i = 0; i < k; ++i) out[i] = scores(i, 0);
}

double GonModel::Discriminate(const EncodedState& state) {
  const EncodedState* p = &state;
  const nn::Matrix* m = &state.m;
  std::vector<double> score;
  ForwardInferenceBatch(std::span<const nn::Matrix* const>(&m, 1),
                        std::span<const EncodedState* const>(&p, 1), score);
  return score.front();
}

std::vector<double> GonModel::DiscriminateBatch(
    std::span<const EncodedState* const> states) {
  std::vector<double> out;
  if (states.empty()) return out;
  if (SameHostCount(states)) {
    InferenceWorkspace& ws = *inference_;
    ws.m_ptrs.clear();
    for (const EncodedState* s : states) ws.m_ptrs.push_back(&s->m);
    ForwardInferenceBatch(ws.m_ptrs, states, out);
    return out;
  }
  // Mixed host counts: one stacked pass per H bucket (the per-state
  // computations are independent, so bucketed == sequential exactly).
  out.resize(states.size());
  const auto buckets = GroupIndicesBy(
      states.size(), [&](std::size_t i) { return states[i]->m.rows(); });
  std::vector<const EncodedState*> sub_states;
  std::vector<const nn::Matrix*> sub_ms;
  std::vector<double> sub_out;
  for (const auto& bucket : buckets) {
    sub_states.clear();
    sub_ms.clear();
    for (std::size_t i : bucket) {
      sub_states.push_back(states[i]);
      sub_ms.push_back(&states[i]->m);
    }
    ForwardInferenceBatch(
        sub_ms, std::span<const EncodedState* const>(sub_states), sub_out);
    for (std::size_t j = 0; j < bucket.size(); ++j) {
      out[bucket[j]] = sub_out[j];
    }
  }
  return out;
}

std::vector<double> GonModel::DiscriminateBatch(
    std::span<const EncodedState> states) {
  std::vector<const EncodedState*> ptrs;
  ptrs.reserve(states.size());
  for (const EncodedState& s : states) ptrs.push_back(&s);
  return DiscriminateBatch(std::span<const EncodedState* const>(ptrs));
}

GenerationResult GonModel::Generate(const nn::Matrix& m_init,
                                    const EncodedState& context) {
  const nn::Matrix* init = &m_init;
  const EncodedState* ctx = &context;
  auto results =
      GenerateBatch(std::span<const nn::Matrix* const>(&init, 1),
                    std::span<const EncodedState* const>(&ctx, 1));
  return std::move(results.front());
}

std::vector<GenerationResult> GonModel::GenerateBatch(
    std::span<const nn::Matrix* const> inits,
    std::span<const EncodedState* const> contexts) {
  if (inits.size() != contexts.size()) {
    throw std::invalid_argument("GenerateBatch: inits/contexts mismatch");
  }
  std::vector<GenerationResult> results(contexts.size());
  if (contexts.empty()) return results;
  if (!SameHostCount(contexts)) {
    // Mixed host counts: bucket by H and run one stacked ascent per
    // bucket. Candidate trajectories are independent, so the scatter is
    // exactly the sequential result.
    const auto buckets = GroupIndicesBy(
        contexts.size(),
        [&](std::size_t i) { return contexts[i]->m.rows(); });
    std::vector<const nn::Matrix*> sub_inits;
    std::vector<const EncodedState*> sub_ctxs;
    for (const auto& bucket : buckets) {
      sub_inits.clear();
      sub_ctxs.clear();
      for (std::size_t i : bucket) {
        sub_inits.push_back(inits[i]);
        sub_ctxs.push_back(contexts[i]);
      }
      auto sub = GenerateBatch(
          std::span<const nn::Matrix* const>(sub_inits),
          std::span<const EncodedState* const>(sub_ctxs));
      for (std::size_t j = 0; j < bucket.size(); ++j) {
        results[bucket[j]] = std::move(sub[j]);
      }
    }
    return results;
  }

  const std::size_t kTotal = contexts.size();
  const std::size_t h = contexts.front()->m.rows();
  const std::size_t c = contexts.front()->m.cols();
  const std::size_t block = h * c;
  const double lr = config_.generation_lr;

  std::vector<nn::Matrix> m_cur(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    // A misshapen init would silently corrupt the stacked buffer.
    if (inits[i]->rows() != h || inits[i]->cols() != c) {
      throw std::invalid_argument(
          "GenerateBatch: init shape does not match the context metrics");
    }
    m_cur[i].CopyFrom(*inits[i]);
  }
  std::vector<double> prev_obj(
      kTotal, -std::numeric_limits<double>::infinity());
  std::vector<char> active(kTotal, 1);
  std::vector<std::size_t> act_idx;
  std::vector<const EncodedState*> sub_ctx;
  InferenceWorkspace& ws = *inference_;

  // Each global step advances every still-active candidate by exactly the
  // update a lone ascent would have applied at that step: the stacked
  // forward/backward is row-block independent per candidate.
  for (int step = 0; step < config_.generation_steps; ++step) {
    act_idx.clear();
    for (std::size_t i = 0; i < kTotal; ++i) {
      if (active[i]) act_idx.push_back(i);
    }
    if (act_idx.empty()) break;
    const std::size_t a_count = act_idx.size();

    ws.m_stack.Resize(a_count * h, c);
    sub_ctx.clear();
    for (std::size_t a = 0; a < a_count; ++a) {
      const nn::Matrix& src = m_cur[act_idx[a]];
      std::copy(src.flat().begin(), src.flat().end(),
                ws.m_stack.flat().begin() +
                    static_cast<std::ptrdiff_t>(a * block));
      sub_ctx.push_back(contexts[act_idx[a]]);
    }

    // The ascent only reads grad_M: a build that binds the weights as
    // constants skips every dW/db accumulation in the backward sweep
    // (roughly a third of its flops).
    tape_.Reset(/*param_grads=*/false);
    nn::Value m = tape_.LeafRef(ws.m_stack, /*requires_grad=*/true);
    nn::Value d = ForwardBatch(tape_, m, sub_ctx);
    // Sum of per-candidate log-likelihoods: the per-candidate gradient
    // blocks are exactly grad_M log D_i (the terms are independent).
    nn::Value objective = tape_.SumAll(tape_.Log(d));
    tape_.Backward(objective);
    const nn::Matrix& grad = m.grad();
    const nn::Matrix& scores = d.val();

    for (std::size_t a = 0; a < a_count; ++a) {
      const std::size_t i = act_idx[a];
      const double obj =
          std::log(std::max(scores(a, 0), nn::Tape::kLogEps));
      const double* gp = grad.flat().data() + a * block;
      // Ascent step M <- M + gamma * grad_M log D (Eq. 1), clipped to the
      // normalized feature box. The step is infinity-norm normalized so
      // gamma directly controls the per-feature movement per iteration;
      // without this, a flat discriminator would stall the generation in
      // our [0,1]-normalized feature space (EXPERIMENTS.md).
      double grad_scale = 0.0;
      for (std::size_t j = 0; j < block; ++j) {
        grad_scale = std::max(grad_scale, std::abs(gp[j]));
      }
      if (grad_scale < 1e-12) {
        active[i] = 0;
        continue;
      }
      bool moved = false;
      double* mp = m_cur[i].flat().data();
      for (std::size_t j = 0; j < block; ++j) {
        const double delta = lr * gp[j] / grad_scale;
        if (std::abs(delta) > 1e-9) moved = true;
        mp[j] = std::clamp(mp[j] + delta, 0.0, 1.0);
      }
      ++results[i].steps;
      // "Till convergence": stop once log-likelihood improvement stalls.
      if (!moved ||
          std::abs(obj - prev_obj[i]) < config_.generation_tol) {
        active[i] = 0;
        continue;
      }
      prev_obj[i] = obj;
    }
  }

  // Final confidences: one stacked inference pass over the converged M*.
  ws.m_ptrs.clear();
  for (std::size_t i = 0; i < kTotal; ++i) ws.m_ptrs.push_back(&m_cur[i]);
  ForwardInferenceBatch(ws.m_ptrs, contexts, ws.scores);
  for (std::size_t i = 0; i < kTotal; ++i) {
    results[i].metrics = std::move(m_cur[i]);
    results[i].confidence = ws.scores[i];
  }
  return results;
}

double GonModel::TrainBatch(const std::vector<const EncodedState*>& batch) {
  // The minibatch trains as one stacked pass, which needs one H. Reject
  // before the first rng draw so a failed call leaves the model as is.
  if (!SameHostCount(batch)) {
    throw std::invalid_argument(
        "GonModel: a training minibatch mixes host counts");
  }
  // Phase 1 (Algorithm 1, line 4): generate fake samples Z* from noise by
  // input-space ascent — one batched ascent for the whole minibatch.
  const std::size_t b = batch.size();
  std::vector<nn::Matrix> noise(b);
  for (std::size_t i = 0; i < b; ++i) {
    noise[i].Resize(batch[i]->m.rows(), batch[i]->m.cols());
    for (double& v : noise[i].flat()) v = rng_.Uniform(0.0, 1.0);
  }
  std::vector<const nn::Matrix*> noise_ptrs;
  noise_ptrs.reserve(b);
  for (const nn::Matrix& n : noise) noise_ptrs.push_back(&n);
  std::vector<GenerationResult> gen = GenerateBatch(noise_ptrs, batch);

  // Phase 2 (line 5): ascend the discriminator objective
  //   mean_i [ log D(M_i,S_i,G_i) + log(1 - D(Z*_i,S_i,G_i)) ]
  // i.e. descend its negation. In addition to the generated negatives we
  // use matching-aware negatives (a real M paired with ANOTHER sample's
  // S,G): without them the discriminator can separate real from
  // generated by looking at M alone and learns to ignore the topology —
  // which would defeat the surrogate's purpose of ranking candidate
  // graphs (implementation note, EXPERIMENTS.md).
  std::vector<const nn::Matrix*> real_ms, fake_ms, mm_ms;
  std::vector<const EncodedState*> mm_ctx;
  real_ms.reserve(b);
  fake_ms.reserve(b);
  for (std::size_t i = 0; i < b; ++i) {
    real_ms.push_back(&batch[i]->m);
    fake_ms.push_back(&gen[i].metrics);
    if (b > 1) {
      // Mismatched-context negative: metrics from a different record
      // presented under this record's (S, G).
      std::size_t other = rng_.Choice(b);
      if (other == i) other = (other + 1) % b;
      mm_ms.push_back(&batch[other]->m);
      mm_ctx.push_back(batch[i]);
    }
  }

  tape_.Reset();
  const std::span<const EncodedState* const> ctx_span(batch);
  InferenceWorkspace& ws = *inference_;
  nn::Value d_real = ForwardBatch(tape_, StackLeaf(tape_, real_ms), ctx_span);
  nn::Value d_fake = ForwardBatch(tape_, StackLeaf(tape_, fake_ms), ctx_span);
  ws.ones_stack.Resize(b, 1);
  ws.ones_stack.Fill(1.0);
  nn::Value ones_b = tape_.LeafRef(ws.ones_stack);
  // -[ sum log D(real) + sum log(1 - D(fake)) (+ sum log(1 - D(mm))) ] / B
  nn::Value logsum =
      tape_.Add(tape_.SumAll(tape_.Log(d_real)),
                tape_.SumAll(tape_.Log(tape_.Sub(ones_b, d_fake))));
  if (!mm_ms.empty()) {
    nn::Value d_mm = ForwardBatch(
        tape_, StackLeaf(tape_, mm_ms),
        std::span<const EncodedState* const>(mm_ctx));
    ws.ones_stack.Resize(mm_ms.size(), 1);
    ws.ones_stack.Fill(1.0);
    nn::Value ones_p = tape_.LeafRef(ws.ones_stack);
    logsum = tape_.Add(
        logsum, tape_.SumAll(tape_.Log(tape_.Sub(ones_p, d_mm))));
  }
  nn::Value loss =
      tape_.Scale(tape_.Neg(logsum), 1.0 / static_cast<double>(b));
  optimizer_->ZeroGrad();
  tape_.Backward(loss);
  optimizer_->Step();
  return loss.scalar();
}

nn::Value GonModel::StackLeaf(nn::Tape& tape,
                              std::span<const nn::Matrix* const> ms) {
  InferenceWorkspace& ws = *inference_;
  const std::size_t h = ms.front()->rows();
  const std::size_t c = ms.front()->cols();
  ws.m_stack.Resize(ms.size() * h, c);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::copy(ms[i]->flat().begin(), ms[i]->flat().end(),
              ws.m_stack.flat().begin() +
                  static_cast<std::ptrdiff_t>(i * h * c));
  }
  return tape.LeafRef(ws.m_stack);
}

EpochStats GonModel::TrainEpoch(const std::vector<EncodedState>& data) {
  EpochStats stats;
  if (data.empty()) return stats;
  const auto order = rng_.Permutation(data.size());
  double loss_sum = 0.0;
  int batches = 0;
  const auto bsz = static_cast<std::size_t>(std::max(1, config_.batch_size));
  for (std::size_t start = 0; start < order.size(); start += bsz) {
    std::vector<const EncodedState*> batch;
    for (std::size_t k = start; k < std::min(start + bsz, order.size());
         ++k) {
      batch.push_back(&data[order[k]]);
    }
    loss_sum += TrainBatch(batch);
    ++batches;
  }
  stats.loss = loss_sum / batches;

  // Evaluation sweep: MSE of warm-started generation vs the recorded
  // metrics, and mean confidence on real tuples (Figure 4's series).
  // Perturbed starts are drawn first (same rng order as the sequential
  // sweep), then generation and scoring run as single batched passes.
  const std::size_t eval_n = std::min<std::size_t>(data.size(), 32);
  std::vector<nn::Matrix> starts(eval_n);
  std::vector<const nn::Matrix*> start_ptrs;
  std::vector<const EncodedState*> eval_states;
  start_ptrs.reserve(eval_n);
  eval_states.reserve(eval_n);
  for (std::size_t i = 0; i < eval_n; ++i) {
    const EncodedState& state = data[order[i]];
    starts[i].CopyFrom(state.m);
    for (double& v : starts[i].flat()) {
      v = std::clamp(v + rng_.Normal(0.0, 0.1), 0.0, 1.0);
    }
    start_ptrs.push_back(&starts[i]);
    eval_states.push_back(&state);
  }
  const std::vector<GenerationResult> gens =
      GenerateBatch(start_ptrs, eval_states);
  const std::vector<double> confs = DiscriminateBatch(
      std::span<const EncodedState* const>(eval_states));
  double mse = 0.0, conf = 0.0;
  for (std::size_t i = 0; i < eval_n; ++i) {
    const nn::Matrix diff = gens[i].metrics - eval_states[i]->m;
    mse += diff.Norm() * diff.Norm() / static_cast<double>(diff.size());
    conf += confs[i];
  }
  stats.mse = mse / static_cast<double>(eval_n);
  stats.confidence = conf / static_cast<double>(eval_n);
  return stats;
}

std::vector<EpochStats> GonModel::Train(
    const std::vector<EncodedState>& data, int max_epochs, int patience) {
  std::vector<EpochStats> history;
  double best_loss = std::numeric_limits<double>::infinity();
  int stale = 0;
  for (int epoch = 0; epoch < max_epochs; ++epoch) {
    history.push_back(TrainEpoch(data));
    common::LogInfo() << "GON epoch " << epoch << ": loss "
                      << history.back().loss << ", mse "
                      << history.back().mse << ", confidence "
                      << history.back().confidence;
    if (history.back().loss < best_loss - 1e-4) {
      best_loss = history.back().loss;
      stale = 0;
    } else if (++stale >= patience) {
      break;  // early stopping (paper §IV-E)
    }
  }
  return history;
}

void GonModel::FineTune(const std::vector<EncodedState>& recent,
                        int epochs) {
  if (recent.empty()) return;
  for (int e = 0; e < epochs; ++e) {
    std::vector<const EncodedState*> batch;
    const auto order = rng_.Permutation(recent.size());
    const auto take = std::min<std::size_t>(
        recent.size(),
        static_cast<std::size_t>(std::max(1, config_.batch_size)));
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(&recent[order[i]]);
    }
    TrainBatch(batch);
  }
}

std::size_t GonModel::ParameterCount() {
  return net_impl_->ParameterCount();
}

double GonModel::MemoryFootprintMb() const {
  const double params =
      static_cast<double>(net_impl_->ParameterCount()) * sizeof(double);
  // Adam keeps two moment buffers; one activation working set per layer
  // for a 16-host forward pass.
  const double adam = 2.0 * params;
  const double activations = 16.0 * config_.hidden_width *
                             (config_.num_layers + 2) * sizeof(double);
  return (params + adam + activations) / (1024.0 * 1024.0);
}

}  // namespace carol::core
