// Generative Optimization Network surrogate (paper §III-B and Figure 3).
//
// A GON is a GAN without the generator: a single discriminator
// D(M, S, G; theta) doubles as
//   * a likelihood/confidence scorer for an observed tuple, and
//   * a generator, by running gradient ASCENT on log D in the input space
//     of M (Eq. 1):  M <- M + gamma * grad_M log D(M, S, G; theta).
//
// Architecture (Figure 3): a shared per-host feed-forward encoder over
// [M_i, S_i] rows with ReLU, a graph-attention branch over the topology
// with per-node features derived from M's utilization columns and role
// flags, mean-pooled and concatenated into a sigmoid likelihood head.
//
// Training follows Algorithm 1: fake samples Z* are produced by the same
// input-space ascent from noise, and theta ascends
//   log D(M,S,G) + log(1 - D(Z*,S,G)).
//
// Latency design (the paper's headline metric is per-interval decision
// time): scoring runs on a tape-free inference workspace with recycled
// buffers; generation reuses ONE arena tape across ascent steps and
// intervals, each step a frozen build (Tape::Reset(false): the weights
// bind as constants, so the backward computes grad_M only, and a throw
// leaves nothing to restore); and the *Batch entry points stack K
// candidate states into a single kernel pass, so scoring the node-shift
// neighborhood costs one forward instead of K. This is the only
// execution path: a single-state call is a batch of one. Per-host
// encoder rows and per-state attention blocks are independent, so a
// batch matches one-state calls exactly (pinned against an unfused
// fresh-tape reference in tests/matrix_perf_test.cpp). Not thread-safe:
// use one GonModel per thread.
#ifndef CAROL_CORE_GON_H_
#define CAROL_CORE_GON_H_

#include <memory>
#include <span>
#include <vector>

#include "core/encoder.h"
#include "nn/autograd.h"
#include "nn/layers.h"
#include "nn/optim.h"

namespace carol::core {

struct GonConfig {
  // Width of every hidden layer (the paper fixes 128).
  int hidden_width = 64;
  // Number of feed-forward layers in the [M,S] encoder — the paper's
  // memory-footprint knob (§IV-E, Fig. 6b sweeps it).
  int num_layers = 3;
  int gat_width = 32;
  // gamma in Eq. (1) — the generation/learning rate of the input-space
  // ascent (Fig. 6a sweeps it). NOTE: our features are normalized to
  // [0,1], so the operating point differs from the paper's raw scale;
  // 5e-2 plays the role of the paper's 1e-3 (see EXPERIMENTS.md).
  double generation_lr = 5e-2;
  // Maximum ascent iterations per generation; the loop stops early once
  // the likelihood improvement drops below generation_tol ("running the
  // following till convergence", Algorithm 1 line 4). Warm-starting from
  // M_{t-1} (paper §III-B) keeps the typical count small.
  int generation_steps = 20;
  double generation_tol = 1e-5;
  // Adam settings for discriminator training (paper §IV-E).
  double train_lr = 1e-4;
  double weight_decay = 1e-5;
  int batch_size = 32;
  unsigned seed = 42;
};

struct GenerationResult {
  nn::Matrix metrics;   // converged M*, [H x 9], normalized
  double confidence = 0.0;  // D(M*, S, G)
  int steps = 0;
};

struct EpochStats {
  double loss = 0.0;        // mean adversarial loss (Eq. 2, negated)
  double mse = 0.0;         // mean ||Z* - M||^2 (prediction quality)
  double confidence = 0.0;  // mean D on real tuples
};

class GonModel {
 public:
  explicit GonModel(const GonConfig& config);
  ~GonModel();  // out-of-line: Network is an incomplete type here

  // Likelihood score D(M,S,G) in (0,1) for an encoded tuple.
  double Discriminate(const EncodedState& state);

  // Batched scoring: one stacked kernel pass over K states that share a
  // host count. Matches K sequential Discriminate calls (the per-host /
  // per-state computations are independent; see header comment). States
  // with differing host counts are bucketed by H and run as one stacked
  // pass per bucket.
  std::vector<double> DiscriminateBatch(
      std::span<const EncodedState* const> states);
  std::vector<double> DiscriminateBatch(std::span<const EncodedState> states);

  // Eq. (1): ascends log D over the metrics matrix starting from
  // `m_init` (normalized [H x 9]); S, roles and adjacency come from
  // `context`. Returns the converged metrics and their confidence.
  GenerationResult Generate(const nn::Matrix& m_init,
                            const EncodedState& context);

  // Batched Eq. (1): runs the input-space ascent for K candidates in one
  // tape per step (candidates converge and drop out individually). The
  // per-candidate trajectories are identical to sequential Generate
  // calls. `inits` and `contexts` must have equal length; mixed host
  // counts are bucketed by H and each bucket runs as one stacked ascent.
  std::vector<GenerationResult> GenerateBatch(
      std::span<const nn::Matrix* const> inits,
      std::span<const EncodedState* const> contexts);

  // Training rule (TrainEpoch, Train, FineTune): each minibatch trains as
  // one stacked pass, so its states must share one host count. A
  // minibatch that mixes host counts throws std::invalid_argument before
  // it draws rng or updates weights (minibatches applied earlier in the
  // same call stay applied).

  // One minibatch-SGD epoch of Algorithm 1 over the dataset.
  EpochStats TrainEpoch(const std::vector<EncodedState>& data);

  // Convenience: full offline training until `epochs` or an early-stop
  // patience on the epoch loss (paper uses early stopping, §IV-E).
  // Returns the per-epoch stats (this is Figure 4's data).
  std::vector<EpochStats> Train(const std::vector<EncodedState>& data,
                                int max_epochs, int patience = 5);

  // Fine-tuning on the running dataset Gamma (Algorithm 2 line 15): a few
  // epochs of the same adversarial loss on recent tuples.
  void FineTune(const std::vector<EncodedState>& recent, int epochs = 1);

  // Analytic memory model: parameters + Adam moments + one activation
  // working set, in MB. Used by Fig. 5(e)/6(b).
  double MemoryFootprintMb() const;

  std::size_t ParameterCount();
  const GonConfig& config() const { return config_; }
  // The underlying discriminator module (weight save/load/clone surface).
  nn::Module& network();
  const nn::Module& network() const;

 private:
  struct Network;
  struct InferenceWorkspace;

  // Discriminator graph over K states that share H: `m` is the
  // [K*H x 9] stacked metrics, a requires-grad leaf (generation) or a
  // constant (training inputs); returns the [K x 1] per-state scores.
  nn::Value ForwardBatch(nn::Tape& tape, nn::Value m,
                         std::span<const EncodedState* const> ctxs);
  // Tape-free stacked forward used by DiscriminateBatch.
  void ForwardInferenceBatch(std::span<const nn::Matrix* const> ms,
                             std::span<const EncodedState* const> ctxs,
                             std::vector<double>& out);
  // One Algorithm-1 step on a minibatch; throws on mixed host counts.
  double TrainBatch(const std::vector<const EncodedState*>& batch);
  // Stacks K metric matrices that share H into one [K*H x 9] tape leaf.
  nn::Value StackLeaf(nn::Tape& tape,
                      std::span<const nn::Matrix* const> ms);
  static bool SameHostCount(std::span<const EncodedState* const> states);

  GonConfig config_;
  common::Rng rng_;
  std::unique_ptr<Network> net_impl_;
  std::unique_ptr<nn::Adam> optimizer_;
  // Arena tape recycled across generation and training builds; a
  // training build's Backward adds into the network's Parameter::grad.
  nn::Tape tape_;
  std::unique_ptr<InferenceWorkspace> inference_;
};

}  // namespace carol::core

#endif  // CAROL_CORE_GON_H_
