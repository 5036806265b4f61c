#pragma once

#include <memory>

#include "predict/dataset.hpp"
#include "predict/nn/conv1d.hpp"
#include "predict/nn/gru.hpp"
#include "predict/nn/lstm.hpp"
#include "predict/nn/optimizer.hpp"
#include "predict/nn/workspace.hpp"
#include "predict/predictor.hpp"

namespace fifer {

/// Common scaffolding for the trainable predictors: dataset construction,
/// the epoch loop, input normalization, and forecast clamping. Subclasses
/// implement the per-example forward/backward on the Workspace-arena
/// kernel layer (DESIGN.md §5i), so a trained predictor's forecast() is
/// allocation-free after its first (warming) call — bench_predict gates
/// this with a counting-allocator probe.
///
/// Training semantics: examples are visited in dataset order. With
/// cfg_.train_shards == 1 (default) the legacy strictly-sequential
/// per-example SGD loop runs unchanged — this is where the golden-digest
/// fidelity suite pins bit-exact determinism. With train_shards = S > 1,
/// each round takes S consecutive examples, evaluates their gradients on S
/// independent model replicas (in parallel across cfg_.train_jobs
/// threads), reduces the per-shard gradients in fixed shard order, and
/// applies one averaged optimizer step — bit-identical for a given S
/// regardless of thread count or scheduling.
class NeuralPredictor : public LoadPredictor {
 public:
  explicit NeuralPredictor(const TrainConfig& cfg) : cfg_(cfg) {}

  bool needs_training() const override { return true; }
  void train(const std::vector<double>& rate_history) override;
  double forecast(const std::vector<double>& recent_rates) override;

  bool trained() const { return trained_; }

  /// Persists the trained weights + normalization scale so a model trained
  /// offline can be shipped to the scheduler (the paper's offline step).
  /// Throws std::logic_error if not trained, std::runtime_error on I/O.
  void save(const std::string& path);
  /// Restores weights saved by save(); the architecture (and therefore the
  /// TrainConfig used at construction) must match. Marks the model trained.
  void load(const std::string& path);

 protected:
  /// Forward pass on a normalized window; returns the normalized forecast.
  /// Implementations reset ws_ and carve all scratch from it.
  virtual double forward(const std::vector<double>& window) = 0;
  /// Backward pass for the latest forward given dLoss/dprediction. Must
  /// run before the next forward (the caches are arena spans).
  virtual void backward(double dpred) = 0;
  virtual std::vector<nn::ParamRef> params() = 0;

  /// One training example: forward, loss, backward. Default = MSE on the
  /// scalar forecast; DeepAR overrides with Gaussian NLL. Returns the loss.
  virtual double train_example(const std::vector<double>& window, double target);

  /// Deep-copies this predictor (weights, config, RNG state) for a
  /// training shard. The copy's Workspace starts empty (replicas carve
  /// their own arenas). Every concrete predictor implements this with its
  /// copy constructor.
  virtual std::unique_ptr<NeuralPredictor> replicate() const = 0;

  TrainConfig cfg_;
  double scale_ = 1.0;
  bool trained_ = false;
  double final_loss_ = 0.0;
  nn::Workspace ws_;

 private:
  /// The train_shards > 1 path: round-based data-parallel gradient
  /// evaluation with an ordered reduction (see class comment).
  void train_sharded(const SequenceDataset& ds, nn::Adam& opt,
                     std::size_t shards);

  std::vector<double> window_buf_;  ///< fit_window target, reused per call.
};

/// Simple Feed-Forward network: Dense(W -> 32, relu) -> Dense(32 -> 1).
class SimpleFfPredictor : public NeuralPredictor {
 public:
  explicit SimpleFfPredictor(const TrainConfig& cfg, std::size_t hidden = 32);
  std::string name() const override { return "SimpleFF"; }

 protected:
  double forward(const std::vector<double>& window) override;
  void backward(double dpred) override;
  std::vector<nn::ParamRef> params() override;
  std::unique_ptr<NeuralPredictor> replicate() const override;

 private:
  Rng rng_;
  nn::Dense hidden_, head_;
};

/// The paper's Fifer model: 2 stacked LSTM layers x 32 units + linear head
/// (§5.1). Examples are visited one at a time in dataset order (the
/// paper's batch-size-1 regime) — but the per-example pass itself runs on
/// the batched/fused kernel layer, and TrainConfig::train_shards widens a
/// round to several examples with a deterministic ordered reduction; the
/// shard count (not the thread count) is what pins the arithmetic.
class LstmPredictor : public NeuralPredictor {
 public:
  explicit LstmPredictor(const TrainConfig& cfg, std::size_t hidden = 32,
                         std::size_t layers = 2);
  std::string name() const override { return "LSTM"; }

 protected:
  double forward(const std::vector<double>& window) override;
  void backward(double dpred) override;
  std::vector<nn::ParamRef> params() override;
  std::unique_ptr<NeuralPredictor> replicate() const override;

 private:
  Rng rng_;
  std::vector<nn::LstmLayer> lstms_;
  nn::Dense head_;
  std::size_t last_seq_len_ = 0;
};

/// DeepAR-style probabilistic forecaster: GRU + (mu, log_sigma) head trained
/// with Gaussian NLL. Like the real DeepAREstimator, the point forecast is
/// produced by *sampling* the predictive distribution (median of a small
/// number of draws) rather than returning the analytic mean — the sampling
/// variance is part of the method's error profile.
class DeepArPredictor : public NeuralPredictor {
 public:
  explicit DeepArPredictor(const TrainConfig& cfg, std::size_t hidden = 32,
                           std::size_t forecast_samples = 1);
  std::string name() const override { return "DeepAR"; }

  /// Mean and sigma of the latest forecast (denormalized).
  std::pair<double, double> last_distribution() const { return {last_mu_, last_sigma_}; }

 protected:
  double forward(const std::vector<double>& window) override;
  void backward(double dpred) override;
  std::vector<nn::ParamRef> params() override;
  /// Trains against the Gaussian negative log-likelihood instead of MSE.
  double train_example(const std::vector<double>& window, double target) override;
  std::unique_ptr<NeuralPredictor> replicate() const override;

 private:
  Rng rng_;
  Rng sample_rng_;
  nn::GruLayer gru_;
  nn::Dense head_;
  std::size_t forecast_samples_;
  std::size_t last_seq_len_ = 0;
  nn::Vec last_pred_{0.0, 0.0};
  nn::Vec dpred_buf_;
  std::vector<double> draws_buf_;
  double last_mu_ = 0.0, last_sigma_ = 0.0;
};

/// WaveNet-style model: a stack of dilated causal convolutions
/// (dilations 1,2,4,8, tanh) with a linear head on the last timestep.
class WaveNetPredictor : public NeuralPredictor {
 public:
  explicit WaveNetPredictor(const TrainConfig& cfg, std::size_t channels = 16);
  std::string name() const override { return "WaveNet"; }

 protected:
  double forward(const std::vector<double>& window) override;
  void backward(double dpred) override;
  std::vector<nn::ParamRef> params() override;
  std::unique_ptr<NeuralPredictor> replicate() const override;

 private:
  Rng rng_;
  std::vector<nn::CausalConv1d> convs_;
  nn::Dense head_;
  std::size_t last_seq_len_ = 0;
};

}  // namespace fifer
