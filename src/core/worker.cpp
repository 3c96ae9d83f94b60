#include "core/worker.hpp"

#include "models/clipping.hpp"
#include "utils/codec.hpp"
#include "utils/errors.hpp"

namespace dpbyz {

HonestWorker::HonestWorker(const Model& model, const Dataset& train, size_t batch_size,
                           double clip_norm, const NoiseMechanism& mechanism, Rng rng,
                           bool clip, double momentum)
    : model_(model),
      train_(train),
      batch_size_(batch_size),
      clip_norm_(clip_norm),
      mechanism_(mechanism),
      clip_(clip),
      momentum_(momentum),
      velocity_(model.dim(), 0.0),
      sampler_(train.size()),
      sample_rng_(rng.derive("sampling")),
      noise_rng_(rng.derive("dp-noise")),
      last_clean_gradient_(model.dim(), 0.0) {
  require(batch_size >= 1, "HonestWorker: batch size must be positive");
  require(clip_norm > 0, "HonestWorker: clip norm must be positive");
  require(momentum >= 0 && momentum < 1, "HonestWorker: momentum must be in [0,1)");
}

void HonestWorker::submit_into(const Vector& w, std::span<double> out) {
  // Every stage writes into a reused member buffer or straight into
  // `out`: after the first call the full pipeline (sample, gradient,
  // clip, momentum, noise) touches the heap zero times — measured by the
  // operator-new counter in bench_gar_scaling's pipeline sweep.
  sampler_.next_into(batch_size_, sample_rng_, batch_);
  // Loss is evaluated on the same batch the gradient is computed on —
  // this is the per-step training loss series the paper plots.
  last_batch_loss_ = model_.batch_loss_gradient_into(w, train_, batch_, last_clean_gradient_);
  if (clip_) clip_l2_inplace(last_clean_gradient_, clip_norm_);
  if (momentum_ > 0.0) {
    // Worker-side exponential averaging over clipped gradients.  Note the
    // noise is applied to the *momentum* vector below, so every message
    // leaving the worker remains (eps, delta)-DP for the current batch.
    for (size_t i = 0; i < last_clean_gradient_.size(); ++i) {
      velocity_[i] = momentum_ * velocity_[i] + last_clean_gradient_[i];
      last_clean_gradient_[i] = velocity_[i];
    }
  }
  mechanism_.perturb_into(last_clean_gradient_, noise_rng_, out);
}

Vector HonestWorker::submit(const Vector& w) {
  Vector out(model_.dim());
  submit_into(w, out);
  return out;
}

void HonestWorker::save_state(std::ostream& os) const {
  sample_rng_.save(os);
  noise_rng_.save(os);
  codec::put_f64s(os, velocity_);
}

void HonestWorker::load_state(std::istream& is) {
  sample_rng_.load(is);
  noise_rng_.load(is);
  Vector velocity = codec::Reader(is, "HonestWorker: truncated checkpoint state").f64s();
  require(velocity.size() == velocity_.size(),
          "HonestWorker: checkpoint state does not match this configuration");
  velocity_ = std::move(velocity);
}

}  // namespace dpbyz
