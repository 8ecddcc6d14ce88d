#include "nvcim/compress/autoencoder.hpp"

#include <cmath>

namespace nvcim::compress {

Autoencoder::Autoencoder(AutoencoderConfig cfg) : cfg_(cfg) {
  Rng rng(cfg_.seed);
  enc1_ = nn::Linear(cfg_.input_dim, cfg_.hidden_dim, rng, "ae.enc1");
  enc2_ = nn::Linear(cfg_.hidden_dim, cfg_.code_dim, rng, "ae.enc2");
  dec1_ = nn::Linear(cfg_.code_dim, cfg_.hidden_dim, rng, "ae.dec1");
  dec2_ = nn::Linear(cfg_.hidden_dim, cfg_.input_dim, rng, "ae.dec2");
}

namespace {

// Elementwise tanh with Tape::tanh_op's arithmetic, so the tape-free
// inference forwards stay bit-identical to training-side ones.
void tanh_inplace(Matrix& m) {
  for (std::size_t i = 0; i < m.size(); ++i) m.at_flat(i) = std::tanh(m.at_flat(i));
}

}  // namespace

float Autoencoder::run_training(const std::vector<Matrix>& data, std::size_t steps,
                                bool reset_opt) {
  std::vector<const Matrix*> parts;
  parts.reserve(data.size());
  for (const Matrix& m : data) {
    NVCIM_CHECK_MSG(m.cols() == cfg_.input_dim, "autoencoder input dim mismatch");
    if (m.rows() > 0) parts.push_back(&m);
  }
  NVCIM_CHECK_MSG(!parts.empty(), "no training rows");
  const Matrix all = nvcim::stack_rows(parts);
  Rng rng(cfg_.seed ^ (opt_steps_done_ + 1));
  nn::Adam::Config acfg;
  acfg.schedule.kind = nn::LrSchedule::Kind::Cosine;
  acfg.schedule.base_lr = cfg_.lr;
  acfg.schedule.total_steps = steps;
  nn::Adam adam(acfg);
  if (reset_opt) opt_steps_done_ = 0;

  // Row RMS of the data, used to scale the augmentation noise.
  const float data_rms =
      all.frobenius_norm() / std::sqrt(static_cast<float>(all.size()));

  float last = 0.0f;
  for (std::size_t step = 0; step < steps; ++step) {
    // Assemble a batch of random rows (optionally augmented).
    const std::size_t bs = std::min(cfg_.batch_size, all.rows());
    Matrix batch(bs, cfg_.input_dim);
    for (std::size_t b = 0; b < bs; ++b) {
      Matrix row = all.row(rng.uniform_index(all.rows()));
      if (cfg_.augment) {
        if (rng.uniform() < 0.3) {
          // Pure random row with data-matched RMS: the code must be faithful
          // over the whole operating ball, not just the data manifold, since
          // prompt-tuned OVTs drift off-manifold before encoding.
          const float rms = data_rms * static_cast<float>(rng.uniform(0.5, 2.5));
          for (std::size_t c = 0; c < row.size(); ++c)
            row.at_flat(c) = static_cast<float>(rng.normal(0.0, rms));
        } else {
          const Matrix other = all.row(rng.uniform_index(all.rows()));
          const float alpha = static_cast<float>(rng.uniform());
          row *= alpha;
          row.add_scaled(other, 1.0f - alpha);
          row *=
              static_cast<float>(rng.uniform(cfg_.augment_scale_lo, cfg_.augment_scale_hi));
          for (std::size_t c = 0; c < row.size(); ++c)
            row.at_flat(c) +=
                static_cast<float>(rng.normal(0.0, cfg_.augment_noise_std * data_rms));
        }
      }
      batch.set_row(b, row);
    }

    autograd::Tape tape;
    nn::Binder bind(tape, /*frozen=*/false);
    autograd::Var x = tape.leaf(batch, false);
    autograd::Var code = tape.tanh_op(enc2_.forward(bind, tape.gelu(enc1_.forward(bind, x))));
    autograd::Var rec = dec2_.forward(bind, tape.gelu(dec1_.forward(bind, code)));
    autograd::Var loss = tape.mse(rec, batch);
    tape.backward(loss);
    adam.step(bind.bound());
    last = loss.value()(0, 0);
  }
  opt_steps_done_ += steps;
  return last;
}

float Autoencoder::train(const std::vector<Matrix>& data) {
  return run_training(data, cfg_.steps, /*reset_opt=*/true);
}

float Autoencoder::update(const std::vector<Matrix>& data, std::size_t steps) {
  return run_training(data, steps, /*reset_opt=*/false);
}

void Autoencoder::encode_into(const Matrix& x, Matrix& out, Scratch* scratch) const {
  NVCIM_CHECK_MSG(x.cols() == cfg_.input_dim, "autoencoder input dim mismatch");
  Scratch local;
  Matrix& hidden = (scratch != nullptr ? scratch->hidden : local.hidden);
  enc1_.forward_into(x, hidden);
  nn::gelu_inplace(hidden);
  enc2_.forward_into(hidden, out);
  tanh_inplace(out);
}

void Autoencoder::decode_into(const Matrix& code, Matrix& out, Scratch* scratch) const {
  NVCIM_CHECK_MSG(code.cols() == cfg_.code_dim, "autoencoder code dim mismatch");
  Scratch local;
  Matrix& hidden = (scratch != nullptr ? scratch->hidden : local.hidden);
  dec1_.forward_into(code, hidden);
  nn::gelu_inplace(hidden);
  dec2_.forward_into(hidden, out);
}

Matrix Autoencoder::encode(const Matrix& x) const {
  Matrix out;
  encode_into(x, out);
  return out;
}

Matrix Autoencoder::decode(const Matrix& code) const {
  Matrix out;
  decode_into(code, out);
  return out;
}

float Autoencoder::reconstruction_error(const Matrix& x) const {
  const Matrix rec = decode(encode(x));
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = static_cast<double>(x.at_flat(i)) - rec.at_flat(i);
    s += d * d;
  }
  return static_cast<float>(s / static_cast<double>(x.size()));
}

}  // namespace nvcim::compress
