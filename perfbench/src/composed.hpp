// CND-IDS composed from its public parts for the traced runs: the same
// sequence of calls core::CndIds makes (Cfe::fit_experience, Cfe::encode on
// the clean window, ml::Pca::fit; scoring as Autoencoder encode + PCA FRE),
// each wrapped in a span. Scores are bit-identical to a CndIds built from
// the same config; the workloads check that instead of assuming it.
#pragma once

#include <utility>
#include <vector>

#include "common.hpp"
#include "core/cfe.hpp"
#include "core/cnd_ids.hpp"
#include "linalg/eigen.hpp"
#include "linalg/stats.hpp"
#include "ml/pca.hpp"

namespace perfbench {

class ComposedCnd final : public cnd::core::ContinualDetector {
 public:
  ComposedCnd(const cnd::core::CndIdsConfig& cfg, Tracer* tr)
      : cfg_(cfg), cfe_(cfg.cfe, cfg.seed), pca_(cfg.pca), tr_(tr) {}

  std::string name() const override { return "CND-IDS (composed)"; }

  void setup(const cnd::core::SetupContext& ctx) override { n_clean_ = ctx.n_clean; }

  void observe_experience(const cnd::Matrix& x_train) override {
    {
      Tracer::Scope s(tr_, "core.cfe_fit", id_);
      stats_ = cfe_.fit_experience(x_train, n_clean_);
    }
    {
      Tracer::Scope s(tr_, "nn.encode_clean", id_);
      encoded_clean_ = cfe_.encode(n_clean_);
    }
    Tracer::Scope s(tr_, "ml.pca_fit", id_);
    pca_ = cnd::ml::Pca(cfg_.pca);
    pca_.fit(encoded_clean_);
  }

  std::vector<double> score(const cnd::Matrix& x) override {
    std::vector<double> out;
    Tracer::Scope s(tr_, "core.score", id_);
    {
      Tracer::Scope e(tr_, "nn.encode", id_);
      cfe_.encode_into(x, latent_);
    }
    Tracer::Scope p(tr_, "ml.pca_score", id_);
    pca_.score_into(latent_, out, ws_);
    return out;
  }

  /// Batch or experience id stamped on the spans that follow.
  void set_id(std::int64_t id) { id_ = id; }
  const cnd::core::CfeFitStats& last_fit_stats() const { return stats_; }
  /// The clean window as encoded for the last PCA fit.
  const cnd::Matrix& encoded_clean() const { return encoded_clean_; }

 private:
  cnd::core::CndIdsConfig cfg_;
  cnd::core::Cfe cfe_;
  cnd::ml::Pca pca_;
  cnd::Matrix n_clean_;
  cnd::Matrix encoded_clean_;
  cnd::Matrix latent_;
  cnd::Workspace ws_;
  cnd::core::CfeFitStats stats_;
  Tracer* tr_;
  std::int64_t id_ = 0;
};

/// Optimizer steps Cfe::fit_experience takes on `rows` training rows: one
/// per mini-batch of at least four rows, every epoch.
inline std::size_t cfe_steps(const cnd::core::CfeConfig& c, std::size_t rows) {
  const std::size_t full = rows / c.batch_size;
  const std::size_t tail = rows % c.batch_size;
  return c.epochs * (full + (tail >= 4 ? 1 : 0));
}

/// Time covariance and eigensolve, the two halves of Pca::fit, standalone on
/// the window the fit used. Returns {covariance ms, eigen ms, dimension}.
struct PcaSplit {
  double covariance_ms;
  double eigen_ms;
  std::size_t dim;
};
inline PcaSplit time_pca_split(const cnd::Matrix& encoded, Tracer* tr,
                               std::int64_t id) {
  Tracer::Scope c(tr, "linalg.covariance", id);
  const std::int64_t t0 = now_ns();
  const cnd::Matrix cov = cnd::linalg::covariance(encoded);
  const std::int64_t t1 = now_ns();
  c.close();
  Tracer::Scope e(tr, "linalg.eigen", id);
  const cnd::linalg::EigenResult eig = cnd::linalg::eigen_symmetric(cov);
  const std::int64_t t2 = now_ns();
  return {ns_to_ms(t1 - t0), ns_to_ms(t2 - t1), eig.values.size()};
}

}  // namespace perfbench
