// Streaming monitor: CND-IDS without experience boundaries.
//
// The paper's protocol hands the model whole experiences; a real monitor
// sees mini-batches. A 1-shard serve::ScoringService scores each batch as it
// arrives and runs an adaptation round (CFE fit + PCA refit on the flows
// admitted since the last round, then a POT threshold on the clean window)
// every 768 admitted flows. This example replays a drifting CICIDS2017-like
// stream in 64-flow batches and logs every adaptation round.
//
//   ./streaming_monitor [seed]
#include <cstdio>
#include <cstdlib>

#include "data/experiences.hpp"
#include "data/synth.hpp"
#include "eval/metrics.hpp"
#include "serve/service.hpp"

int main(int argc, char** argv) {
  using namespace cnd;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 21;

  // Build the drifting stream: reuse the experience machinery for the clean
  // window + a time-ordered labeled stream, then replay it batch by batch.
  data::Dataset ds = data::make_cicids2017(seed, /*size_scale=*/0.5);
  data::ExperienceSet es =
      data::prepare_experiences(ds, {.n_experiences = 5, .seed = seed});

  serve::ServiceConfig cfg;
  cfg.detector_cfg.cnd.cfe.epochs = 6;
  cfg.detector_cfg.cnd.seed = seed;
  cfg.adapt_interval_flows = 768;
  serve::ScoringService monitor(cfg);
  monitor.bootstrap(es.n_clean);
  std::printf("bootstrapped on %zu vouched flows\n\n", es.n_clean.rows());

  const std::size_t batch_rows = 64;
  std::size_t batch_no = 0;
  eval::Confusion total;
  for (const auto& exp : es.experiences) {
    // Replay this window's labeled test flows as the live stream.
    for (std::size_t start = 0; start + batch_rows <= exp.x_test.rows();
         start += batch_rows) {
      std::vector<std::size_t> idx;
      for (std::size_t i = 0; i < batch_rows; ++i) idx.push_back(start + i);
      Matrix batch = exp.x_test.take_rows(idx);
      std::vector<int> truth;
      for (std::size_t i : idx) truth.push_back(exp.y_test[i]);

      // Synchronous use: drain after each batch so its verdicts are ready.
      const std::uint64_t rounds_before = monitor.adaptations();
      while (!monitor.try_submit(batch)) monitor.drain();
      monitor.drain();
      const eval::Confusion c =
          eval::confusion(monitor.results().back().verdicts, truth);
      total.tp += c.tp;
      total.fp += c.fp;
      total.tn += c.tn;
      total.fn += c.fn;

      if (monitor.adaptations() != rounds_before)
        std::printf("batch %4zu: ADAPTED (%llu adaptations so far, "
                    "threshold now %.2f)\n",
                    batch_no,
                    static_cast<unsigned long long>(monitor.adaptations()),
                    monitor.threshold());
      ++batch_no;
    }
  }

  std::printf("\nstream replay done: %llu flows in %zu batches, %llu adaptations\n",
              static_cast<unsigned long long>(monitor.flows_admitted()), batch_no,
              static_cast<unsigned long long>(monitor.adaptations()));
  std::printf("online totals: precision %.3f recall %.3f F1 %.3f "
              "(label-free thresholds throughout)\n",
              eval::precision(total), eval::recall(total), eval::f1_score(total));
  return 0;
}
