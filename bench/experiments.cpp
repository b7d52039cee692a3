// bench_experiments: every paper table and figure of EXPERIMENTS.md (§IV:
// Table I, Figs. 1/3/4/5, Tables II-III) and every extension table, as one
// entry of a table list.
//
//   bench_experiments [--table=<name>[,<name>...]|all] [--scale= --seed=
//                     --threads= --metrics-out= --ann-nprobe= --verbose]
//
// A table's name is the stem of the CSV it writes into the working
// directory; --table defaults to all, in list order. Most tables are one of
// two kinds:
//   compare  the four paper datasets x registry detectors x a metric
//            accessor (optionally over seeds), one protocol run per job;
//   sweep    CND-IDS on one dataset (or all four, averaged), one detector
//            config / experience-set mutation per row.
// Table I, Fig. 1, the threshold ablation, the family breakdown and the
// streaming comparison keep bespoke bodies. Jobs fan out over the runtime
// pool (bench::parallel_jobs) and write only their own slot, so every CSV
// is byte-identical at any thread count, and whether a table runs alone or
// inside `all`. The process exits non-zero when a table fails its check.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

#include "bench_common.hpp"
#include "data/contamination.hpp"
#include "data/csv.hpp"
#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "eval/robust_threshold.hpp"
#include "eval/threshold.hpp"
#include "ml/random_forest.hpp"
#include "ml/scaler.hpp"
#include "nn/mlp_classifier.hpp"
#include "serve/service.hpp"

namespace {

using namespace cnd;
using Opt = bench::BenchOptions;
using Values = std::vector<double>;

/// The paper benches' detector config, routed through the IVF index when
/// --ann-nprobe is given.
core::DetectorConfig config(const Opt& o, std::uint64_t seed) {
  core::DetectorConfig c = bench::paper_detector_config(seed);
  bench::apply_ann_nprobe(c, o.ann_nprobe);
  return c;
}

core::RunConfig run_config(const Opt& o, std::uint64_t seed) {
  return {.seed = seed, .verbose = o.verbose};
}

/// Fig. 4's convention: a continual detector reports AVG (the mean over the
/// current experience), a static one the mean over every experience.
double paper_mean(const eval::ClResultMatrix& r, const std::string& detector) {
  return core::detector_kind(detector) == core::DetectorKind::kContinual
             ? r.avg_current()
             : r.avg_all();
}

/// What a protocol run of registry detector `name` contributes to a row.
using Metric = std::function<Values(const core::RunResult&, const std::string& name)>;

const Metric kF1 = [](const core::RunResult& r, const std::string& name) {
  return Values{paper_mean(r.f1, name)};
};
const Metric kPrAuc = [](const core::RunResult& r, const std::string& name) {
  return Values{paper_mean(r.pr_auc, name)};
};
const Metric kAvgFwdBwd = [](const core::RunResult& r, const std::string&) {
  return Values{r.avg(), r.fwd(), r.bwd()};
};

/// Print a table and write it to <name>.csv. With row labels, header[0]
/// names the label column.
void emit(const std::string& name, const std::vector<std::string>& header,
          const std::vector<Values>& rows,
          const std::vector<std::string>& labels = {}) {
  const std::size_t first = labels.empty() ? 0 : 1;
  std::vector<int> width;
  for (std::size_t h = first; h < header.size(); ++h)
    width.push_back(static_cast<int>(std::max<std::size_t>(12, header[h].size())));
  std::printf("  %-28s", first ? header[0].c_str() : "");
  for (std::size_t h = first; h < header.size(); ++h)
    std::printf(" %*s", width[h - first], header[h].c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("  %-28s", first ? labels[i].c_str() : "");
    for (std::size_t j = 0; j < rows[i].size(); ++j)
      std::printf(" %*.6g", width[j], rows[i][j]);
    std::printf("\n");
  }
  data::save_table_csv(name + ".csv", header, rows, labels);
  std::printf("Wrote %s.csv\n", name.c_str());
}

// ---- compare: paper datasets x detectors x metric ---------------------------

using DatasetFactory = data::Dataset (*)(std::uint64_t, double);
/// Same order as data::make_all_paper_datasets.
constexpr DatasetFactory kPaperDatasets[] = {
    data::make_x_iiotid, data::make_wustl_iiot, data::make_cicids2017,
    data::make_unsw_nb15};
constexpr std::size_t kNumDatasets = std::size(kPaperDatasets);

struct Grid {
  std::vector<std::string> datasets;
  std::vector<std::string> detectors;
  std::vector<Values> cells;  ///< [(seed * datasets + dataset) * detectors + detector]

  const Values& at(std::size_t seed, std::size_t d, std::size_t k) const {
    return cells[(seed * datasets.size() + d) * detectors.size() + k];
  }
  std::size_t index(const std::string& detector) const {
    return static_cast<std::size_t>(
        std::find(detectors.begin(), detectors.end(), detector) -
        detectors.begin());
  }
};

/// Run every detector on every paper dataset, for `n_seeds` seeds (--seed,
/// then +101, +202, ...); each seed builds its own datasets and detectors.
Grid compare(const Opt& o, std::vector<std::string> detectors, const Metric& metric,
             std::size_t n_seeds = 1) {
  const auto seed_of = [&](std::size_t s) { return o.seed + 101 * s; };
  std::vector<data::ExperienceSet> sets(n_seeds * kNumDatasets);
  bench::parallel_jobs(sets.size(), [&](std::size_t j) {
    const std::uint64_t seed = seed_of(j / kNumDatasets);
    sets[j] = bench::make_experience_set(
        kPaperDatasets[j % kNumDatasets](seed, o.size_scale), seed);
  });

  Grid g{.datasets = {}, .detectors = std::move(detectors), .cells = {}};
  for (std::size_t d = 0; d < kNumDatasets; ++d)
    g.datasets.push_back(sets[d].dataset_name);
  const std::size_t nk = g.detectors.size();
  g.cells.resize(sets.size() * nk);
  bench::parallel_jobs(g.cells.size(), [&](std::size_t j) {
    const std::uint64_t seed = seed_of(j / nk / kNumDatasets);
    const std::string& name = g.detectors[j % nk];
    g.cells[j] = metric(bench::run_detector(name, sets[j / nk], seed,
                                            run_config(o, seed), o.ann_nprobe),
                        name);
  });
  return g;
}

/// Rows = detectors, columns = datasets, of a one-value metric.
void emit_by_method(const std::string& name, const Grid& g) {
  std::vector<std::string> header{"method"};
  header.insert(header.end(), g.datasets.begin(), g.datasets.end());
  std::vector<Values> rows;
  for (std::size_t k = 0; k < g.detectors.size(); ++k) {
    rows.emplace_back();
    for (std::size_t d = 0; d < g.datasets.size(); ++d)
      rows.back().push_back(g.at(0, d, k)[0]);
  }
  emit(name, header, rows, g.detectors);
}

/// Table II-style gain of CND-IDS over every other detector in metric
/// column `col`: CND-IDS / detector per dataset, and the mean of those.
void print_gain(const Grid& g, std::size_t col, const char* metric) {
  const std::size_t cnd = g.index("CND-IDS");
  std::printf("\nCND-IDS gain in %s (CND-IDS / method):\n  %-10s", metric, "method");
  for (const std::string& d : g.datasets) std::printf(" %12s", d.c_str());
  std::printf(" %12s\n", "mean");
  for (std::size_t k = 0; k < g.detectors.size(); ++k) {
    if (k == cnd) continue;
    std::printf("  %-10s", g.detectors[k].c_str());
    double sum = 0.0;
    for (std::size_t d = 0; d < g.datasets.size(); ++d) {
      const double r = g.at(0, d, cnd)[col] / std::max(g.at(0, d, k)[col], 1e-9);
      std::printf(" %11.2fx", r);
      sum += r;
    }
    std::printf(" %11.2fx\n", sum / static_cast<double>(g.datasets.size()));
  }
}

// ---- sweep: CND-IDS under one mutation per row ------------------------------

/// One sweep row: its label (empty in label-less tables), its own axis
/// values (the leading CSV columns), and the change it makes to the paper
/// config and the experience set before the columns run.
struct Row {
  std::string label;
  Values axis;
  std::function<void(core::DetectorConfig&, data::ExperienceSet&)> mutate;
};

/// A column group: measures one thing on the mutated config and set.
using Column = std::function<Values(const core::DetectorConfig&,
                                    const data::ExperienceSet&, const Opt&)>;

Column measure(const std::string& name, const Metric& metric) {
  return [name, metric](const core::DetectorConfig& cfg,
                        const data::ExperienceSet& es, const Opt& o) {
    return metric(core::run_detector(name, cfg, es, run_config(o, cfg.seed)), name);
  };
}

/// Run every row on every set (one job each), average each row over the
/// sets (a one-set sweep reports its values unchanged), and emit the table.
void sweep(const std::string& name, const std::vector<std::string>& header,
           const Opt& o, const std::vector<data::ExperienceSet>& sets,
           const std::vector<Row>& rows, const std::vector<Column>& columns) {
  std::vector<Values> cell(rows.size() * sets.size());
  bench::parallel_jobs(cell.size(), [&](std::size_t j) {
    const Row& row = rows[j / sets.size()];
    core::DetectorConfig cfg = config(o, o.seed);
    data::ExperienceSet es = sets[j % sets.size()];
    row.mutate(cfg, es);
    cell[j] = row.axis;
    for (const Column& c : columns) {
      const Values v = c(cfg, es, o);
      cell[j].insert(cell[j].end(), v.begin(), v.end());
    }
  });
  std::vector<Values> means;
  std::vector<std::string> labels;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    Values mean(cell[r * sets.size()].size(), 0.0);
    for (std::size_t d = 0; d < sets.size(); ++d)
      for (std::size_t i = 0; i < mean.size(); ++i)
        mean[i] += cell[r * sets.size() + d][i];
    for (double& x : mean) x /= static_cast<double>(sets.size());
    means.push_back(std::move(mean));
    if (!rows[r].label.empty()) labels.push_back(rows[r].label);
  }
  emit(name, header, means, labels);
}

std::vector<data::ExperienceSet> one_set(DatasetFactory make, const Opt& o) {
  return {bench::make_experience_set(make(o.seed, o.size_scale), o.seed)};
}

// ---- bespoke bodies ---------------------------------------------------------

/// CND-IDS under the paper config, set up on the set's clean window (it
/// takes no labeled seed) and ready for its first experience.
std::unique_ptr<core::ContinualDetector> cnd_ids_on(const data::ExperienceSet& es,
                                                    const Opt& o) {
  auto det = core::make_detector("CND-IDS", config(o, o.seed));
  det->setup(core::SetupContext{es.n_clean, Matrix{}, {}});
  return det;
}

/// Table I: generated datasets keep the paper's attack share (within 3
/// points) and family count.
bool table1(const Opt& o) {
  struct PaperRow {
    double total, attack;
    std::size_t types;
  };
  const PaperRow paper[] = {{820502, 399417, 18},
                            {1194464, 87016, 4},
                            {2830743, 557646, 15},
                            {257673, 93000, 10}};
  std::vector<Values> rows;
  std::vector<std::string> labels;
  bool all_ok = true;
  std::size_t i = 0;
  for (const data::Dataset& ds : data::make_all_paper_datasets(o.seed, o.size_scale)) {
    const PaperRow& p = paper[i++];
    const double paper_frac = p.attack / p.total;
    const double gen_frac =
        static_cast<double>(ds.n_attacks()) / static_cast<double>(ds.size());
    const bool ok = std::abs(paper_frac - gen_frac) < 0.03 &&
                    ds.n_attack_classes() == p.types;
    if (!ok)
      std::printf("  MISMATCH: %s attack share %.1f%% vs paper %.1f%%, %zu types\n",
                  ds.name.c_str(), 100.0 * gen_frac, 100.0 * paper_frac,
                  ds.n_attack_classes());
    all_ok &= ok;
    rows.push_back({paper_frac, gen_frac, static_cast<double>(ds.n_attack_classes())});
    labels.push_back(ds.name);
  }
  emit("table1_datasets",
       {"dataset", "paper_attack_frac", "gen_attack_frac", "n_types"}, rows, labels);
  return all_ok;
}

/// Fig. 1: an MLP and a random forest, trained with labels on normal traffic
/// and the first half of the attack families, scored on held-out flows of
/// those families ("known") and on the unseen families ("unknown").
Values known_unknown(const data::Dataset& ds, std::uint64_t seed) {
  Rng rng(seed);
  const int known_cutoff = static_cast<int>(ds.n_attack_classes() / 2);

  std::vector<std::size_t> train_idx, known_test_idx, unknown_test_idx;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (ds.attack_class[i] >= known_cutoff) {
      unknown_test_idx.push_back(i);  // unseen families: test only
      continue;
    }
    // Normal rows and known families: 70/30 train/test.
    (rng.bernoulli(0.7) ? train_idx : known_test_idx).push_back(i);
  }
  // The unknown-attack test set borrows the known split's normal rows.
  std::vector<std::size_t> unknown_full = unknown_test_idx;
  for (std::size_t i : known_test_idx)
    if (ds.y[i] == 0) unknown_full.push_back(i);

  const data::Dataset train = ds.take(train_idx);
  const data::Dataset known = ds.take(known_test_idx);
  const data::Dataset unknown = ds.take(unknown_full);

  ml::StandardScaler scaler;
  Matrix xtr = scaler.fit_transform(train.x);
  std::vector<std::size_t> ytr(train.size());
  for (std::size_t i = 0; i < train.size(); ++i)
    ytr[i] = static_cast<std::size_t>(train.y[i]);

  nn::MlpClassifier clf({.input_dim = ds.n_features(),
                         .hidden_dim = 128,
                         .n_classes = 2,
                         .epochs = 15,
                         .batch_size = 128,
                         .lr = 1e-3},
                        rng);
  clf.fit(xtr, ytr);
  ml::RandomForest forest({.n_trees = 40, .max_depth = 12});
  forest.fit(xtr, ytr, 2, rng);

  auto f1_of = [&](const std::vector<std::size_t>& pred, const data::Dataset& d) {
    std::vector<int> p(pred.begin(), pred.end());
    return eval::f1_score(p, d.y);
  };
  return {f1_of(clf.predict(scaler.transform(known.x)), known),
          f1_of(clf.predict(scaler.transform(unknown.x)), unknown),
          f1_of(forest.predict(scaler.transform(known.x)), known),
          f1_of(forest.predict(scaler.transform(unknown.x)), unknown)};
}

bool fig1(const Opt& o) {
  std::vector<Values> rows;
  std::vector<std::string> labels;
  double worst = 1.0;
  for (const data::Dataset& ds : data::make_all_paper_datasets(o.seed, o.size_scale)) {
    rows.push_back(known_unknown(ds, o.seed));
    const Values& r = rows.back();
    worst = std::min({worst, r[1] / std::max(r[0], 1e-9), r[3] / std::max(r[2], 1e-9)});
    labels.push_back(ds.name);
  }
  emit("fig1_known_unknown",
       {"dataset", "mlp_known", "mlp_unknown", "rf_known", "rf_unknown"}, rows,
       labels);
  std::printf("Worst retention of known-attack F1 on unseen families: %.0f%%\n",
              100.0 * worst);
  return true;
}

/// Best-F (the paper's label oracle) against label-free quantiles of the
/// clean-window scores, on the diagonal of one CND-IDS protocol pass.
bool ablation_threshold(const Opt& o) {
  const data::ExperienceSet es = one_set(data::make_unsw_nb15, o).front();
  const auto det = cnd_ids_on(es, o);
  struct Diag {
    std::vector<double> test_scores, calib_scores;
    std::vector<int> y;
  };
  std::vector<Diag> diags;
  for (const data::Experience& e : es.experiences) {
    det->observe_experience(e.x_train);
    diags.push_back({det->score(e.x_test), det->score(es.n_clean), e.y_test});
  }
  const double n = static_cast<double>(diags.size());

  std::vector<Values> rows;
  std::vector<std::string> labels;
  double bestf = 0.0;
  for (const Diag& d : diags) bestf += eval::best_f_threshold(d.test_scores, d.y).f1;
  rows.push_back({0.0, bestf / n});
  labels.push_back("best_f");
  for (double q : {0.90, 0.95, 0.99}) {
    double f1 = 0.0;
    for (const Diag& d : diags) {
      const double tau = eval::quantile_threshold(d.calib_scores, q);
      f1 += eval::f1_score(eval::apply_threshold(d.test_scores, tau), d.y);
    }
    rows.push_back({q, f1 / n});
    labels.push_back("quantile");
  }
  emit("ablation_threshold", {"method", "q", "avg_f1"}, rows, labels);
  return true;
}

/// CND-IDS after the full protocol on X-IIoTID: per-family detection rate at
/// the pooled Best-F threshold. The "normal" row's flag_rate is the FPR.
bool family_breakdown(const Opt& o) {
  const data::ExperienceSet es = one_set(data::make_x_iiotid, o).front();
  const auto det = cnd_ids_on(es, o);
  for (const data::Experience& e : es.experiences) det->observe_experience(e.x_train);

  Matrix x_all;
  std::vector<int> y_all, fam_all;
  for (const data::Experience& e : es.experiences) {
    x_all.append_rows(e.x_test);
    y_all.insert(y_all.end(), e.y_test.begin(), e.y_test.end());
    fam_all.insert(fam_all.end(), e.test_class.begin(), e.test_class.end());
  }
  const std::vector<double> scores = det->score(x_all);
  const auto best = eval::best_f_threshold(scores, y_all);
  const eval::FamilyReport rep =
      eval::family_breakdown(scores, y_all, fam_all, es.class_names, best.threshold);

  std::vector<Values> rows;
  std::vector<std::string> labels;
  for (const eval::FamilyStat& f : rep.families) {
    rows.push_back({static_cast<double>(f.count), f.mean_score, f.recall});
    labels.push_back(f.name);
  }
  emit("family_breakdown", {"family", "count", "mean_score", "flag_rate"}, rows,
       labels);
  const int hardest = rep.hardest_family();
  if (hardest >= 0)
    std::printf("hardest family: %s (threshold %.4f, overall F1 %.4f)\n",
                es.class_names[static_cast<std::size_t>(hardest)].c_str(),
                best.threshold, best.f1);
  return true;
}

/// The windowed protocol (adaptation at the oracle experience boundaries)
/// against a 1-shard scoring service replaying the same test stream in
/// 64-flow batches with an adaptation round every n/m admitted flows (n the
/// batched stream length, m the experience count). Both threshold with POT
/// on the clean window at a 1% target false-alarm rate. Fails when a
/// service row runs no adaptation round.
bool streaming(const Opt& o) {
  constexpr std::size_t kBatch = 64;
  std::vector<Values> rows;
  std::vector<std::string> labels;
  bool all_adapted = true;
  for (const data::Dataset& ds : data::make_all_paper_datasets(o.seed, o.size_scale)) {
    const data::ExperienceSet es = bench::make_experience_set(ds, o.seed);

    {
      const auto det = cnd_ids_on(es, o);
      eval::Confusion total;
      for (const data::Experience& e : es.experiences) {
        det->observe_experience(e.x_train);
        // Calibrate on the vouched clean window, never on the live stream.
        const double tau = eval::pot_threshold(
            det->score(es.n_clean), {.tail_quantile = 0.9, .target_prob = 0.01});
        const auto c = eval::confusion(
            eval::apply_threshold(det->score(e.x_test), tau), e.y_test);
        total.tp += c.tp;
        total.fp += c.fp;
        total.tn += c.tn;
        total.fn += c.fn;
      }
      rows.push_back({static_cast<double>(es.size()), eval::f1_score(total),
                      eval::recall(total)});
      labels.push_back(ds.name + "/windowed");
    }

    {
      std::size_t batched = 0;
      for (const data::Experience& e : es.experiences)
        batched += e.x_test.rows() / kBatch * kBatch;
      serve::ServiceConfig cfg;
      cfg.detector_cfg = config(o, o.seed);
      cfg.adapt_interval_flows =
          std::max(kBatch, batched / es.size() / kBatch * kBatch);
      serve::ScoringService svc(cfg);
      svc.bootstrap(es.n_clean);

      // A batch is scored by the artifact current at its admission, so a
      // round never rescores the batch that triggered it.
      std::vector<int> truth;
      for (const data::Experience& e : es.experiences) {
        for (std::size_t start = 0; start + kBatch <= e.x_test.rows();
             start += kBatch) {
          std::vector<std::size_t> idx;
          for (std::size_t i = 0; i < kBatch; ++i) idx.push_back(start + i);
          const Matrix batch = e.x_test.take_rows(idx);
          while (!svc.try_submit(batch)) svc.drain();
          for (std::size_t i : idx) truth.push_back(e.y_test[i]);
        }
      }
      svc.drain();
      std::vector<int> verdicts;
      for (const serve::BatchResult& r : svc.results())
        verdicts.insert(verdicts.end(), r.verdicts.begin(), r.verdicts.end());
      const eval::Confusion total = eval::confusion(verdicts, truth);
      std::printf("  %s service(n/m): %llu rounds, one every %zu flows\n",
                  ds.name.c_str(), static_cast<unsigned long long>(svc.adaptations()),
                  cfg.adapt_interval_flows);
      all_adapted &= svc.adaptations() > 0;
      rows.push_back({static_cast<double>(svc.adaptations()), eval::f1_score(total),
                      eval::recall(total)});
      labels.push_back(ds.name + "/service");
    }
  }
  emit("streaming_vs_windowed", {"variant", "adaptations", "f1", "recall"}, rows,
       labels);
  return all_adapted;
}

// ---- compare and sweep tables -----------------------------------------------

bool fig3(const Opt& o) {
  const Grid g = compare(o, {"ADCN", "LwF", "CND-IDS"}, kAvgFwdBwd);
  std::vector<Values> rows;
  std::vector<std::string> labels;
  for (std::size_t d = 0; d < g.datasets.size(); ++d)
    for (std::size_t k = 0; k < g.detectors.size(); ++k) {
      rows.push_back(g.at(0, d, k));
      labels.push_back(g.datasets[d] + "/" + g.detectors[k]);
    }
  emit("fig3_cl_comparison", {"dataset_method", "avg", "fwd_trans", "bwd_trans"}, rows,
       labels);
  print_gain(g, 0, "AVG");
  print_gain(g, 1, "FwdTrans");
  std::printf("\nMean BwdTrans:");
  for (std::size_t k = 0; k < g.detectors.size(); ++k) {
    double sum = 0.0;
    for (std::size_t d = 0; d < g.datasets.size(); ++d) sum += g.at(0, d, k)[2];
    std::printf(" %s %+.4f", g.detectors[k].c_str(),
                sum / static_cast<double>(g.datasets.size()));
  }
  std::printf("\n");
  return true;
}

bool fig4(const Opt& o) {
  const Grid g = compare(o, {"LOF", "OC-SVM", "PCA", "DIF", "CND-IDS"}, kF1);
  emit_by_method("fig4_nd_comparison", g);
  print_gain(g, 0, "F1");
  return true;
}

bool fig5(const Opt& o) {
  const Grid g = compare(o, {"DIF", "PCA", "CND-IDS"}, kPrAuc);
  emit_by_method("fig5_prauc", g);
  print_gain(g, 0, "PR-AUC");
  return true;
}

bool extended_nd(const Opt& o) {
  const Grid g = compare(
      o, {"LOF", "OC-SVM", "PCA", "DIF", "GMM", "Maha", "kNN", "HBOS", "AE", "CND-IDS"},
      kF1);
  emit_by_method("extended_nd", g);
  print_gain(g, 0, "F1");
  return true;
}

/// Fig. 4's core comparison over three seeds: mean and (population) std.
bool multiseed(const Opt& o) {
  const std::size_t n_seeds = 3;
  const Grid g = compare(o, {"PCA", "DIF", "CND-IDS"}, kF1, n_seeds);
  std::vector<Values> rows;
  std::size_t cnd_wins = 0;
  for (std::size_t d = 0; d < g.datasets.size(); ++d) {
    rows.emplace_back();
    double best_other = 0.0, cnd_mean = 0.0;
    for (std::size_t k = 0; k < g.detectors.size(); ++k) {
      double mean = 0.0, var = 0.0;
      for (std::size_t s = 0; s < n_seeds; ++s) mean += g.at(s, d, k)[0];
      mean /= static_cast<double>(n_seeds);
      for (std::size_t s = 0; s < n_seeds; ++s)
        var += (g.at(s, d, k)[0] - mean) * (g.at(s, d, k)[0] - mean);
      rows.back().push_back(mean);
      rows.back().push_back(std::sqrt(var / static_cast<double>(n_seeds)));
      if (g.detectors[k] == "CND-IDS")
        cnd_mean = mean;
      else
        best_other = std::max(best_other, mean);
    }
    cnd_wins += cnd_mean >= best_other;
  }
  emit("multiseed",
       {"dataset", "pca_mean", "pca_std", "dif_mean", "dif_std", "cnd_mean", "cnd_std"},
       rows, g.datasets);
  std::printf("CND-IDS mean beats the best static baseline on %zu/%zu datasets\n",
              cnd_wins, g.datasets.size());
  return true;
}

bool table3(const Opt& o) {
  std::vector<data::ExperienceSet> sets;
  for (const data::Dataset& ds : data::make_all_paper_datasets(o.seed, o.size_scale))
    sets.push_back(bench::make_experience_set(ds, o.seed));
  const auto variant = [](const char* label, bool cs, bool r, bool cl) {
    return Row{label, {}, [=](core::DetectorConfig& c, data::ExperienceSet&) {
                 c.cnd.cfe.use_cs = cs;
                 c.cnd.cfe.use_r = r;
                 c.cnd.cfe.use_cl = cl;
               }};
  };
  const Metric avg_bwd_fwd = [](const core::RunResult& r, const std::string&) {
    return Values{r.avg(), r.bwd(), r.fwd()};
  };
  sweep("table3_ablation", {"variant", "avg", "bwd", "fwd"}, o, sets,
        {variant("CND-IDS", true, true, true),
         variant("CND-IDS (w/o L_CS)", false, true, true),
         variant("CND-IDS (w/o L_R)", true, false, true),
         variant("CND-IDS (w/o L_R and L_CL)", true, false, false)},
        {measure("CND-IDS", avg_bwd_fwd)});
  return true;
}

bool ablation_m(const Opt& o) {
  const data::Dataset ds = data::make_unsw_nb15(o.seed, o.size_scale);
  std::vector<Row> rows;
  for (std::size_t m : {2, 3, 5, 8})
    rows.push_back({"m=" + std::to_string(m), {static_cast<double>(m)},
                    [&ds, m, seed = o.seed](core::DetectorConfig&,
                                            data::ExperienceSet& es) {
                      es = data::prepare_experiences(
                          ds, {.n_experiences = m, .seed = seed});
                    }});
  sweep("ablation_m", {"label", "m", "avg", "fwd", "bwd"}, o,
        {bench::make_experience_set(ds, o.seed)}, rows,
        {measure("CND-IDS", kAvgFwdBwd)});
  return true;
}

bool ablation_lambda(const Opt& o) {
  std::vector<Row> rows;
  for (double lr : {0.0, 0.1, 0.5})
    for (double lcl : {0.0, 0.1, 0.5})
      rows.push_back({"", {lr, lcl},
                      [=](core::DetectorConfig& c, data::ExperienceSet&) {
                        c.cnd.cfe.lambda_r = lr;
                        c.cnd.cfe.lambda_cl = lcl;
                        c.cnd.cfe.use_r = lr > 0.0;
                        c.cnd.cfe.use_cl = lcl > 0.0;
                      }});
  sweep("ablation_lambda", {"lambda_r", "lambda_cl", "avg", "fwd", "bwd"}, o,
        one_set(data::make_x_iiotid, o), rows, {measure("CND-IDS", kAvgFwdBwd)});
  return true;
}

bool ablation_pca_var(const Opt& o) {
  std::vector<Row> rows;
  for (double ev : {0.80, 0.90, 0.95, 0.99})
    rows.push_back({"", {ev}, [=](core::DetectorConfig& c, data::ExperienceSet&) {
                      c.cnd.pca.explained_variance = ev;
                    }});
  const Column avg_fwd_components = [](const core::DetectorConfig& cfg,
                                       const data::ExperienceSet& es, const Opt& opt) {
    const auto det = core::make_detector("CND-IDS", cfg);
    const core::RunResult r = core::run_protocol(*det, es, run_config(opt, cfg.seed));
    const auto& cnd = dynamic_cast<const core::CndIds&>(*det);
    return Values{r.avg(), r.fwd(), static_cast<double>(cnd.pca().n_components())};
  };
  sweep("ablation_pca_var", {"explained_variance", "avg", "fwd", "n_components"}, o,
        one_set(data::make_wustl_iiot, o), rows, {avg_fwd_components});
  return true;
}

bool ablation_latent(const Opt& o) {
  std::vector<Row> rows;
  for (std::size_t latent : {16, 32, 64, 128, 256})
    rows.push_back({"", {static_cast<double>(latent)},
                    [=](core::DetectorConfig& c, data::ExperienceSet&) {
                      c.cnd.cfe.latent_dim = latent;
                    }});
  sweep("ablation_latent", {"latent_dim", "avg", "fwd", "bwd"}, o,
        one_set(data::make_x_iiotid, o), rows, {measure("CND-IDS", kAvgFwdBwd)});
  return true;
}

/// Snapshot distillation (the paper's L_CL) vs replay rehearsal at three
/// buffer sizes vs online EWC: quality, and what each keeps between
/// experiences.
bool ablation_clmode(const Opt& o) {
  const auto mode = [](std::string label, core::ClMode m, std::size_t cap) {
    return Row{std::move(label), {},
               [=](core::DetectorConfig& c, data::ExperienceSet&) {
                 c.cnd.cfe.cl_mode = m;
                 if (cap > 0) c.cnd.cfe.replay_capacity = cap;
               }};
  };
  std::vector<Row> rows{mode("snapshots", core::ClMode::kSnapshots, 0)};
  for (std::size_t cap : {128, 512, 2048})
    rows.push_back(mode("replay_" + std::to_string(cap), core::ClMode::kReplay, cap));
  rows.push_back(mode("ewc", core::ClMode::kEwc, 0));
  // Stored doubles: one encoder (two weight matrices) per experience for
  // snapshots, the reservoir rows for replay, Fisher diagonal and anchor for
  // EWC.
  const Column stored = [](const core::DetectorConfig& cfg,
                           const data::ExperienceSet& es, const Opt&) {
    const core::CfeConfig& c = cfg.cnd.cfe;
    const std::size_t features = es.n_clean.cols();
    const std::size_t weights = features * c.hidden_dim + c.hidden_dim * c.latent_dim;
    std::size_t n = es.size() * weights;
    if (c.cl_mode == core::ClMode::kReplay) n = c.replay_capacity * features;
    if (c.cl_mode == core::ClMode::kEwc) n = 2 * weights * 2;
    return Values{static_cast<double>(n)};
  };
  sweep("ablation_clmode", {"variant", "avg", "fwd", "bwd", "stored_doubles"}, o,
        one_set(data::make_x_iiotid, o), rows,
        {measure("CND-IDS", kAvgFwdBwd), stored});
  return true;
}

/// N_c secretly poisoned with attack rows at rising rates, PCA and CND-IDS.
bool robustness(const Opt& o) {
  const std::vector<data::ExperienceSet> sets = one_set(data::make_unsw_nb15, o);
  // The poison: the first experience's attack test rows, standardized like
  // the rest of the set.
  const data::Experience& e0 = sets.front().experiences.front();
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < e0.y_test.size(); ++i)
    if (e0.y_test[i] == 1) idx.push_back(i);
  const Matrix attack_pool = e0.x_test.take_rows(idx);
  std::vector<Row> rows;
  for (double frac : {0.0, 0.02, 0.05, 0.10, 0.20})
    rows.push_back({"", {frac},
                    [&attack_pool, frac, seed = o.seed](core::DetectorConfig&,
                                                        data::ExperienceSet& es) {
                      Rng rng(seed ^ 0xBADC0DE);
                      if (frac > 0.0)
                        es.n_clean =
                            data::contaminate(es.n_clean, attack_pool, frac, rng);
                    }});
  sweep("robustness_contamination", {"contamination", "pca_f1", "cnd_avg"}, o, sets,
        rows, {measure("PCA", kF1), measure("CND-IDS", kF1)});
  return true;
}

// ---- the table list ---------------------------------------------------------

struct Table {
  const char* name;   ///< --table name and CSV stem.
  const char* title;
  const char* paper;  ///< the paper's values or setting; "" beyond the paper.
  double max_scale;   ///< --scale cap; 0 = uncapped.
  bool (*run)(const Opt&);  ///< false = the table failed its check.
};

constexpr Table kTables[] = {
    {"table1_datasets", "Table I: dataset inventory, paper ratios vs generated",
     "attack share 48.7% / 7.3% / 19.7% / 36.1%, 18/4/15/10 families", 0.0, table1},
    {"fig1_known_unknown", "Fig. 1: supervised ML-IDS on known vs unknown attacks",
     "high F1 on trained families, collapse on unseen ones", 0.0, fig1},
    {"fig3_cl_comparison", "Fig. 3 / Table II: CL metrics of ADCN, LwF, CND-IDS",
     "mean gain 1.88x AVG / 2.63x Fwd over ADCN, 1.78x / 1.60x over LwF; "
     "mean BwdTrans ADCN -0.0006, LwF +0.0009, CND-IDS +0.0087",
     0.0, fig3},
    {"fig4_nd_comparison", "Fig. 4: average F1, CND-IDS vs static ND",
     "CND-IDS best everywhere; mean gain 1.16x over DIF, 1.08x over PCA", 0.0, fig4},
    {"fig5_prauc", "Fig. 5: threshold-free (PR-AUC) evaluation",
     "CND-IDS best PR-AUC on 4/4 datasets", 0.0, fig5},
    {"table3_ablation", "Table III: CND loss-component ablation (4-dataset mean)",
     "AVG/Bwd/Fwd %: full 76.92/+0.87/73.70, w/o L_CS 66.23/+0.09/70.26, "
     "w/o L_R 72.86/-5.44/67.82, w/o L_R and L_CL 79.92/-11.26/71.01",
     0.0, table3},
    {"ablation_m", "Ablation: number of experiences m (UNSW-NB15, CND-IDS)",
     "m = 5 (4 for WUSTL-IIoT)", 0.3, ablation_m},
    {"ablation_lambda", "Ablation: lambda_R x lambda_CL grid (X-IIoTID, CND-IDS)",
     "lambda_R = lambda_CL = 0.1", 0.25, ablation_lambda},
    {"ablation_pca_var", "Ablation: PCA explained variance (WUSTL-IIoT, CND-IDS)",
     "95% explained variance", 0.25, ablation_pca_var},
    {"ablation_threshold", "Ablation: Best-F vs label-free quantiles (UNSW-NB15)",
     "Best-F", 0.25, ablation_threshold},
    {"ablation_latent", "Ablation: CFE latent width (X-IIoTID, CND-IDS)",
     "256-wide latent", 0.25, ablation_latent},
    {"ablation_clmode", "Extension: snapshot L_CL vs replay vs EWC (X-IIoTID, CND-IDS)",
     "per-experience encoder snapshots", 0.25, ablation_clmode},
    {"extended_nd", "Extension: full static-ND zoo vs CND-IDS (avg F1)", "", 0.25,
     extended_nd},
    {"robustness_contamination", "Extension: N_c contamination robustness (UNSW-NB15)",
     "", 0.25, robustness},
    {"multiseed", "Extension: Fig. 4 core comparison over 3 seeds (avg F1)", "", 0.25,
     multiseed},
    {"family_breakdown", "Extension: per-family breakdown, CND-IDS on X-IIoTID", "",
     0.25, family_breakdown},
    {"streaming_vs_windowed", "Extension: windowed protocol vs the scoring service",
     "", 0.3, streaming},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  for (const Table& t : kTables) names.emplace_back(t.name);
  std::vector<std::string> chosen;
  try {
    chosen = bench::parse_table_selection(argc, argv, names);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_experiments: %s\n", e.what());
    return 2;
  }
  const Opt opt = bench::parse_options(argc, argv);

  std::vector<std::string> failed;
  for (const std::string& name : chosen) {
    const Table& t = *std::find_if(std::begin(kTables), std::end(kTables),
                                   [&](const Table& x) { return name == x.name; });
    Opt o = opt;
    if (t.max_scale > 0.0) o.size_scale = std::min(o.size_scale, t.max_scale);
    std::printf("=== %s ===\n(table=%s scale=%.2f seed=%llu)\n\n", t.title, t.name,
                o.size_scale, static_cast<unsigned long long>(o.seed));
    bool ok = false;
    try {
      ok = t.run(o);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_experiments: %s threw: %s\n", t.name, e.what());
    }
    if (*t.paper) std::printf("paper: %s\n", t.paper);
    if (!ok) failed.push_back(t.name);
    std::printf("\n");
    std::fflush(stdout);
  }
  for (const std::string& name : failed)
    std::fprintf(stderr, "bench_experiments: table %s FAILED\n", name.c_str());
  return failed.empty() ? 0 : 1;
}
