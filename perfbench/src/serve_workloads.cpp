// The two serving workloads: serve_replay (closed loop, capacity) and
// serve_adapt (open loop on a fixed schedule, with adaptation rounds).
#include <array>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "common.hpp"
#include "composed.hpp"
#include "core/cluster_separation.hpp"
#include "data/flow_generator.hpp"
#include "eval/robust_threshold.hpp"
#include "serve/artifact.hpp"
#include "serve/flow_record.hpp"
#include "serve/service.hpp"

namespace perfbench {
namespace {

using cnd::Matrix;
namespace serve = cnd::serve;
using ArtifactPtr = std::shared_ptr<const serve::ServingArtifact>;

constexpr std::size_t kDim = 32;
constexpr std::size_t kCleanRows = 2048;
constexpr std::size_t kQueue = 8;

struct Stream {
  Matrix n_clean;
  std::vector<std::uint8_t> attack;  ///< ground truth, one per packed flow.
};

/// Drifting normal traffic with attack waves over 30-35% and 70-75% of the
/// stream, packed into a flow-record file; the generator and profiles are
/// those of bench_serving, and so is the chunking (1/128 of the stream per
/// generator call: bench_serving's 8192 of its default 1M flows).
Stream synthesize(std::uint64_t seed, std::size_t flows, const std::string& path) {
  cnd::Rng rng(seed);
  cnd::data::FlowGenerator gen(kDim, 8, 0.6, rng);
  const std::size_t normal =
      gen.add_profile("normal", 0.0, 1.0, 0.0, 0.3, 0.0, 0.0, 0.2, rng);
  const std::size_t attack =
      gen.add_profile("attack", 6.0, 1.2, 6.0, 0.3, 0.5, 0.3, 0.2, rng);
  Stream s;
  s.n_clean = gen.sample(normal, kCleanRows, 0.0, rng);
  s.attack.reserve(flows);
  serve::FlowRecordWriter writer(path, kDim);
  const std::size_t chunk = std::max<std::size_t>(1, flows / 128);
  for (std::size_t written = 0; written < flows;) {
    const std::size_t n = std::min(chunk, flows - written);
    const double phase = static_cast<double>(written) / static_cast<double>(flows);
    const bool wave =
        (phase >= 0.30 && phase < 0.35) || (phase >= 0.70 && phase < 0.75);
    writer.append(gen.sample(wave ? attack : normal, n, phase, rng));
    s.attack.insert(s.attack.end(), n, wave ? 1 : 0);
    written += n;
  }
  writer.close();
  return s;
}

/// bench_serving's detector: CND-IDS at 64/32 widths, 4 epochs, K = 4.
serve::ServiceConfig service_config(std::uint64_t seed, std::size_t shards,
                                    std::size_t adapt_interval) {
  serve::ServiceConfig c;
  c.detector = "CND-IDS";
  c.detector_cfg.seed = seed;
  c.detector_cfg.cnd.seed = seed;
  c.detector_cfg.cnd.cfe.hidden_dim = 64;
  c.detector_cfg.cnd.cfe.latent_dim = 32;
  c.detector_cfg.cnd.cfe.epochs = 4;
  c.detector_cfg.cnd.cfe.kmeans_k = 4;
  c.shards = shards;
  c.queue_capacity = kQueue;
  c.adapt_interval_flows = adapt_interval;
  return c;
}

/// Detection counts over verified flows, for the verdict F-score.
struct Tally {
  std::uint64_t verified = 0;
  std::uint64_t tp = 0, fp = 0, fn = 0;
  double f1() const {
    const double d = static_cast<double>(2 * tp + fp + fn);
    return d > 0 ? static_cast<double>(2 * tp) / d : 0.0;
  }
};

/// The producer's view of one service lifetime.
struct Producer {
  std::int64_t setup_ns = 0;      ///< open + construct + bootstrap.
  std::int64_t bootstrap_ns = 0;  ///< the bootstrap round alone.
  std::int64_t first_submit_ns = 0;
  std::int64_t drained_ns = 0;
  std::uint64_t flows = 0;
  std::uint64_t attempts = 0;
  std::uint64_t rejected = 0;
  double read_ms = 0, admit_ms = 0, backoff_ms = 0, drain_ms = 0;
  std::uint64_t admits = 0, drains = 0;
  std::vector<double> admit_wait_ms;  ///< per batch: read start -> admitted.
};

/// Submit `x` until admitted; yields between rejected attempts. Returns the
/// accepted call's start and end so the caller can classify it.
std::pair<std::int64_t, std::int64_t> submit(serve::ScoringService& svc,
                                             const Matrix& x, Producer& p, Tracer* tr,
                                             std::int64_t id) {
  std::int64_t backoff_start = -1;
  for (;;) {
    const std::int64_t a = now_ns();
    if (p.first_submit_ns == 0) p.first_submit_ns = a;
    ++p.attempts;
    if (svc.try_submit(x)) {
      const std::int64_t b = now_ns();
      if (backoff_start >= 0) {
        p.backoff_ms += ns_to_ms(a - backoff_start);
        if (tr != nullptr) tr->add("serve.backoff", backoff_start, a, id);
      }
      return {a, b};
    }
    if (backoff_start < 0) backoff_start = a;
    ++p.rejected;
    std::this_thread::yield();
  }
}

double read_batch(const serve::FlowRecordFile& file, std::size_t lo, std::size_t hi,
                  Matrix& x, Tracer* tr, std::int64_t id) {
  Tracer::Scope s(tr, "serve.read", id);
  const std::int64_t t = now_ns();
  file.copy_rows_into(lo, hi, x);
  return ns_to_ms(now_ns() - t);
}

std::int64_t set_up(const std::string& path, const Stream& st,
                    serve::FlowRecordFile& file, serve::ScoringService& svc,
                    Producer& p) {
  const std::int64_t t0 = now_ns();
  file = serve::FlowRecordFile(path);
  const std::int64_t tb = now_ns();
  svc.bootstrap(st.n_clean);
  const std::int64_t t1 = now_ns();
  p.bootstrap_ns = t1 - tb;
  return t1 - t0;
}

/// Output checks over every admitted batch of a drained service: each flow
/// scored exactly once, finite scores, verdict == (score > the batch's
/// artifact threshold), and with adaptation on, the batch's artifact
/// version. Flows of batches that pass every check count as verified.
void verify(const serve::ScoringService& svc, const Stream& st, std::uint64_t submitted,
            std::size_t interval, Report& r, Tally& t) {
  std::uint64_t next = 0, verified = 0;
  bool once = true, finite = true, verdicts = true, versions = true;
  Tally local;
  for (const serve::BatchResult& b : svc.results()) {
    if (b.first_flow != next || b.scores.empty() ||
        b.scores.size() != b.verdicts.size()) {
      once = false;
      break;
    }
    bool ok = true;
    const double thr = b.artifact->threshold;
    for (std::size_t i = 0; i < b.scores.size(); ++i) {
      const double s = b.scores[i];
      if (!std::isfinite(s)) finite = ok = false;
      const int v = b.verdicts[i];
      if (v != (s > thr ? 1 : 0)) verdicts = ok = false;
      const bool attack = st.attack[(b.first_flow + i) % st.attack.size()] != 0;
      local.tp += static_cast<std::uint64_t>(v == 1 && attack);
      local.fp += static_cast<std::uint64_t>(v == 1 && !attack);
      local.fn += static_cast<std::uint64_t>(v == 0 && attack);
    }
    if (interval != 0 && b.artifact->version != 1 + b.first_flow / interval)
      versions = ok = false;
    if (ok) verified += b.scores.size();
    next += b.scores.size();
  }
  once = once && next == submitted && svc.flows_admitted() == submitted;
  r.check("serving: every flow scored exactly once", once,
          std::to_string(next) + " scored of " + std::to_string(submitted));
  r.check("serving: every score finite", finite);
  r.check("serving: verdict == (score > batch artifact threshold)", verdicts);
  if (interval != 0)
    r.check("serve_adapt: batch artifact version == 1 + floor(first_flow / interval)",
            versions);
  t.verified += once ? verified : 0;
  t.tp += local.tp;
  t.fp += local.fp;
  t.fn += local.fn;
}

/// Re-score a fixed sample of batches (every k-th, 16 in all) on replicas
/// restored outside the service; the scores must match bit for bit.
void rescore_sample(const serve::ScoringService& svc, const serve::FlowRecordFile& file,
                    const serve::ServiceConfig& cfg, Report& r) {
  const auto& res = svc.results();
  std::map<std::uint64_t, std::unique_ptr<cnd::core::ContinualDetector>> replicas;
  const std::size_t stride = std::max<std::size_t>(1, res.size() / 16);
  Matrix x;
  std::vector<double> s;
  bool same = !res.empty();
  for (std::size_t k = 0; k < res.size(); k += stride) {
    const serve::BatchResult& b = res[k];
    auto& rep = replicas[b.artifact->version];
    if (!rep) rep = serve::restore_replica(*b.artifact, cfg.detector_cfg);
    const std::size_t lo = static_cast<std::size_t>(b.first_flow % file.rows());
    file.copy_rows_into(lo, lo + b.scores.size(), x);
    rep->score_into(x, s);
    same = same && s.size() == b.scores.size() &&
           std::memcmp(s.data(), b.scores.data(), s.size() * sizeof(double)) == 0;
  }
  r.check("serving: sampled batches re-scored out of service match bit for bit", same);
}

/// Distinct artifacts the service's batches carried, indexed by version - 1.
std::vector<ArtifactPtr> artifacts_of(const serve::ScoringService& svc) {
  std::vector<ArtifactPtr> out;
  for (const serve::BatchResult& b : svc.results()) {
    const std::size_t v = static_cast<std::size_t>(b.artifact->version);
    if (out.size() < v) out.resize(v);
    if (!out[v - 1]) out[v - 1] = b.artifact;
  }
  return out;
}

/// Median restore_replica time (ms) over the artifacts, three restores each.
double time_restores(const std::vector<ArtifactPtr>& arts,
                     const serve::ServiceConfig& cfg, Tracer* tr) {
  std::vector<double> per_artifact;
  for (const ArtifactPtr& a : arts) {
    if (!a) continue;
    std::vector<double> ms;
    for (int k = 0; k < 3; ++k) {
      Tracer::Scope s(tr, "serve.restore_replica",
                      static_cast<std::int64_t>(a->version));
      const std::int64_t t = now_ns();
      auto rep = serve::restore_replica(*a, cfg.detector_cfg);
      ms.push_back(ns_to_ms(now_ns() - t));
    }
    per_artifact.push_back(median(ms));
  }
  if (per_artifact.empty()) return 0.0;
  return sum(per_artifact) / static_cast<double>(per_artifact.size());
}

/// Out-of-service scoring split on a replica of `a`: score_into, then the
/// same batch through a copy of the replica's autoencoder and its PCA.
/// Returns microseconds per flow {score, encode, pca} and checks that the
/// two halves reproduce score_into bit for bit.
std::array<double, 3> time_score_split(const serve::ServingArtifact& a,
                                       const serve::ServiceConfig& cfg,
                                       const serve::FlowRecordFile& file,
                                       std::size_t batch, std::size_t batches,
                                       Tracer* tr, Report& r) {
  auto rep = serve::restore_replica(a, cfg.detector_cfg);
  const auto& det = dynamic_cast<const cnd::core::CndIds&>(*rep);
  cnd::nn::Autoencoder ae = det.cfe().autoencoder();
  const cnd::ml::Pca& pca = det.pca();
  Matrix x, latent;
  std::vector<double> s1, s2;
  cnd::Workspace ws;
  std::int64_t score_ns = 0, enc_ns = 0, pca_ns = 0;
  bool same = true;
  const std::size_t span = file.rows() / batch;
  for (std::size_t k = 0; k <= batches; ++k) {
    const std::size_t lo = ((k * 7919) % span) * batch;
    file.copy_rows_into(lo, lo + batch, x);
    const auto id = static_cast<std::int64_t>(k);
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope s(tr, "serve.replica_score", id);
      rep->score_into(x, s1);
    }
    const std::int64_t t1 = now_ns();
    {
      Tracer::Scope s(tr, "serve.replica_encode", id);
      ae.encode_into(x, latent);
    }
    const std::int64_t t2 = now_ns();
    {
      Tracer::Scope s(tr, "serve.replica_pca_score", id);
      pca.score_into(latent, s2, ws);
    }
    const std::int64_t t3 = now_ns();
    same = same && s1.size() == s2.size() &&
           std::memcmp(s1.data(), s2.data(), s1.size() * sizeof(double)) == 0;
    if (k == 0) continue;  // warm-up: scratch buffers are sized on first use.
    score_ns += t1 - t0;
    enc_ns += t2 - t1;
    pca_ns += t3 - t2;
  }
  r.check("serving: encoder + PCA split reproduces replica score_into bit for bit",
          same);
  const double us = 1e3 * static_cast<double>(batches * batch);
  return {static_cast<double>(score_ns) / us, static_cast<double>(enc_ns) / us,
          static_cast<double>(pca_ns) / us};
}

void put_service_meta(Report& r, const serve::ServiceConfig& cfg, std::size_t batch,
                      std::size_t file_rows) {
  r.put("shards", static_cast<double>(cfg.shards));
  r.put("batch_rows", static_cast<double>(batch));
  r.put("queue_capacity", static_cast<double>(cfg.queue_capacity));
  r.put("adapt_interval_flows", static_cast<double>(cfg.adapt_interval_flows));
  r.put("file_flows", static_cast<double>(file_rows));
  r.put("features", static_cast<double>(kDim));
  r.put("clean_rows", static_cast<double>(kCleanRows));
  r.put("detector", "CND-IDS hidden 64 latent 32 epochs 4 K 4");
}

// ---- serve_replay -----------------------------------------------------------

/// One service lifetime of the closed loop: set up, replay `flows` flows
/// (whole passes over the file) in `batch`-row batches, drain, verify.
Producer replay_block(const std::string& path, const Stream& st,
                      const serve::ServiceConfig& cfg, std::size_t batch,
                      std::uint64_t flows, Tracer* tr, std::int64_t block, Report& r,
                      Tally& t, ArtifactPtr* artifact, std::uint64_t* swaps) {
  Producer p;
  serve::FlowRecordFile file;
  serve::ScoringService svc(cfg);
  p.setup_ns = set_up(path, st, file, svc, p);
  Matrix x;
  p.admit_wait_ms.reserve(flows / batch);
  {
    Tracer::Scope blk(tr, "serve.replay_block", block);
    for (std::uint64_t f = 0; f < flows; f += batch) {
      const auto id = static_cast<std::int64_t>(f / batch);
      const std::size_t lo = static_cast<std::size_t>(f % file.rows());
      const std::int64_t ts = now_ns();
      p.read_ms += read_batch(file, lo, lo + batch, x, tr, id);
      const auto [a, b] = submit(svc, x, p, tr, id);
      if (tr != nullptr) tr->add("serve.admit", a, b, id);
      p.admit_ms += ns_to_ms(b - a);
      ++p.admits;
      p.admit_wait_ms.push_back(ns_to_ms(b - ts));
    }
    Tracer::Scope d(tr, "serve.drain", block);
    const std::int64_t t = now_ns();
    svc.drain();
    p.drained_ns = now_ns();
    p.drain_ms += ns_to_ms(p.drained_ns - t);
    ++p.drains;
  }
  p.flows = flows;
  svc.shutdown();
  verify(svc, st, flows, 0, r, t);
  r.check("serve_replay: no adaptation round ran", svc.adaptations() == 0);
  r.check("serve_replay: replica builds == shards", svc.swaps() == cfg.shards);
  if (block == 0) rescore_sample(svc, file, cfg, r);
  if (artifact != nullptr && !svc.results().empty())
    *artifact = svc.results().front().artifact;
  if (swaps != nullptr) *swaps = svc.swaps();
  return p;
}

// ---- serve_adapt ------------------------------------------------------------

/// Spin (yielding) until `due`. A sleeping generator oversleeps by
/// milliseconds on a busy host and its idle core is slow to wake; both would
/// read as service latency.
void wait_until(std::int64_t due) {
  while (now_ns() < due) std::this_thread::yield();
}

struct Schedule {
  Producer p;
  std::vector<double> latency_ms;   ///< per batch: due time -> drain() return.
  std::vector<double> lateness_ms;  ///< per batch: due time -> send.
  std::vector<double> round_s;      ///< try_submit calls that ran a round.
  std::vector<std::uint64_t> round_end;  ///< flows admitted when each round ran.
  std::vector<ArtifactPtr> artifacts;
  std::uint64_t adaptations = 0, swaps = 0;
  std::size_t batches = 0;
};

/// Open loop: batch b is due at start + b * batch / rate. Each batch is
/// read, submitted (retrying rejects), and drained before the next send.
Schedule run_schedule(const std::string& path, const Stream& st,
                      const serve::ServiceConfig& cfg, std::size_t batch, double rate,
                      Tracer* tr, Report& r, Tally& t) {
  Schedule s;
  serve::FlowRecordFile file;
  serve::ScoringService svc(cfg);
  s.p.setup_ns = set_up(path, st, file, svc, s.p);
  const auto period_ns =
      static_cast<std::int64_t>(static_cast<double>(batch) * 1e9 / rate);
  s.batches = file.rows() / batch;
  s.latency_ms.reserve(s.batches);
  Matrix x;
  const std::int64_t start = now_ns() + 2'000'000;
  for (std::size_t b = 0; b < s.batches; ++b) {
    const auto id = static_cast<std::int64_t>(b);
    const std::int64_t due = start + id * period_ns;
    wait_until(due);
    s.lateness_ms.push_back(ns_to_ms(now_ns() - due));
    s.p.read_ms += read_batch(file, b * batch, (b + 1) * batch, x, tr, id);
    const std::uint64_t rounds_before = svc.adaptations();
    const auto [a, e] = submit(svc, x, s.p, tr, id);
    if (svc.adaptations() != rounds_before) {
      s.round_s.push_back(ns_to_s(e - a));
      s.round_end.push_back(svc.flows_admitted());
      if (tr != nullptr) tr->add("serve.adapt_round", a, e, id);
    } else {
      s.p.admit_ms += ns_to_ms(e - a);
      ++s.p.admits;
      if (tr != nullptr) tr->add("serve.admit", a, e, id);
    }
    {
      Tracer::Scope d(tr, "serve.drain", id);
      const std::int64_t td = now_ns();
      svc.drain();
      s.p.drain_ms += ns_to_ms(now_ns() - td);
      ++s.p.drains;
    }
    s.latency_ms.push_back(ns_to_ms(now_ns() - due));
  }
  s.p.flows = s.batches * batch;
  svc.shutdown();
  s.adaptations = svc.adaptations();
  s.swaps = svc.swaps();
  verify(svc, st, s.p.flows, cfg.adapt_interval_flows, r, t);
  r.check("serve_adapt: rounds == floor(flows / interval)",
          s.adaptations == s.p.flows / cfg.adapt_interval_flows &&
              s.round_s.size() == s.adaptations);
  r.check("serve_adapt: replica builds == shards * (rounds + 1)",
          s.swaps == cfg.shards * (s.adaptations + 1));
  rescore_sample(svc, file, cfg, r);
  s.artifacts = artifacts_of(svc);
  return s;
}

/// Closed-loop capacity of a fresh 1-shard service with adaptation off:
/// flows / (first submit -> drain()).
Producer burst(const std::string& path, const Stream& st, serve::ServiceConfig cfg,
               std::size_t batch, std::size_t passes, Report& r, Tally& t) {
  cfg.adapt_interval_flows = 0;
  Producer p;
  serve::FlowRecordFile file;
  serve::ScoringService svc(cfg);
  p.setup_ns = set_up(path, st, file, svc, p);
  Matrix x;
  const std::uint64_t flows = static_cast<std::uint64_t>(passes) * file.rows();
  for (std::size_t pass = 0; pass < passes; ++pass)
    for (std::size_t lo = 0; lo < file.rows(); lo += batch) {
      file.copy_rows_into(lo, std::min(lo + batch, file.rows()), x);
      submit(svc, x, p, nullptr, 0);
    }
  svc.drain();
  p.drained_ns = now_ns();
  p.flows = flows;
  svc.shutdown();
  verify(svc, st, flows, 0, r, t);
  return p;
}

/// The serving adaptation rounds re-run outside the service on a composed
/// CND-IDS (same config and seed as the service's trainer), each call
/// spanned. Checks the composition reproduces every published threshold and
/// the published models' clean-window scores bit for bit.
struct ShadowOut {
  double wall_ms = 0;   ///< sum over rounds of the round spans.
  double round_ms = 0;  ///< sum over rounds of the spanned stages.
  double cfe_fit_ms = 0, encode_ms = 0, pca_fit_ms = 0, score_ms = 0, pot_ms = 0,
         snapshot_ms = 0, pseudo_ms = 0;
  double pseudo_k = 0, cfe_steps = 0;
  PcaSplit split{0, 0, 0};
  std::size_t rounds = 0;
};

ShadowOut shadow_rounds(const std::string& path, const Stream& st,
                        const serve::ServiceConfig& cfg, const Schedule& s, Tracer* tr,
                        Report& r) {
  ShadowOut o;
  const cnd::eval::PotConfig pot{.tail_quantile = 0.9, .target_prob = cfg.target_fpr};
  ComposedCnd shadow(cfg.detector_cfg.cnd, tr);
  const Matrix no_x;
  const std::vector<int> no_y;
  shadow.setup({st.n_clean, no_x, no_y});
  shadow.observe_experience(st.n_clean);
  double thr = cnd::eval::pot_threshold(shadow.score(st.n_clean), pot);
  bool thresholds =
      !s.artifacts.empty() && s.artifacts[0] && thr == s.artifacts[0]->threshold;
  bool bytes = true, scores = true;
  serve::FlowRecordFile file(path);
  Matrix buf;
  std::vector<double> tail, published_clean;
  std::uint64_t prev = 0;
  for (std::size_t k = 0; k < s.round_end.size(); ++k) {
    const auto id = static_cast<std::int64_t>(k + 1);
    shadow.set_id(id);
    file.copy_rows_into(prev, s.round_end[k], buf);
    prev = s.round_end[k];
    const ArtifactPtr published =
        k + 1 < s.artifacts.size() ? s.artifacts[k + 1] : nullptr;
    // The composed CND-IDS has no snapshot of its own, so the snapshot is
    // taken from a replica of the published artifact: snapshot(restore(a))
    // is byte-identical to a, and it writes the same encoder + PCA state the
    // trainer's snapshot writes. The restore itself happens in the shard
    // workers, not in the round, so it stays outside.
    const auto replica =
        published ? serve::restore_replica(*published, cfg.detector_cfg) : nullptr;
    Tracer::Scope round(tr, "shadow.round", id);
    const std::int64_t t_round = now_ns();
    shadow.observe_experience(buf);
    std::vector<double> clean;
    {
      Tracer::Scope sc(tr, "shadow.score_clean", id);
      const std::int64_t t = now_ns();
      clean = shadow.score(st.n_clean);
      o.score_ms += ns_to_ms(now_ns() - t);
    }
    tail = clean;  // pot_threshold consumes its input.
    {
      Tracer::Scope p(tr, "eval.pot", id);
      const std::int64_t t = now_ns();
      thr = cnd::eval::pot_threshold(std::move(tail), pot);
      o.pot_ms += ns_to_ms(now_ns() - t);
    }
    // Every round's artifact is carried by a later batch (see the interval
    // in run_serve_adapt); a missing one fails the checks.
    bytes = bytes && replica != nullptr;
    scores = scores && replica != nullptr;
    if (replica) {
      thresholds = thresholds && thr == published->threshold;
      Tracer::Scope sn(tr, "io.snapshot", id);
      const std::int64_t t = now_ns();
      const ArtifactPtr again =
          serve::make_artifact(published->version, cfg.detector, thr, *replica);
      o.snapshot_ms += ns_to_ms(now_ns() - t);
      bytes = bytes && again->model_bytes == published->model_bytes;
    }
    o.wall_ms += ns_to_ms(now_ns() - t_round);
    round.close();
    if (replica) {
      replica->score_into(st.n_clean, published_clean);
      scores = scores && published_clean.size() == clean.size() &&
               std::memcmp(published_clean.data(), clean.data(),
                           clean.size() * sizeof(double)) == 0;
    }
    o.pseudo_k += static_cast<double>(shadow.last_fit_stats().pseudo_k);
    o.cfe_steps += static_cast<double>(cfe_steps(cfg.detector_cfg.cnd.cfe, buf.rows()));
    {
      cnd::Rng rng(cfg.detector_cfg.cnd.seed);
      Tracer::Scope p(tr, "core.pseudo_label", id);
      const std::int64_t t = now_ns();
      const cnd::core::CfeConfig& cfe = cfg.detector_cfg.cnd.cfe;
      cnd::core::cluster_separation_labels(buf, st.n_clean, cfe.kmeans_k, rng, cfe.ann);
      o.pseudo_ms += ns_to_ms(now_ns() - t);
    }
    const PcaSplit sp = time_pca_split(shadow.encoded_clean(), tr, id);
    o.split.covariance_ms += sp.covariance_ms;
    o.split.eigen_ms += sp.eigen_ms;
    o.split.dim = sp.dim;
    ++o.rounds;
  }
  // Rounds only: the bootstrap fit carries id 0.
  const auto rounds_ms = [tr](const char* name) {
    double ms = 0;
    for (const Tracer::Span& sp : tr->spans())
      if (std::strcmp(sp.name, name) == 0 && sp.id >= 1)
        ms += ns_to_ms(sp.end_ns - sp.start_ns);
    return ms;
  };
  o.cfe_fit_ms = rounds_ms("core.cfe_fit");
  o.encode_ms = rounds_ms("nn.encode_clean");
  o.pca_fit_ms = rounds_ms("ml.pca_fit");
  o.round_ms = o.cfe_fit_ms + o.encode_ms + o.pca_fit_ms + o.score_ms + o.pot_ms +
               o.snapshot_ms;
  r.check("serve_adapt: composed rounds reproduce every published threshold",
          thresholds);
  r.check("serve_adapt: composed rounds score the clean window bit for bit as every "
          "published artifact",
          scores);
  r.check("serve_adapt: snapshots of published replicas reproduce the artifacts byte "
          "for byte",
          bytes);
  return o;
}

void add_e2e(Report& r, double setup_s, double flows_per_s, double p50, double p99,
             double round_s, double f1) {
  r.e2e = {{"setup_s", setup_s, "s"},
           {"flows_per_s", flows_per_s, "1/s"},
           {"latency_p50_ms", p50, "ms"},
           {"latency_p99_ms", p99, "ms"},
           {"adapt_round_s", round_s, "s"},
           {"f1_avg", f1, "ratio"},
           {"peak_rss_mb", peak_rss_mib(), "MiB"}};
}

}  // namespace

Report run_serve_replay(const RunOptions& opt) {
  Report r;
  const std::size_t batch = 256;
  const std::size_t file_rows = opt.self_test ? 16384 : 262144;
  const std::uint64_t block_flows = opt.self_test ? 65536 : 1048576;
  const std::string path = opt.work_dir + "/serve_replay.flows";
  const Stream st = synthesize(opt.seed, file_rows, path);
  const serve::ServiceConfig cfg = service_config(opt.seed, 2, 0);
  put_service_meta(r, cfg, batch, file_rows);
  r.put("block_flows", static_cast<double>(block_flows));
  r.put("loop", "closed: one producer, retry on reject");

  Tracer tracer;
  Tally tally;
  std::vector<double> setup_s, boot_s, fps, waits, traced_wall, untraced_wall;
  std::vector<Producer> traced;
  ArtifactPtr artifact;
  std::uint64_t swaps = 0;
  const std::size_t min_blocks = opt.trace ? 4 : 3;
  const std::int64_t t_begin = now_ns();
  for (std::int64_t block = 0;; ++block) {
    const bool traced_block = opt.trace && block % 2 == 1;
    Producer p = replay_block(path, st, cfg, batch, block_flows,
                              traced_block ? &tracer : nullptr, block, r, tally,
                              &artifact, &swaps);
    r.attempted += p.flows;
    const double wall = ns_to_s(p.drained_ns - p.first_submit_ns);
    if (traced_block) {
      traced_wall.push_back(wall);
      traced.push_back(std::move(p));
    } else {
      untraced_wall.push_back(wall);
      setup_s.push_back(ns_to_s(p.setup_ns));
      boot_s.push_back(ns_to_s(p.bootstrap_ns));
      fps.push_back(static_cast<double>(p.flows) / wall);
      waits.insert(waits.end(), p.admit_wait_ms.begin(), p.admit_wait_ms.end());
    }
    if (static_cast<std::size_t>(block + 1) >= min_blocks &&
        ns_to_s(now_ns() - t_begin) >= opt.seconds)
      break;
  }
  r.failed = r.attempted - tally.verified;
  // Adaptation is off, so the only round is each block's bootstrap: about
  // 80 ms of single-threaded training, whose time on a shared host swings by
  // a third as other tenants' load changes phase every few seconds. That
  // load only ever adds time, so the 10th percentile of the run's rounds is
  // reported: it tracks the round's own cost (a slower fit moves every
  // sample), where the median follows the host's phases.
  const double boot_p10 = order_stat(boot_s, 0.1);
  add_e2e(r, median(setup_s), median(fps), order_stat(waits, 0.5),
          order_stat(waits, 0.99), boot_p10, tally.f1());
  std::printf("serve_replay: flows_per_s per block min %.0f q1 %.0f median %.0f "
              "q3 %.0f max %.0f\n",
              order_stat(fps, 0.0), order_stat(fps, 0.25), median(fps),
              order_stat(fps, 0.75), order_stat(fps, 1.0));
  std::printf("serve_replay: bootstrap round per block (s): n=%zu min %.4f p10 %.4f "
              "q1 %.4f median %.4f q3 %.4f max %.4f\n",
              boot_s.size(), order_stat(boot_s, 0.0), boot_p10, order_stat(boot_s, 0.25),
              median(boot_s), order_stat(boot_s, 0.75), order_stat(boot_s, 1.0));
  std::printf("serve_replay: %zu untraced blocks of %llu flows; flows_per_s median "
              "%.0f; admission wait n=%zu (p99 has %zu beyond)\n",
              fps.size(), static_cast<unsigned long long>(block_flows), median(fps),
              waits.size(), samples_beyond(waits.size(), 0.99));

  if (opt.trace) {
    double read = 0, admit = 0, backoff = 0, drain = 0, wall = 0;
    std::uint64_t batches = 0, attempts = 0, rejected = 0;
    for (const Producer& p : traced) {
      read += p.read_ms;
      admit += p.admit_ms;
      backoff += p.backoff_ms;
      drain += p.drain_ms;
      batches += p.admits;
      attempts += p.attempts;
      rejected += p.rejected;
    }
    for (const Tracer::Span& s : tracer.spans())
      if (std::strcmp(s.name, "serve.replay_block") == 0)
        wall += ns_to_ms(s.end_ns - s.start_ns);
    const double nb = static_cast<double>(traced.size());
    const serve::FlowRecordFile file(path);
    const auto split = time_score_split(*artifact, cfg, file, batch, 64, &tracer, r);
    // The producer's stages per traced block against the figure they
    // decompose: the untraced blocks' wall time (flows / flows_per_s), from
    // blocks interleaved with the traced ones.
    const double stage_ms = read + admit + backoff + drain;
    const double untraced_ms = median(untraced_wall) * 1e3;
    const double stage_ratio = stage_ms / nb / untraced_ms;
    const double overhead = (median(traced_wall) / median(untraced_wall) - 1.0) * 100.0;
    const double n_batches = static_cast<double>(batches);
    const double reject_ratio =
        static_cast<double>(rejected) / static_cast<double>(attempts);
    const double restore_ms = time_restores({artifact}, cfg, &tracer);
    r.layer = {{"serve.read_us_per_batch", read * 1e3 / n_batches, "us"},
               {"serve.admit_us_per_batch", admit * 1e3 / n_batches, "us"},
               {"serve.backoff_ms", backoff / nb, "ms"},
               {"serve.reject_ratio", reject_ratio, "ratio"},
               {"serve.drain_ms", drain / nb, "ms"},
               {"serve.restore_replica_ms", restore_ms, "ms"},
               {"serve.adaptations", 0.0, "count"},
               {"serve.swaps", static_cast<double>(swaps), "count"},
               {"core.score_us_per_flow", split[0], "us"},
               {"nn.encode_us_per_flow", split[1], "us"},
               {"ml.pca_score_us_per_flow", split[2], "us"},
               {"trace.stage_sum_ratio", stage_ratio, "ratio"},
               {"trace.overhead_pct", overhead, "%"}};
    std::printf("trace: %zu traced blocks, %llu batches; rejected %llu of %llu "
                "attempts; backoff and drain are per block of %llu flows\n",
                traced.size(), static_cast<unsigned long long>(batches),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(attempts),
                static_cast<unsigned long long>(block_flows));
    std::printf("trace: stage sum read %.1f + admit %.1f + backoff %.1f + drain %.1f = "
                "%.1f ms over %.0f traced blocks, %.1f ms per block vs untraced block "
                "wall median %.1f ms (ratio %.4f; vs the traced blocks' own wall %.1f "
                "ms: %.4f)\n",
                read, admit, backoff, drain, stage_ms, nb, stage_ms / nb, untraced_ms,
                stage_ratio, wall, stage_ms / wall);
    std::printf("trace: overhead: traced block wall median %.4f s vs untraced %.4f s "
                "(%+.2f%%)\n",
                median(traced_wall), median(untraced_wall), overhead);
    const std::string trace_path = opt.work_dir + "/trace-serve_replay.jsonl";
    r.check("trace: spans written", tracer.write(trace_path), trace_path);
    r.put("trace_file", trace_path);
    if (!opt.self_test)
      r.check(kReplayStageCheck, std::fabs(stage_ratio - 1.0) <= kStageTolerance,
              std::to_string(stage_ratio));
  }
  return r;
}

Report run_serve_adapt(const RunOptions& opt) {
  Report r;
  // The schedule is fixed, whatever the time budget: 2000 flows/s in 32-row
  // batches for 30 s (60,000 flows, 1875 batches) with a round every 3,077
  // admitted flows. That keeps the stalled share of batches near a sixth
  // (rounds cost ~0.2-0.3 s per 3k buffered flows on 1 core), so the median
  // measures scoring and the tail measures the rounds, and gives the 1000+
  // samples p99 needs. Nineteen rounds, one every 1/19.5 of the schedule:
  // the 19 samples beyond p99 come about one from each round rather than
  // from the slowest few (with nine rounds of twice the size, p99 spread
  // 0.25 over ten seeds), and the last round lands early enough that later
  // batches carry (and shards load) its artifact. The self-test runs the
  // same shape for 2 s.
  const std::size_t batch = 32;
  const double rate = 2000.0;
  const std::size_t flows = opt.self_test ? 4000 : 60000;
  const std::size_t interval = opt.self_test ? 205 : 3077;
  const std::string path = opt.work_dir + "/serve_adapt.flows";
  const Stream st = synthesize(opt.seed, flows, path);
  const serve::ServiceConfig cfg = service_config(opt.seed, 1, interval);
  put_service_meta(r, cfg, batch, flows);
  r.put("loop", "open: fixed schedule, drain after each batch");
  r.put("offered_flows_per_s", rate);

  // Closed-loop capacity bursts on fresh services, half before the
  // schedules and half after, so that they and their set-ups sample both
  // ends of the run. Their capacity is printed with the run metadata, not
  // reported as flows_per_s: sampled at two moments only, it follows the
  // shared host's load at those moments (the median of the six spread 0.22
  // and 0.25 in two sets of ten seeds). With no bursts before it, the
  // schedule's latency_p50_ms read about 0.09 ms instead of 0.17 ms and
  // spread 0.27 over five seeds (cause not found), so they stay before it.
  Tally tally;
  std::vector<double> setup_s, fps;
  const std::size_t bursts = opt.self_test ? 2 : 6;
  const auto run_bursts = [&](std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
      Tally burst_tally;
      // 256-row batches: at the schedule's 32 rows the figure is dominated by
      // thread hand-offs and swings with host scheduling.
      const Producer p = burst(path, st, cfg, 256, 8, r, burst_tally);
      r.attempted += p.flows;
      tally.verified += burst_tally.verified;
      setup_s.push_back(ns_to_s(p.setup_ns));
      fps.push_back(static_cast<double>(p.flows) /
                    ns_to_s(p.drained_ns - p.first_submit_ns));
    }
  };
  run_bursts(bursts / 2);

  // Whole schedules, each on a fresh service, until the budget is spent.
  // flows_per_s is the trainer's throughput: the flows the rounds trained
  // on (those admitted up to the last round) per second spent in rounds.
  // The offered rate is fixed by the schedule; this is not, and its rounds
  // are spread over the whole schedule, so one phase of a shared host's load
  // does not carry it.
  Schedule s;
  std::size_t schedules = 0;
  double trained_flows = 0, round_time_s = 0;
  const std::int64_t t_begin = now_ns();
  do {
    Schedule one = run_schedule(path, st, cfg, batch, rate, nullptr, r, tally);
    r.attempted += one.p.flows;
    setup_s.push_back(ns_to_s(one.p.setup_ns));
    if (!one.round_end.empty())
      trained_flows += static_cast<double>(one.round_end.back());
    round_time_s += sum(one.round_s);
    if (schedules++ == 0) {
      s = std::move(one);
      continue;
    }
    s.latency_ms.insert(s.latency_ms.end(), one.latency_ms.begin(), one.latency_ms.end());
    s.lateness_ms.insert(s.lateness_ms.end(), one.lateness_ms.begin(),
                         one.lateness_ms.end());
    s.round_s.insert(s.round_s.end(), one.round_s.begin(), one.round_s.end());
  } while (ns_to_s(now_ns() - t_begin) < opt.seconds);
  r.put("schedules", static_cast<double>(schedules));
  run_bursts(bursts - bursts / 2);
  r.failed = r.attempted - tally.verified;
  const double p50 = order_stat(s.latency_ms, 0.5);
  const double p99 = order_stat(s.latency_ms, 0.99);
  const std::size_t beyond = samples_beyond(s.latency_ms.size(), 0.99);
  const double train_fps = trained_flows / round_time_s;
  add_e2e(r, median(setup_s), train_fps, p50, p99, median(s.round_s), tally.f1());
  r.put("burst_capacity_flows_per_s", median(fps));
  r.put("generator_lateness_max_ms", order_stat(s.lateness_ms, 1.0));
  r.put("generator_lateness_p99_ms", order_stat(s.lateness_ms, 0.99));
  r.put("rounds_per_schedule", static_cast<double>(s.adaptations));
  std::printf("serve_adapt: latency quantiles (ms):");
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.9, 0.99})
    std::printf(" p%g %.4f", q * 100, order_stat(s.latency_ms, q));
  std::printf("\n");
  std::size_t stalled = 0;
  for (double l : s.latency_ms) stalled += static_cast<std::size_t>(l > 10.0 * p50);
  std::printf("serve_adapt: %zu batches, latency p50 %.4f ms p99 %.4f ms (%zu beyond "
              "p99); %zu batches over 10x p50; %zu rounds over %zu schedule(s), median "
              "%.4f s; generator lateness p99 %.4f ms max %.4f ms; rounds trained on %.0f "
              "flows in %.4f s (%.0f flows/s); burst capacity %.0f flows/s over %zu "
              "bursts\n",
              s.latency_ms.size(), p50, p99, beyond, stalled, s.round_s.size(), schedules,
              median(s.round_s),
              order_stat(s.lateness_ms, 0.99), order_stat(s.lateness_ms, 1.0),
              trained_flows, round_time_s, train_fps, median(fps), bursts);
  if (!opt.self_test)
    r.check("serve_adapt: at least 10 latency samples beyond p99", beyond >= 10,
            std::to_string(beyond));

  if (opt.trace) {
    Tracer tracer;
    Tally traced_tally;
    const Schedule ts =
        run_schedule(path, st, cfg, batch, rate, &tracer, r, traced_tally);
    r.attempted += ts.p.flows;
    r.failed += ts.p.flows - traced_tally.verified;
    const ShadowOut sh = shadow_rounds(path, st, cfg, ts, &tracer, r);
    const serve::FlowRecordFile file(path);
    const auto split =
        time_score_split(*ts.artifacts.back(), cfg, file, batch, 256, &tracer, r);
    const double nb = static_cast<double>(ts.p.admits);
    const double rounds = static_cast<double>(sh.rounds);
    // The stages are timed on the composed rounds; the figure they decompose
    // is the service's own rounds (try_submit calls that ran one) in the same
    // traced schedule. The ratio is reported, not checked: the same round,
    // with bit-identical results, took 0.8 to 1.6 times as long in the
    // composed re-run as in the service, and a schedule's sum of rounds
    // 0.94 to 1.24 times with nine rounds of 6,316 flows (4-vCPU VM, shared
    // host; 0.92 in one run of the nineteen rounds of 3,077 used now).
    const double service_round_ms = sum(ts.round_s) * 1e3;
    const double stage_ratio = sh.round_ms / service_round_ms;
    const double traced_p50 = order_stat(ts.latency_ms, 0.5);
    const double overhead = (traced_p50 / p50 - 1.0) * 100.0;
    const double read_us = ts.p.read_ms * 1e3 / static_cast<double>(ts.batches);
    const double reject_ratio =
        static_cast<double>(ts.p.rejected) / static_cast<double>(ts.p.attempts);
    const double drain_ms = ts.p.drain_ms / static_cast<double>(ts.p.drains);
    const double restore_ms = time_restores(ts.artifacts, cfg, &tracer);
    r.layer = {{"serve.read_us_per_batch", read_us, "us"},
               {"serve.admit_us_per_batch", ts.p.admit_ms * 1e3 / nb, "us"},
               {"serve.backoff_ms", ts.p.backoff_ms, "ms"},
               {"serve.reject_ratio", reject_ratio, "ratio"},
               {"serve.drain_ms", drain_ms, "ms"},
               {"serve.restore_replica_ms", restore_ms, "ms"},
               {"serve.adaptations", static_cast<double>(ts.adaptations), "count"},
               {"serve.swaps", static_cast<double>(ts.swaps), "count"},
               {"core.score_us_per_flow", split[0], "us"},
               {"nn.encode_us_per_flow", split[1], "us"},
               {"ml.pca_score_us_per_flow", split[2], "us"},
               {"core.cfe_fit_ms", sh.cfe_fit_ms / rounds, "ms"},
               {"core.pseudo_label_ms", sh.pseudo_ms / rounds, "ms"},
               {"core.pseudo_k", sh.pseudo_k / rounds, "count"},
               {"core.cfe_steps", sh.cfe_steps / rounds, "count"},
               {"ml.pca_fit_ms", sh.pca_fit_ms / rounds, "ms"},
               {"linalg.covariance_ms", sh.split.covariance_ms / rounds, "ms"},
               {"linalg.eigen_ms", sh.split.eigen_ms / rounds, "ms"},
               {"linalg.eigen_dim", static_cast<double>(sh.split.dim), "count"},
               {"eval.pot_ms", sh.pot_ms / rounds, "ms"},
               {"io.snapshot_ms", sh.snapshot_ms / rounds, "ms"},
               {"trace.stage_sum_ratio", stage_ratio, "ratio"},
               {"trace.overhead_pct", overhead, "%"}};
    std::printf("trace: %zu batches (%llu admits without a round), %llu rejected of "
                "%llu attempts; backoff is the schedule's total; per-round figures are "
                "means over %zu rounds\n",
                ts.batches, static_cast<unsigned long long>(ts.p.admits),
                static_cast<unsigned long long>(ts.p.rejected),
                static_cast<unsigned long long>(ts.p.attempts), sh.rounds);
    std::printf("trace: round split cfe_fit %.1f + encode_clean %.1f + pca_fit %.1f "
                "+ score_clean %.1f + pot %.1f + snapshot %.1f = %.1f ms vs the "
                "service's traced rounds %.1f ms (ratio %.4f; vs the composed rounds' "
                "own wall %.1f ms: %.4f)\n",
                sh.cfe_fit_ms, sh.encode_ms, sh.pca_fit_ms, sh.score_ms, sh.pot_ms,
                sh.snapshot_ms, sh.round_ms, service_round_ms, stage_ratio, sh.wall_ms,
                sh.round_ms / sh.wall_ms);
    const double untraced_rounds_ms = median(s.round_s) * 1e3 * rounds;
    std::printf("trace: round split vs the untraced rounds (adapt_round_s x rounds) "
                "%.1f ms: ratio %.4f\n",
                untraced_rounds_ms, sh.round_ms / untraced_rounds_ms);
    std::printf("trace: overhead: traced latency p50 %.4f ms vs untraced %.4f ms "
                "(%+.2f%%)\n",
                traced_p50, p50, overhead);
    const std::string trace_path = opt.work_dir + "/trace-serve_adapt.jsonl";
    r.check("trace: spans written", tracer.write(trace_path), trace_path);
    r.put("trace_file", trace_path);
    r.check("serve_adapt: traced schedule ran the same rounds",
            ts.adaptations == s.adaptations);
  }
  return r;
}

}  // namespace perfbench
