// Serving layer tests: flow-record files, the admission queue, artifact
// snapshot/restore byte-identity, and hot-swap under load (docs/SERVING.md).
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "core/detector_factory.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/artifact.hpp"
#include "serve/flow_record.hpp"
#include "serve/ring_buffer.hpp"
#include "serve/service.hpp"
#include "tensor/rng.hpp"

namespace cnd {
namespace {

Matrix gaussian(Rng& rng, std::size_t n, std::size_t d, double shift = 0.0) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < d; ++j)
      x(i, j) = rng.normal(j == 0 ? shift : 0.0, 1.0);
  return x;
}

/// Small-but-real training config so every test trains in milliseconds.
core::DetectorConfig tiny_cfg(std::uint64_t seed = 11) {
  core::DetectorConfig cfg;
  cfg.seed = seed;
  cfg.cnd.seed = seed;
  cfg.cnd.cfe.hidden_dim = 16;
  cfg.cnd.cfe.latent_dim = 8;
  cfg.cnd.cfe.epochs = 2;
  cfg.cnd.cfe.kmeans_k = 2;
  return cfg;
}

void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]))
        << "score " << i << " differs: " << a[i] << " vs " << b[i];
}

// ---- FlowRecordFile / FlowRecordWriter --------------------------------------

TEST(FlowRecord, RoundTripsThroughFile) {
  Rng rng(1);
  const Matrix x = gaussian(rng, 37, 5);
  const std::string path = "test_flow_record.bin";
  {
    serve::FlowRecordWriter w(path, 5);
    w.append(x);
    EXPECT_EQ(w.rows_written(), 37u);
    w.close();
  }
  serve::FlowRecordFile f(path);
  EXPECT_EQ(f.rows(), 37u);
  EXPECT_EQ(f.dim(), 5u);
  // The payload is float32: reading back widens the narrowed value exactly.
  for (std::size_t i = 0; i < f.rows(); ++i) {
    const auto row = f.row(i);
    for (std::size_t j = 0; j < f.dim(); ++j)
      EXPECT_EQ(static_cast<double>(row[j]),
                static_cast<double>(static_cast<float>(x(i, j))));
  }
  Matrix batch;
  f.copy_rows_into(10, 20, batch);
  ASSERT_EQ(batch.rows(), 10u);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(batch(i, 3), static_cast<double>(f.row(10 + i)[3]));
  std::remove(path.c_str());
}

TEST(FlowRecord, RejectsGarbageAndTruncation) {
  const std::string path = "test_flow_bad.bin";
  {
    std::FILE* fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fputs("not a flow record at all........", fp);
    std::fclose(fp);
  }
  EXPECT_THROW(serve::FlowRecordFile{path}, std::invalid_argument);

  // Headers whose row count the payload cannot hold. dim=40, count=2^59 is
  // a 20-byte file whose count * dim * sizeof(float) wraps to exactly 0.
  const auto write_raw = [&](std::uint32_t dim, std::uint64_t count,
                             std::size_t payload_floats) {
    std::FILE* fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    const std::uint32_t magic = serve::kFlowMagic, version = serve::kFlowVersion;
    std::fwrite(&magic, 4, 1, fp);
    std::fwrite(&version, 4, 1, fp);
    std::fwrite(&dim, 4, 1, fp);
    std::fwrite(&count, 8, 1, fp);
    const std::vector<float> payload(payload_floats, 1.0f);
    std::fwrite(payload.data(), sizeof(float), payload.size(), fp);
    std::fclose(fp);
  };
  write_raw(40, std::uint64_t{1} << 59, 0);
  EXPECT_THROW(serve::FlowRecordFile{path}, std::invalid_argument);
  write_raw(3, 4, 3 * 3);  // one row past the payload
  EXPECT_THROW(serve::FlowRecordFile{path}, std::invalid_argument);
  write_raw(3, 3, 3 * 3);  // exactly the payload: accepted
  EXPECT_EQ(serve::FlowRecordFile{path}.rows(), 3u);
  std::remove(path.c_str());
  EXPECT_THROW(serve::FlowRecordFile{"no_such_file.bin"}, std::runtime_error);
}

TEST(FlowRecord, WriterRejectsMismatchedWidth) {
  serve::FlowRecordWriter w("test_flow_w.bin", 4);
  Rng rng(2);
  EXPECT_THROW(w.append(gaussian(rng, 3, 5)), std::invalid_argument);
  w.close();
  std::remove("test_flow_w.bin");
}

// ---- RingBuffer -------------------------------------------------------------

TEST(RingBuffer, RejectsWhenFullNeverBlocks) {
  serve::RingBuffer<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: reject, do not block
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_TRUE(q.try_push(3));  // slot freed
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(RingBuffer, CloseDrainsThenSignalsShutdown) {
  serve::RingBuffer<int> q(4);
  EXPECT_TRUE(q.try_push(7));
  q.close();
  EXPECT_FALSE(q.try_push(8));        // closed: no more admissions
  EXPECT_EQ(q.pop().value(), 7);      // existing items drain
  EXPECT_FALSE(q.pop().has_value());  // then shutdown
}

TEST(RingBuffer, PopBlocksUntilPush) {
  serve::RingBuffer<int> q(1);
  std::thread consumer([&] { EXPECT_EQ(q.pop().value(), 42); });
  EXPECT_TRUE(q.try_push(42));
  consumer.join();
}

TEST(RingBuffer, CapacityOneAlternatesPushPop) {
  serve::RingBuffer<int> q(1);
  EXPECT_EQ(q.capacity(), 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.try_push(i));
    EXPECT_FALSE(q.try_push(i + 100));  // a single slot: second push rejects
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.pop().value(), i);
    EXPECT_EQ(q.size(), 0u);
  }
}

TEST(RingBuffer, FullWraparoundPreservesFifoOrder) {
  // Interleave pushes and pops so head_ crosses the index wrap several
  // times; FIFO order must hold throughout.
  serve::RingBuffer<int> q(3);
  int next = 0, expect = 0;
  for (int round = 0; round < 4; ++round) {
    while (q.try_push(next)) ++next;  // fill to capacity
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.pop().value(), expect++);  // free one slot across the wrap
    EXPECT_EQ(q.pop().value(), expect++);
    EXPECT_TRUE(q.try_push(next++));  // re-admit into the wrapped slot
  }
  while (q.size() > 0) EXPECT_EQ(q.pop().value(), expect++);
  EXPECT_EQ(next, expect);  // every admitted item came out, in order
}

TEST(RingBuffer, TryPushAfterDrainingClosedBufferStillRejects) {
  serve::RingBuffer<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  q.close();
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());  // drained + closed: shutdown signal
  // Capacity is available again, but closed wins: admission stays shut.
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.size(), 0u);
}

// ---- Snapshot/restore byte-identity across the registry ---------------------

// Every snapshot-capable registry detector must restore to a replica that
// scores byte-identically at any thread count; every other detector must
// refuse loudly. This test IS the registry-coverage sweep: a new detector
// either lands in the capable set and round-trips, or throws.
TEST(Snapshot, RegistryRoundTripsByteIdenticalAt1And4Threads) {
  Rng rng(3);
  const Matrix n_clean = gaussian(rng, 96, 6);
  const Matrix stream = gaussian(rng, 64, 6, 0.5);
  const Matrix x_test = gaussian(rng, 48, 6, 2.0);

  std::size_t capable = 0;
  for (const std::string& name : core::detector_names()) {
    auto det = core::make_detector(name, tiny_cfg());
    if (!det->supports_snapshot()) {
      std::ostringstream os;
      EXPECT_THROW(det->snapshot(os), std::logic_error) << name;
      continue;
    }
    ++capable;
    Matrix seed_x;
    std::vector<int> seed_y;
    det->setup(core::SetupContext{n_clean, seed_x, seed_y});
    det->observe_experience(stream);
    const std::vector<double> want = det->score(x_test);

    std::ostringstream os(std::ios::binary);
    det->snapshot(os);
    const std::string bytes = std::move(os).str();

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      runtime::set_threads(threads);
      auto replica = core::make_detector(name, tiny_cfg());
      std::istringstream is(bytes, std::ios::binary);
      replica->restore(is);
      expect_bits_equal(want, replica->score(x_test));
      // A replica's own snapshot reproduces the artifact bit-for-bit:
      // snapshot ∘ restore is idempotent.
      std::ostringstream os2(std::ios::binary);
      replica->snapshot(os2);
      EXPECT_EQ(bytes, std::move(os2).str()) << name;
    }
    runtime::set_threads(0);
  }
  EXPECT_GE(capable, 1u);  // CND-IDS at minimum
}

TEST(Snapshot, RestoredReplicaIsInferenceOnly) {
  Rng rng(4);
  const Matrix n_clean = gaussian(rng, 96, 6);
  auto det = core::make_detector("CND-IDS", tiny_cfg());
  Matrix seed_x;
  std::vector<int> seed_y;
  det->setup(core::SetupContext{n_clean, seed_x, seed_y});
  det->observe_experience(n_clean);

  const auto artifact = serve::make_artifact(1, "CND-IDS", 0.5, *det);
  auto replica = serve::restore_replica(*artifact, tiny_cfg());
  EXPECT_THROW(replica->observe_experience(n_clean), std::logic_error);
  // The trainer that produced the snapshot keeps training.
  EXPECT_NO_THROW(det->observe_experience(n_clean));
}

TEST(Snapshot, ArtifactFileRoundTrip) {
  Rng rng(5);
  const Matrix n_clean = gaussian(rng, 96, 6);
  auto det = core::make_detector("CND-IDS", tiny_cfg());
  Matrix seed_x;
  std::vector<int> seed_y;
  det->setup(core::SetupContext{n_clean, seed_x, seed_y});
  det->observe_experience(n_clean);

  const auto artifact = serve::make_artifact(3, "CND-IDS", 1.25, *det);
  const std::string path = "test_artifact.bin";
  serve::save_artifact(path, *artifact);
  const serve::ServingArtifact loaded = serve::load_artifact(path);
  EXPECT_EQ(loaded.version, 3u);
  EXPECT_EQ(loaded.detector, "CND-IDS");
  EXPECT_EQ(loaded.threshold, 1.25);
  EXPECT_EQ(loaded.model_bytes, artifact->model_bytes);

  const Matrix x_test = gaussian(rng, 32, 6, 1.0);
  expect_bits_equal(det->score(x_test),
                    serve::restore_replica(loaded, tiny_cfg())->score(x_test));

  // A missing file and every truncation of a real one are refused.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::remove(path.c_str());
  EXPECT_THROW(serve::load_artifact(path), std::runtime_error);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{10}, bytes.size() / 2,
                                bytes.size() - 1}) {
    {
      std::ofstream out(path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    EXPECT_THROW(serve::load_artifact(path), std::runtime_error) << "cut " << cut;
  }
  std::remove(path.c_str());
}

TEST(Snapshot, ArtifactFileRoundTripsAWideModel) {
  // 1,122,464 model bytes: what `cnd snapshot` writes for a 240-feature CSV.
  serve::ServingArtifact a;
  a.version = 2;
  a.detector = "CND-IDS";
  a.threshold = 210.8;
  a.model_bytes.resize(1122464);
  for (std::size_t i = 0; i < a.model_bytes.size(); ++i)
    a.model_bytes[i] = static_cast<char>(i * 131 % 251);
  const std::string path = "test_artifact_wide.bin";
  serve::save_artifact(path, a);
  const serve::ServingArtifact loaded = serve::load_artifact(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.version, 2u);
  EXPECT_EQ(loaded.detector, "CND-IDS");
  EXPECT_EQ(loaded.threshold, 210.8);
  EXPECT_EQ(loaded.model_bytes, a.model_bytes);
}

// ---- ScoringService ---------------------------------------------------------

serve::ServiceConfig tiny_service(std::size_t shards, std::size_t adapt_every = 0) {
  serve::ServiceConfig cfg;
  cfg.detector = "CND-IDS";
  cfg.detector_cfg = tiny_cfg();
  cfg.shards = shards;
  cfg.queue_capacity = 4;
  cfg.adapt_interval_flows = adapt_every;
  cfg.release_scored_inputs = false;
  return cfg;
}

TEST(ScoringService, SubmitBeforeBootstrapThrows) {
  serve::ScoringService svc(tiny_service(1));
  EXPECT_THROW(svc.try_submit(Matrix(4, 6, 0.0)), std::logic_error);
}

TEST(ScoringService, RefusesNonFiniteBatchAndCountsIt) {
  Rng rng(12);
  serve::ScoringService svc(tiny_service(1));
  svc.bootstrap(gaussian(rng, 96, 6));
  obs::Counter& refused =
      obs::metrics().counter("serve.rejected_nonfinite_total");
  const std::uint64_t before = refused.value();

  // Attack rows far from the clean window are flagged while finite. One
  // NaN feature used to collapse the encoder's ReLU latent and score the
  // row as normal; a non-finite value is now refused at admission.
  const Matrix attack = gaussian(rng, 10, 6, 40.0);
  ASSERT_TRUE(svc.try_submit(attack));
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Matrix evasive = attack;
    evasive(3, 2) = bad;
    EXPECT_THROW(svc.try_submit(evasive), std::invalid_argument);
  }
  // A width mismatch and an empty batch are refused too, but are not
  // non-finite refusals.
  EXPECT_THROW(svc.try_submit(gaussian(rng, 8, 7)), std::invalid_argument);
  EXPECT_THROW(svc.try_submit(Matrix()), std::invalid_argument);
  EXPECT_EQ(refused.value() - before, 3u);
  svc.drain();
  ASSERT_EQ(svc.results().size(), 1u);  // a refusal leaves no slot behind
  for (const int v : svc.results()[0].verdicts) EXPECT_EQ(v, 1);

  // Normal traffic stays below a 20% alarm rate at the calibrated threshold.
  for (int b = 0; b < 4; ++b) {
    const Matrix normal = gaussian(rng, 48, 6);
    while (!svc.try_submit(normal)) std::this_thread::yield();
  }
  svc.drain();
  ASSERT_EQ(svc.results().size(), 5u);
  std::size_t alarms = 0;
  for (std::size_t b = 1; b < 5; ++b)
    for (const int v : svc.results()[b].verdicts) alarms += static_cast<std::size_t>(v);
  EXPECT_LT(static_cast<double>(alarms) / (4.0 * 48.0), 0.2);
  svc.shutdown();
}

TEST(ScoringService, RejectsNonSnapshotDetector) {
  serve::ServiceConfig cfg = tiny_service(1);
  cfg.detector = "PCA";
  serve::ScoringService svc(cfg);
  Rng rng(6);
  EXPECT_THROW(svc.bootstrap(gaussian(rng, 96, 6)), std::invalid_argument);
}

/// Run `n_batches` batches through a service and return the concatenated
/// scores (admission order). Retries rejected submissions so the scored set
/// is the full stream regardless of queue pressure.
std::vector<double> run_service(const serve::ServiceConfig& cfg,
                                const Matrix& n_clean,
                                const std::vector<Matrix>& batches) {
  serve::ScoringService svc(cfg);
  svc.bootstrap(n_clean);
  for (const Matrix& b : batches)
    while (!svc.try_submit(b)) std::this_thread::yield();
  svc.drain();
  svc.shutdown();
  std::vector<double> scores;
  for (const auto& r : svc.results())
    scores.insert(scores.end(), r.scores.begin(), r.scores.end());
  return scores;
}

TEST(ScoringService, ScoresMatchTrainerWithoutAdaptation) {
  Rng rng(7);
  const Matrix n_clean = gaussian(rng, 96, 6);
  std::vector<Matrix> batches;
  for (int b = 0; b < 6; ++b) batches.push_back(gaussian(rng, 32, 6, 0.8));

  // Reference: the never-swapped detector, trained exactly like the
  // service's trainer and scoring the same batches directly.
  auto ref = core::make_detector("CND-IDS", tiny_cfg());
  Matrix seed_x;
  std::vector<int> seed_y;
  ref->setup(core::SetupContext{n_clean, seed_x, seed_y});
  ref->observe_experience(n_clean);
  std::vector<double> want;
  for (const Matrix& b : batches) {
    const auto s = ref->score(b);
    want.insert(want.end(), s.begin(), s.end());
  }

  expect_bits_equal(want, run_service(tiny_service(1), n_clean, batches));
  expect_bits_equal(want, run_service(tiny_service(3), n_clean, batches));
}

TEST(ScoringService, ShardCountNeverChangesScoresUnderHotSwap) {
  Rng rng(8);
  const Matrix n_clean = gaussian(rng, 96, 6);
  std::vector<Matrix> batches;
  for (int b = 0; b < 10; ++b) batches.push_back(gaussian(rng, 32, 6, 0.5));

  // Adaptation every 96 admitted flows: several hot swaps mid-stream.
  const auto one = run_service(tiny_service(1, 96), n_clean, batches);
  const auto four = run_service(tiny_service(4, 96), n_clean, batches);
  expect_bits_equal(one, four);
}

TEST(ScoringService, AdaptationPublishesNewVersionsAndSwapsReplicas) {
  Rng rng(9);
  const Matrix n_clean = gaussian(rng, 96, 6);
  auto sink = std::make_shared<obs::MemorySink>();
  obs::events().set_sink(sink);
  serve::ScoringService svc(tiny_service(2, 64));
  svc.bootstrap(n_clean);
  EXPECT_EQ(svc.artifact_version(), 1u);
  for (int b = 0; b < 8; ++b) {
    const Matrix batch = gaussian(rng, 32, 6, 0.3);
    while (!svc.try_submit(batch)) std::this_thread::yield();
  }
  svc.drain();
  svc.shutdown();
  obs::events().set_sink(nullptr);
  std::size_t bootstraps = 0, rounds = 0;
  for (const std::string& l : sink->lines()) {
    bootstraps += l.find("\"event\":\"serve.bootstrap\"") != std::string::npos;
    rounds += l.find("\"event\":\"serve.adaptation\"") != std::string::npos;
  }
  EXPECT_EQ(bootstraps, 1u);
  EXPECT_EQ(rounds, 4u);
  EXPECT_EQ(svc.adaptations(), 4u);  // 256 flows / 64 per round
  EXPECT_EQ(svc.artifact_version(), 5u);
  // Batches carry versions v1..v4 (v5 is published after the last batch),
  // and loading each version some worker actually scores with is a swap.
  // Which shard pops which batch is timing, so only the single-worker floor
  // is guaranteed: one shard consuming everything swaps exactly 4 times.
  EXPECT_GE(svc.swaps(), 4u);
  EXPECT_EQ(svc.flows_admitted(), 256u);
  ASSERT_EQ(svc.results().size(), 8u);
  for (const auto& r : svc.results()) EXPECT_EQ(r.scores.size(), 32u);
}

// Hot-swap under sustained load: small queue, real backpressure, several
// adaptation rounds, four shards swapping replicas while scoring. The TSan
// CI job runs this binary; any producer/worker race surfaces here.
TEST(ScoringService, HotSwapUnderLoadIsRaceFree) {
  Rng rng(10);
  const Matrix n_clean = gaussian(rng, 96, 6);
  serve::ServiceConfig cfg = tiny_service(4, 128);
  cfg.queue_capacity = 2;
  cfg.release_scored_inputs = true;
  serve::ScoringService svc(cfg);
  svc.bootstrap(n_clean);
  std::size_t rejected_retries = 0;
  for (int b = 0; b < 24; ++b) {
    const Matrix batch = gaussian(rng, 32, 6, 0.4);
    while (!svc.try_submit(batch)) {
      ++rejected_retries;
      std::this_thread::yield();
    }
  }
  svc.drain();
  svc.shutdown();
  EXPECT_EQ(svc.flows_admitted(), 24u * 32u);
  EXPECT_EQ(svc.rejected(), rejected_retries);
  EXPECT_EQ(svc.adaptations(), 6u);
  for (const auto& r : svc.results()) {
    ASSERT_EQ(r.scores.size(), 32u);
    ASSERT_EQ(r.verdicts.size(), 32u);
    EXPECT_EQ(r.input.rows(), 0u);  // released after scoring
  }
}

}  // namespace
}  // namespace cnd
