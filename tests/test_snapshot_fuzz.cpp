// Negative snapshot tests across the whole detector registry: a truncated
// stream, a payload under another detector's tag, or a bit-flipped payload
// must throw cleanly from restore() — and must not half-mutate the
// detector. The checksummed envelope (io::binary v2) is what makes the
// bit-flip sweep airtight: the payload is buffered and verified before any
// member moves. The io::binary primitives the envelope is built from are
// round-tripped here too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/detector_factory.hpp"
#include "io/binary.hpp"
#include "tensor/rng.hpp"

// Allocation probe: the largest single operator new request since the last
// reset. Requests over 256 MiB fail with bad_alloc instead of committing
// memory, so a reader that trusts a hostile length prefix throws the wrong
// error rather than taking the machine's memory. Every form below allocates
// with malloc, so GCC's new/free mismatch warning is a false positive here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::size_t> g_largest_new{0};
}  // namespace

void* operator new(std::size_t n) {
  std::size_t seen = g_largest_new.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_new.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  if (n > (std::size_t{1} << 28)) throw std::bad_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cnd {
namespace {

Matrix gaussian(Rng& rng, std::size_t n, std::size_t d, double shift = 0.0) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < d; ++j)
      x(i, j) = rng.normal(j == 0 ? shift : 0.0, 1.0);
  return x;
}

/// Small-but-real training config so every detector trains in milliseconds.
core::DetectorConfig tiny_cfg(std::uint64_t seed = 17) {
  core::DetectorConfig cfg;
  cfg.seed = seed;
  cfg.cnd.seed = seed;
  cfg.cnd.cfe.hidden_dim = 16;
  cfg.cnd.cfe.latent_dim = 8;
  cfg.cnd.cfe.epochs = 2;
  cfg.cnd.cfe.kmeans_k = 2;
  return cfg;
}

struct Trained {
  std::string name;
  std::string bytes;            // the valid snapshot artifact
  std::vector<double> want;     // scores of the trainer on x_test
};

/// Trains every supports_snapshot() registry detector once and snapshots it.
/// The sweep below runs against this list, so a new snapshot-capable
/// detector is covered the day it lands in the registry.
std::vector<Trained> train_capable(const Matrix& n_clean, const Matrix& stream,
                                   const Matrix& x_test) {
  std::vector<Trained> out;
  for (const std::string& name : core::detector_names()) {
    auto det = core::make_detector(name, tiny_cfg());
    if (!det->supports_snapshot()) continue;
    Matrix seed_x;
    std::vector<int> seed_y;
    det->setup(core::SetupContext{n_clean, seed_x, seed_y});
    det->observe_experience(stream);
    std::ostringstream os(std::ios::binary);
    det->snapshot(os);
    out.push_back({name, std::move(os).str(), det->score(x_test)});
  }
  return out;
}

void expect_restore_throws(const std::string& name, const std::string& bytes) {
  auto replica = core::make_detector(name, tiny_cfg());
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW(replica->restore(is), std::exception) << name;
}

// ---- io::binary primitives --------------------------------------------------

TEST(BinaryIo, PrimitiveRoundTrip) {
  const std::string path = "test_bin_prim.bin";
  {
    std::ofstream f(path, std::ios::binary);
    io::write_header(f);
    io::write_u64(f, 12345);
    io::write_f64(f, 3.14159);
    io::write_string(f, "hello artifact");
    io::write_vec(f, {1.0, 2.5, -3.0});
    io::write_matrix(f, Matrix{{1, 2}, {3, 4}});
  }
  std::ifstream f(path, std::ios::binary);
  io::read_header(f);
  EXPECT_EQ(io::read_u64(f), 12345u);
  EXPECT_DOUBLE_EQ(io::read_f64(f), 3.14159);
  EXPECT_EQ(io::read_string(f), "hello artifact");
  EXPECT_EQ(io::read_vec(f), (std::vector<double>{1.0, 2.5, -3.0}));
  Matrix m = io::read_matrix(f);
  EXPECT_EQ(m(1, 1), 4.0);
  std::remove(path.c_str());
}

/// Read `bytes` with `read` and expect the one length check's refusal,
/// without any allocation near the claimed size.
template <typename Read>
void expect_refused_before_alloc(const std::string& bytes, Read read) {
  std::istringstream is(bytes, std::ios::binary);
  g_largest_new.store(0);
  try {
    read(is);
    ADD_FAILURE() << "hostile length accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bytes left in the stream"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(g_largest_new.load(), std::size_t{1} << 20);
}

TEST(BinaryIo, HostileLengthIsRefusedBeforeAllocating) {
  // A short envelope claiming a 512 MiB payload.
  std::ostringstream env(std::ios::binary);
  io::write_header(env);
  io::write_u64(env, 7);
  io::write_u64(env, std::uint64_t{1} << 29);
  env << "short";
  expect_refused_before_alloc(env.str(), [](std::istream& is) {
    io::read_envelope(is, 7, "Probe");
  });

  // Every length-prefixed primitive: string, vector, matrix.
  auto prefixed = [](std::initializer_list<std::uint64_t> lengths) {
    std::ostringstream os(std::ios::binary);
    for (const std::uint64_t n : lengths) io::write_u64(os, n);
    os << "tail";
    return os.str();
  };
  expect_refused_before_alloc(prefixed({std::uint64_t{1} << 40}),
                              [](std::istream& is) { io::read_string(is); });
  expect_refused_before_alloc(prefixed({std::uint64_t{1} << 27}),
                              [](std::istream& is) { io::read_vec(is); });
  expect_refused_before_alloc(
      prefixed({std::uint64_t{1} << 20, std::uint64_t{1} << 20}),
      [](std::istream& is) { io::read_matrix(is); });
}

TEST(BinaryIo, RejectsWrongMagic) {
  const std::string path = "test_bin_bad.bin";
  {
    std::ofstream f(path, std::ios::binary);
    const std::uint32_t junk = 0xDEADBEEF;
    f.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
    f.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  }
  std::ifstream f(path, std::ios::binary);
  EXPECT_THROW(io::read_header(f), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SnapshotFuzz, Fnv1a64MatchesReferenceVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(io::fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(io::fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(io::fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

TEST(SnapshotFuzz, TruncatedStreamThrowsAtEveryCut) {
  Rng rng(5);
  const Matrix n_clean = gaussian(rng, 96, 6);
  const Matrix stream = gaussian(rng, 64, 6, 0.5);
  const Matrix x_test = gaussian(rng, 48, 6, 2.0);
  const auto capable = train_capable(n_clean, stream, x_test);
  ASSERT_GE(capable.size(), 1u);  // CND-IDS at minimum

  for (const Trained& t : capable) {
    ASSERT_GT(t.bytes.size(), 16u) << t.name;
    // Cuts through every region: empty, mid-header, mid-tag, mid-payload,
    // and one byte short of complete (drops into the checksum field).
    const std::size_t cuts[] = {0, 3, 11, t.bytes.size() / 2,
                                t.bytes.size() - 1};
    for (const std::size_t cut : cuts) {
      SCOPED_TRACE(t.name + " cut at " + std::to_string(cut));
      expect_restore_throws(t.name, t.bytes.substr(0, cut));
    }
  }
}

// A valid payload re-wrapped under a foreign detector tag carries an intact
// checksum, so only the tag check stands between it and a mis-load: every
// snapshot-capable detector must refuse every foreign tag by name.
TEST(SnapshotFuzz, WrongDetectorTagThrowsForEveryPair) {
  Rng rng(6);
  const Matrix n_clean = gaussian(rng, 96, 6);
  const Matrix stream = gaussian(rng, 64, 6, 0.5);
  const Matrix x_test = gaussian(rng, 48, 6, 2.0);
  const auto capable = train_capable(n_clean, stream, x_test);
  ASSERT_GE(capable.size(), 1u);  // CND-IDS at minimum

  for (const Trained& t : capable) {
    std::istringstream head(t.bytes, std::ios::binary);
    io::read_header(head);
    const std::uint64_t own_tag = io::read_u64(head);
    std::istringstream whole(t.bytes, std::ios::binary);
    const std::string payload = io::read_envelope(whole, own_tag, "probe");

    for (const std::uint64_t tag :
         {std::uint64_t{0}, own_tag + 1, own_tag + 2, ~std::uint64_t{0}}) {
      SCOPED_TRACE(t.name + " payload under tag " + std::to_string(tag));
      std::ostringstream forged(std::ios::binary);
      io::write_envelope(forged, tag, payload);
      auto replica = core::make_detector(t.name, tiny_cfg());
      std::istringstream is(std::move(forged).str(), std::ios::binary);
      try {
        replica->restore(is);
        ADD_FAILURE() << "foreign tag accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("another detector's snapshot"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(SnapshotFuzz, BitFlippedPayloadThrowsEverywhere) {
  Rng rng(7);
  const Matrix n_clean = gaussian(rng, 96, 6);
  const Matrix stream = gaussian(rng, 64, 6, 0.5);
  const Matrix x_test = gaussian(rng, 48, 6, 2.0);
  const auto capable = train_capable(n_clean, stream, x_test);
  ASSERT_GE(capable.size(), 1u);

  for (const Trained& t : capable) {
    // A single flipped bit anywhere — header, tag, length, payload, or
    // checksum — must be rejected. Stride keeps the sweep fast while still
    // hitting every field of the envelope.
    for (std::size_t pos = 0; pos < t.bytes.size(); pos += 7) {
      std::string corrupt = t.bytes;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
      SCOPED_TRACE(t.name + " flip at byte " + std::to_string(pos));
      expect_restore_throws(t.name, corrupt);
    }
  }
}

TEST(SnapshotFuzz, FailedRestoreDoesNotClobberAReplica) {
  Rng rng(8);
  const Matrix n_clean = gaussian(rng, 96, 6);
  const Matrix stream = gaussian(rng, 64, 6, 0.5);
  const Matrix x_test = gaussian(rng, 48, 6, 2.0);
  const auto capable = train_capable(n_clean, stream, x_test);
  ASSERT_GE(capable.size(), 1u);

  for (const Trained& t : capable) {
    auto replica = core::make_detector(t.name, tiny_cfg());
    {
      std::istringstream is(t.bytes, std::ios::binary);
      replica->restore(is);
    }
    // A later corrupt restore throws before touching any member, so the
    // replica keeps serving the state it had.
    std::string corrupt = t.bytes;
    corrupt[corrupt.size() / 2] = static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x04);
    std::istringstream is(corrupt, std::ios::binary);
    EXPECT_THROW(replica->restore(is), std::exception) << t.name;
    EXPECT_EQ(replica->score(x_test), t.want) << t.name;
  }
}

}  // namespace
}  // namespace cnd
