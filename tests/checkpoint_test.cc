#include "cfs/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>

#include "common/crc32.h"
#include "common/rng.h"

namespace ear::cfs {
namespace {

CfsConfig ck_config() {
  CfsConfig cfg;
  cfg.racks = 10;
  cfg.nodes_per_rack = 4;
  cfg.placement.code = CodeParams{8, 6};
  cfg.placement.replication = 3;
  cfg.use_ear = true;
  cfg.block_size = 16_KB;
  cfg.seed = 51;
  return cfg;
}

std::unique_ptr<MiniCfs> make_cfs(const CfsConfig& cfg) {
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  return std::make_unique<MiniCfs>(cfg,
                                   std::make_unique<InstantTransport>(topo));
}

std::unique_ptr<Transport> instant(const CfsConfig& cfg) {
  return std::make_unique<InstantTransport>(
      Topology(cfg.racks, cfg.nodes_per_rack));
}

// Loads a cluster with some encoded and some replicated blocks.
std::map<BlockId, std::vector<uint8_t>> populate(MiniCfs& cfs, Rng& rng) {
  std::map<BlockId, std::vector<uint8_t>> contents;
  while (cfs.sealed_stripes().size() < 2) {
    std::vector<uint8_t> block(
        static_cast<size_t>(cfs.config().block_size));
    for (auto& b : block) b = static_cast<uint8_t>(rng.uniform(256));
    const BlockId id = cfs.write_block(block);
    contents[id] = std::move(block);
  }
  cfs.encode_stripe(cfs.sealed_stripes()[0]);
  return contents;
}

TEST(Checkpoint, RoundTripPreservesReadsAndMetadata) {
  const auto cfg = ck_config();
  auto original = make_cfs(cfg);
  Rng rng(1);
  const auto contents = populate(*original, rng);

  const auto image = save_checkpoint(*original);
  EXPECT_GT(image.size(), 1000u);
  auto restored = load_checkpoint(image, instant(cfg));

  for (const auto& [id, data] : contents) {
    EXPECT_EQ(restored->block_locations(id), original->block_locations(id));
    EXPECT_EQ(restored->read_block(id, 0), data);
  }
  const StripeId encoded = original->sealed_stripes()[0];
  EXPECT_TRUE(restored->is_encoded(encoded));
  const auto orig_meta = original->stripe_meta(encoded);
  const auto rest_meta = restored->stripe_meta(encoded);
  EXPECT_EQ(rest_meta.data_blocks, orig_meta.data_blocks);
  EXPECT_EQ(rest_meta.parity_blocks, orig_meta.parity_blocks);
}

TEST(Checkpoint, RestoredClusterSurvivesFailures) {
  const auto cfg = ck_config();
  auto original = make_cfs(cfg);
  Rng rng(2);
  const auto contents = populate(*original, rng);
  const auto image = save_checkpoint(*original);
  auto restored = load_checkpoint(image, instant(cfg));

  ASSERT_EQ(restored->sealed_stripes(), original->sealed_stripes());
  // Degraded read through decoding must work on the restored cluster.
  const auto meta = restored->stripe_meta(restored->sealed_stripes()[0]);
  const BlockId victim = meta.data_blocks[0];
  restored->kill_node(restored->block_locations(victim)[0]);
  NodeId reader = 0;
  while (!restored->node_alive(reader)) ++reader;
  EXPECT_EQ(restored->read_block(victim, reader), contents.at(victim));
}

TEST(Checkpoint, RestoredClusterAcceptsNewWrites) {
  const auto cfg = ck_config();
  auto original = make_cfs(cfg);
  Rng rng(3);
  populate(*original, rng);
  const BlockId last_before = original->all_blocks().back();

  auto restored = load_checkpoint(save_checkpoint(*original), instant(cfg));
  std::vector<uint8_t> fresh(static_cast<size_t>(cfg.block_size), 0x42);
  const BlockId id = restored->write_block(fresh);
  EXPECT_GT(id, last_before) << "block ids must not collide after restore";
  EXPECT_EQ(restored->read_block(id, 0), fresh);
}

TEST(Checkpoint, FileRoundTrip) {
  const auto cfg = ck_config();
  auto original = make_cfs(cfg);
  Rng rng(4);
  const auto contents = populate(*original, rng);

  const std::string path = ::testing::TempDir() + "/cluster.ckpt";
  ASSERT_TRUE(save_checkpoint_file(*original, path));
  auto restored = load_checkpoint_file(path, instant(cfg));
  for (const auto& [id, data] : contents) {
    EXPECT_EQ(restored->read_block(id, 0), data);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsGarbage) {
  std::vector<uint8_t> garbage{'n', 'o', 'p', 'e'};
  EXPECT_THROW(load_checkpoint(garbage, instant(ck_config())),
               std::runtime_error);
  std::vector<uint8_t> truncated{'E', 'A', 'R', 'C', 'K', 'P', 'T', '1', 0};
  EXPECT_THROW(load_checkpoint(truncated, instant(ck_config())),
               std::runtime_error);
}

// Recomputes the CRC trailer after a test edited the image body, so the
// reader gets past the checksum and reaches the field under test.
std::vector<uint8_t> reseal(std::vector<uint8_t> image) {
  const size_t covered = image.size() - 4;
  const uint32_t crc = crc32(image.data(), covered);
  for (size_t i = 0; i < 4; ++i) {
    image[covered + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return image;
}

// Offset of the serialized sub-packetization alpha: 8-byte magic, 15 fixed
// i64 config fields, the length-prefixed store dir, the segment size, the
// ecdag flag and the codec family.
size_t alpha_offset(const std::vector<uint8_t>& image) {
  constexpr size_t kDirOffset = 8 + 16 * 8;
  uint64_t dir_len = 0;
  for (size_t i = 0; i < 8; ++i) {
    dir_len |= static_cast<uint64_t>(image[kDirOffset + i]) << (8 * i);
  }
  return kDirOffset + 8 + static_cast<size_t>(dir_len) + 3 * 8;
}

TEST(Checkpoint, RejectsVersionsOutsideSupportedRange) {
  const auto cfg = ck_config();
  auto original = make_cfs(cfg);
  Rng rng(7);
  populate(*original, rng);
  auto image = save_checkpoint(*original);

  // An older and a newer digit must both fail loudly, naming the one
  // supported version, even though the rest of the stream is intact.
  for (const char digit : {'6', '8'}) {
    auto bad = image;
    bad[7] = static_cast<uint8_t>(digit);
    try {
      load_checkpoint(reseal(bad), instant(cfg));
      FAIL() << "version '" << digit << "' must be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("supported: 7"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Checkpoint, RoundTripPreservesEcdagFlag) {
  auto cfg = ck_config();
  cfg.ecdag_enable = true;
  auto original = make_cfs(cfg);
  Rng rng(10);
  const auto contents = populate(*original, rng);

  auto restored = load_checkpoint(save_checkpoint(*original), instant(cfg));
  EXPECT_TRUE(restored->config().ecdag_enable);
  for (const auto& [id, data] : contents) {
    EXPECT_EQ(restored->read_block(id, 0), data);
  }
}

TEST(Checkpoint, RoundTripPreservesCodecFamily) {
  auto cfg = ck_config();
  cfg.codec_family = erasure::CodecFamily::kClay;  // (8,6): alpha = 16
  auto original = make_cfs(cfg);
  Rng rng(12);
  const auto contents = populate(*original, rng);

  auto restored = load_checkpoint(save_checkpoint(*original), instant(cfg));
  EXPECT_EQ(restored->config().codec_family, erasure::CodecFamily::kClay);
  EXPECT_EQ(restored->codec().alpha(), 16);
  for (const auto& [id, data] : contents) {
    EXPECT_EQ(restored->read_block(id, 0), data);
  }
}

TEST(Checkpoint, RejectsSubPacketizationMismatch) {
  const auto cfg = ck_config();
  auto original = make_cfs(cfg);
  Rng rng(13);
  populate(*original, rng);
  auto image = save_checkpoint(*original);

  // Corrupt the serialized alpha: the reader must refuse to mis-slice the
  // block layout.
  image[alpha_offset(image)] = 99;
  try {
    load_checkpoint(reseal(image), instant(cfg));
    FAIL() << "alpha mismatch must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("sub-packetization mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, RoundTripPreservesStoreConfig) {
  auto cfg = ck_config();
  cfg.store_backend = store::StoreBackend::kMmap;
  cfg.store_dir = ::testing::TempDir() + "/ear-store-ckpt-roundtrip";
  cfg.store_segment_bytes = 4_MB;
  std::filesystem::remove_all(cfg.store_dir);
  std::filesystem::create_directories(cfg.store_dir);
  auto original = make_cfs(cfg);
  Rng rng(8);
  const auto contents = populate(*original, rng);
  const auto image = save_checkpoint(*original);

  // Destroy the writer before reopening: the restored cluster replays the
  // same on-disk directories, mirroring a full-cluster restart.
  original.reset();
  auto restored = load_checkpoint(image, instant(cfg));
  EXPECT_EQ(restored->config().store_backend, store::StoreBackend::kMmap);
  EXPECT_EQ(restored->config().store_dir, cfg.store_dir);
  EXPECT_EQ(restored->config().store_segment_bytes, 4_MB);
  for (const auto& [id, data] : contents) {
    EXPECT_EQ(restored->read_block(id, 0), data);
  }
  restored.reset();
  std::filesystem::remove_all(cfg.store_dir);
}

// ------------------------------------------------- restore continues work

// Restore property: a write / convert / fail / repair schedule restored from
// a checkpoint after every step ends byte-identical to the same schedule run
// without restores.  A restore revives every node, so the reference run
// calls revive_all() at the same steps.
enum class Op { kWrite, kEncode, kKillNode, kKillRack };

struct Step {
  Op op;
  int arg;
};

CfsConfig property_config(bool use_ear) {
  CfsConfig cfg;
  cfg.racks = 8;
  cfg.nodes_per_rack = 3;
  cfg.placement.code = CodeParams{6, 4};
  cfg.placement.replication = 3;
  cfg.use_ear = use_ear;
  cfg.block_size = 1_KB;
  cfg.seed = 77;
  return cfg;
}

void run_step(MiniCfs& cfs, const Step& step, int& written) {
  switch (step.op) {
    case Op::kWrite:
      for (int i = 0; i < step.arg; ++i, ++written) {
        Rng payload(static_cast<uint64_t>(written) + 1);
        std::vector<uint8_t> block(
            static_cast<size_t>(cfs.config().block_size));
        for (auto& b : block) b = static_cast<uint8_t>(payload.uniform(256));
        std::optional<NodeId> writer;
        if (written % 3 != 0) {
          writer = (written * 7) % cfs.topology().node_count();
        }
        cfs.write_block(block, writer);
      }
      break;
    case Op::kEncode:
      for (const StripeId s : cfs.sealed_stripes()) {
        if (!cfs.is_encoded(s)) {
          cfs.encode_stripe(s);
          break;
        }
      }
      break;
    case Op::kKillNode:
      cfs.kill_node(step.arg);
      cfs.restore_redundancy();
      break;
    case Op::kKillRack:
      cfs.kill_rack(step.arg);
      cfs.restore_redundancy();
      break;
  }
}

std::unique_ptr<MiniCfs> run_schedule(bool use_ear, bool restore_each_step) {
  const std::vector<Step> schedule = {
      {Op::kWrite, 5},    {Op::kEncode, 0},   {Op::kWrite, 9},
      {Op::kEncode, 0},   {Op::kKillNode, 3}, {Op::kWrite, 6},
      {Op::kEncode, 0},   {Op::kKillRack, 2}, {Op::kWrite, 11},
      {Op::kEncode, 0},   {Op::kEncode, 0},   {Op::kKillNode, 17},
      {Op::kWrite, 4},    {Op::kKillRack, 5}, {Op::kEncode, 0},
  };
  const CfsConfig cfg = property_config(use_ear);
  auto cfs = make_cfs(cfg);
  int written = 0;
  for (const Step& step : schedule) {
    run_step(*cfs, step, written);
    if (restore_each_step) {
      cfs = load_checkpoint(save_checkpoint(*cfs), instant(cfg));
    } else {
      cfs->revive_all();
    }
  }
  // Drain: convert every stripe still replicated.
  for (const StripeId s : cfs->sealed_stripes()) {
    if (!cfs->is_encoded(s)) cfs->encode_stripe(s);
  }
  return cfs;
}

void expect_restores_match_uninterrupted_run(bool use_ear) {
  const auto reference = run_schedule(use_ear, /*restore_each_step=*/false);
  const auto restored = run_schedule(use_ear, /*restore_each_step=*/true);
  ASSERT_FALSE(reference->sealed_stripes().empty());
  EXPECT_EQ(restored->sealed_stripes(), reference->sealed_stripes());

  const NamespaceSnapshot want = reference->namespace_snapshot();
  const NamespaceSnapshot got = restored->namespace_snapshot();
  EXPECT_EQ(got.stripes, want.stripes);
  ASSERT_EQ(got.blocks.size(), want.blocks.size());
  for (const auto& [block, status] : want.blocks) {
    const auto it = got.blocks.find(block);
    ASSERT_NE(it, got.blocks.end()) << "block " << block;
    EXPECT_EQ(it->second.locations, status.locations) << "block " << block;
    EXPECT_EQ(it->second.stripe, status.stripe) << "block " << block;
    EXPECT_EQ(it->second.position, status.position) << "block " << block;
    EXPECT_EQ(it->second.encoded, status.encoded) << "block " << block;
  }
  for (const auto& [id, meta] : want.stripes) {
    EXPECT_TRUE(meta.encoded || !meta.sealed())
        << "sealed stripe " << id << " left unconverted";
    for (const BlockId b : meta.parity_blocks) {
      const NodeId holder = want.blocks.at(b).locations.front();
      EXPECT_EQ(restored->read_block(b, holder),
                reference->read_block(b, holder))
          << "parity block " << b;
    }
  }
}

TEST(Checkpoint, RestoreAtEveryStepMatchesUninterruptedRunEar) {
  expect_restores_match_uninterrupted_run(/*use_ear=*/true);
}

TEST(Checkpoint, RestoreAtEveryStepMatchesUninterruptedRunRr) {
  expect_restores_match_uninterrupted_run(/*use_ear=*/false);
}

// ------------------------------------------------------ corrupt images

// A cluster small enough to sweep its checkpoint byte by byte: one encoded
// stripe, one sealed stripe awaiting encoding, one stripe still assembling.
CfsConfig tiny_config() {
  CfsConfig cfg;
  cfg.racks = 6;
  cfg.nodes_per_rack = 2;
  cfg.placement.code = CodeParams{4, 2};
  cfg.placement.replication = 2;
  cfg.block_size = 16;
  cfg.seed = 5;
  return cfg;
}

std::unique_ptr<MiniCfs> tiny_cluster() {
  auto cfs = make_cfs(tiny_config());
  for (uint8_t i = 0; cfs->sealed_stripes().size() < 2; ++i) {
    cfs->write_block(std::vector<uint8_t>(16, i), NodeId{0});
  }
  cfs->write_block(std::vector<uint8_t>(16, 0xee), NodeId{5});
  cfs->encode_stripe(cfs->sealed_stripes()[0]);
  return cfs;
}

TEST(Checkpoint, EveryTruncationThrows) {
  const auto image = save_checkpoint(*tiny_cluster());
  for (size_t len = 0; len < image.size(); ++len) {
    const std::vector<uint8_t> cut(image.begin(),
                                   image.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_THROW(load_checkpoint(cut, instant(tiny_config())),
                 std::runtime_error)
        << "prefix of " << len << " bytes";
    // With a valid checksum over the cut, the parser itself must notice
    // (a cut of exactly the trailer would reseal the original image).
    if (len >= 12 && len + 4 != image.size()) {
      std::vector<uint8_t> resealed = cut;
      resealed.resize(len + 4);
      EXPECT_THROW(load_checkpoint(reseal(resealed), instant(tiny_config())),
                   std::runtime_error)
          << "resealed prefix of " << len << " bytes";
    }
  }
}

TEST(Checkpoint, EverySingleBitFlipThrows) {
  const auto image = save_checkpoint(*tiny_cluster());
  for (size_t bit = 0; bit < image.size() * 8; ++bit) {
    auto flipped = image;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_THROW(load_checkpoint(flipped, instant(tiny_config())),
                 std::runtime_error)
        << "bit " << bit;
  }
}

TEST(Checkpoint, ResealedBitFlipsLoadOrThrowCleanly) {
  // Past the checksum a flip either still describes a valid cluster (block
  // bytes, seeds) or is rejected by the parser or validate(); it never
  // crashes, and never throws anything but std::runtime_error.
  const auto image = save_checkpoint(*tiny_cluster());
  int loaded = 0;
  for (size_t byte = 0; byte + 4 < image.size(); ++byte) {
    auto flipped = image;
    flipped[byte] ^= static_cast<uint8_t>(1u << (byte % 8));
    try {
      load_checkpoint(reseal(flipped), instant(tiny_config()));
      ++loaded;
    } catch (const std::runtime_error&) {
    }
  }
  EXPECT_GT(loaded, 0);
}

ClusterImage tiny_image() { return tiny_cluster()->export_image(); }

void expect_rejected(const std::function<void(ClusterImage&)>& corrupt,
                     const std::string& what) {
  ClusterImage image = tiny_image();
  corrupt(image);
  try {
    MiniCfs::from_image(std::move(image), instant(tiny_config()));
    FAIL() << "image with a bad " << what << " must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(ImageValidation, RejectsNodeIdOutOfRange) {
  expect_rejected(
      [](ClusterImage& image) {
        image.locations.begin()->second.push_back(12);
      },
      "node id 12");
}

TEST(ImageValidation, RejectsPositionOutOfRange) {
  expect_rejected(
      [](ClusterImage& image) {
        image.block_positions.begin()->second.second = 4;
      },
      "position 4");
}

TEST(ImageValidation, RejectsSealedStripeWithoutKDataBlocks) {
  expect_rejected(
      [](ClusterImage& image) {
        for (auto& [id, meta] : image.stripes) {
          if (meta.sealed() && !meta.encoded) meta.data_blocks.pop_back();
        }
      },
      "has 1 data blocks");
}

TEST(ImageValidation, RejectsEncodedStripeWithoutMParityBlocks) {
  expect_rejected(
      [](ClusterImage& image) {
        for (auto& [id, meta] : image.stripes) {
          if (meta.encoded) meta.parity_blocks.pop_back();
        }
      },
      "has 1 parity blocks");
}

TEST(ImageValidation, RejectsBlockIdAtOrBeyondNextBlockId) {
  expect_rejected([](ClusterImage& image) { --image.next_block_id; },
                  "block id");
}

TEST(ImageValidation, RejectsOpenStripeOfKBlocks) {
  expect_rejected(
      [](ClusterImage& image) {
        ASSERT_EQ(image.policy.open.size(), 1u);
        StripeInfo& open = image.policy.open[0];
        open.blocks.push_back(open.blocks[0]);
        open.replicas.push_back(open.replicas[0]);
      },
      "open stripe");
}

TEST(ImageValidation, RejectsStripeIdBeyondPolicyCounter) {
  expect_rejected(
      [](ClusterImage& image) { image.policy.next_stripe_id = 1; },
      "collides with the id counters");
}

TEST(ImageValidation, RejectsNodeStoreCountMismatch) {
  expect_rejected(
      [](ClusterImage& image) { image.node_blocks.pop_back(); },
      "topology mismatch");
}

TEST(ImageValidation, RejectsStoredBlockOfWrongSize) {
  expect_rejected(
      [](ClusterImage& image) {
        auto& store = image.node_blocks[0];
        store.begin()->second =
            datapath::BlockBuffer::copy_of(std::vector<uint8_t>(15, 1));
      },
      "holds 15 bytes");
}

TEST(Checkpoint, FileSaveLeavesNoTemporaryAndRejectsUnreadablePaths) {
  const auto cfs = tiny_cluster();
  const std::string path = ::testing::TempDir() + "/tiny.ckpt";
  ASSERT_TRUE(save_checkpoint_file(*cfs, path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(load_checkpoint_file(path, instant(tiny_config()))
                ->sealed_stripes(),
            cfs->sealed_stripes());
  std::remove(path.c_str());
  EXPECT_FALSE(save_checkpoint_file(*cfs, path + ".missing-dir/x.ckpt"));
  EXPECT_THROW(load_checkpoint_file(path, instant(tiny_config())),
               std::runtime_error);
  // A directory opens but cannot be sized or read as a checkpoint.
  EXPECT_THROW(load_checkpoint_file(::testing::TempDir(),
                                    instant(tiny_config())),
               std::runtime_error);
}

}  // namespace
}  // namespace ear::cfs
