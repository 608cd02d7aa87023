#include "cfs/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>

#include "common/crc32.h"

namespace ear::cfs {

namespace {

// The one format this reader accepts.  Older versions (2..6) carried the
// namespace only, without the policy's open stripes, the RNG states or the
// placement of stripes awaiting encoding, so a cluster restored from them
// could not convert its replicated stripes; their readers were removed.
constexpr char kMagic[8] = {'E', 'A', 'R', 'C', 'K', 'P', 'T', '7'};
constexpr size_t kCrcBytes = 4;

// ---- little-endian primitives ------------------------------------------

void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void put_i64(std::vector<uint8_t>& out, int64_t v) {
  put_u64(out, static_cast<uint64_t>(v));
}

void put_bytes(std::vector<uint8_t>& out, std::span<const uint8_t> v) {
  put_u64(out, v.size());
  out.insert(out.end(), v.begin(), v.end());
}

template <typename Ids>
void put_ids(std::vector<uint8_t>& out, const Ids& ids) {
  put_u64(out, ids.size());
  for (const auto id : ids) put_i64(out, id);
}

void put_stripe_info(std::vector<uint8_t>& out, const StripeInfo& info) {
  put_i64(out, info.id);
  put_i64(out, info.core_rack);
  put_ids(out, info.blocks);
  for (const auto& replicas : info.replicas) put_ids(out, replicas);
  put_ids(out, info.target_racks);
}

void put_rng(std::vector<uint8_t>& out, const std::array<uint64_t, 4>& rng) {
  for (const uint64_t word : rng) put_u64(out, word);
}

// Bounds-checked cursor over the image body (the CRC trailer excluded).
// Every count is checked against the bytes left before it sizes anything.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }

  uint64_t u64() {
    if (remaining() < 8) throw std::runtime_error("checkpoint truncated");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  int64_t i64() { return static_cast<int64_t>(u64()); }

  int i32() {
    const int64_t v = i64();
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      throw std::runtime_error("checkpoint field out of range: " +
                               std::to_string(v));
    }
    return static_cast<int>(v);
  }

  // A count of entries each at least `min_entry_bytes` long: larger than
  // the bytes left can hold means a corrupt image.
  uint64_t count(size_t min_entry_bytes) {
    const uint64_t n = u64();
    if (n > remaining() / min_entry_bytes) {
      throw std::runtime_error("checkpoint count " + std::to_string(n) +
                               " exceeds the image");
    }
    return n;
  }

  std::span<const uint8_t> bytes() {
    const uint64_t len = u64();
    if (len > remaining()) throw std::runtime_error("checkpoint truncated");
    const auto out = data_.subspan(pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return out;
  }

  std::string str() {
    const auto raw = bytes();
    return std::string(raw.begin(), raw.end());
  }

  template <typename Id>
  std::vector<Id> ids() {
    const uint64_t n = count(8);
    std::vector<Id> out;
    out.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) out.push_back(static_cast<Id>(i64()));
    return out;
  }

  StripeInfo stripe_info() {
    StripeInfo info;
    info.id = i64();
    info.core_rack = i32();
    info.blocks = ids<BlockId>();
    for (size_t i = 0; i < info.blocks.size(); ++i) {
      info.replicas.push_back(ids<NodeId>());
    }
    info.target_racks = ids<RackId>();
    return info;
  }

  std::array<uint64_t, 4> rng() {
    std::array<uint64_t, 4> state{};
    for (uint64_t& word : state) word = u64();
    return state;
  }

  void expect_end() const {
    if (remaining() != 0) {
      throw std::runtime_error("checkpoint has " +
                               std::to_string(remaining()) +
                               " unparsed bytes");
    }
  }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// Checks the magic, the version and the CRC trailer; returns the body the
// trailer covers, magic excluded.
std::span<const uint8_t> checked_body(const std::vector<uint8_t>& data) {
  if (data.size() < sizeof(kMagic) ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic) - 1) != 0) {
    throw std::runtime_error("not an EAR checkpoint");
  }
  if (data[sizeof(kMagic) - 1] != static_cast<uint8_t>(kMagic[7])) {
    throw std::runtime_error(
        "unsupported EAR checkpoint version '" +
        std::string(1, static_cast<char>(data[sizeof(kMagic) - 1])) +
        "' (supported: " + std::string(1, kMagic[7]) + ")");
  }
  if (data.size() < sizeof(kMagic) + kCrcBytes) {
    throw std::runtime_error("checkpoint truncated");
  }
  const size_t covered = data.size() - kCrcBytes;
  uint32_t stored = 0;
  for (size_t i = 0; i < kCrcBytes; ++i) {
    stored |= static_cast<uint32_t>(data[covered + i]) << (8 * i);
  }
  if (crc32(data.data(), covered) != stored) {
    throw std::runtime_error("checkpoint checksum mismatch");
  }
  return std::span<const uint8_t>(data).subspan(sizeof(kMagic),
                                                 covered - sizeof(kMagic));
}

}  // namespace

std::vector<uint8_t> save_checkpoint(const MiniCfs& cfs) {
  const ClusterImage image = cfs.export_image();
  const CfsConfig& config = image.config;
  std::vector<uint8_t> out;
  // Byte-wise append (not a range insert): GCC 12's -Wstringop-overflow
  // false-positives on inserting a char array range into a fresh vector.
  for (const char c : kMagic) out.push_back(static_cast<uint8_t>(c));

  // Config.
  put_i64(out, config.racks);
  put_i64(out, config.nodes_per_rack);
  put_i64(out, config.placement.code.n);
  put_i64(out, config.placement.code.k);
  put_i64(out, config.placement.replication);
  put_i64(out, config.placement.one_replica_per_rack ? 1 : 0);
  put_i64(out, config.placement.c);
  put_i64(out, config.placement.target_racks);
  put_i64(out, config.use_ear ? 1 : 0);
  put_i64(out, config.block_size);
  put_i64(out, config.construction == erasure::Construction::kCauchy ? 1 : 0);
  put_u64(out, config.seed);
  put_i64(out, config.namespace_shards);
  put_i64(out, config.cache_bytes);
  put_i64(out, config.read_fanout_lanes);
  put_i64(out, static_cast<int64_t>(config.store_backend));
  put_bytes(out, {reinterpret_cast<const uint8_t*>(config.store_dir.data()),
                  config.store_dir.size()});
  put_i64(out, config.store_segment_bytes);
  put_i64(out, config.ecdag_enable ? 1 : 0);
  // alpha is derivable from (family, n, k) but serialized anyway so a
  // reader can reject a checkpoint whose block layout it would mis-slice.
  put_i64(out, static_cast<int64_t>(config.codec_family));
  put_i64(out, erasure::make_codec(config.codec_family, config.placement.code.n,
                                   config.placement.code.k,
                                   config.construction)
                   ->alpha());

  // Id counters and RNG states.
  put_i64(out, image.next_block_id);
  put_i64(out, image.next_inline_stripe_id);
  put_rng(out, image.rng);
  put_i64(out, image.policy.next_stripe_id);
  put_rng(out, image.policy.rng);
  put_u64(out, image.policy.open.size());
  for (const StripeInfo& open : image.policy.open) put_stripe_info(out, open);

  // Namespace.
  put_u64(out, image.locations.size());
  for (const auto& [block, locs] : image.locations) {
    put_i64(out, block);
    put_ids(out, locs);
  }
  put_u64(out, image.stripes.size());
  for (const auto& [id, meta] : image.stripes) {
    put_i64(out, id);
    put_i64(out, meta.encoded ? 1 : 0);
    put_i64(out, meta.seal_seq);
    put_ids(out, meta.data_blocks);
    put_ids(out, meta.parity_blocks);
    put_i64(out, meta.placement ? 1 : 0);
    if (meta.placement) put_stripe_info(out, *meta.placement);
  }
  put_u64(out, image.block_positions.size());
  for (const auto& [block, pos] : image.block_positions) {
    put_i64(out, block);
    put_i64(out, pos.first);
    put_i64(out, pos.second);
  }

  // Node block stores last, into a buffer reserved once: the block bytes
  // are copied exactly once, with no reallocation.  The reservation is
  // rounded up to a power of two so that repeated checkpoints of a
  // slowly growing cluster ask the allocator for the same size and reuse
  // the same region instead of fragmenting the heap (untouched capacity
  // costs address space, not memory).
  size_t store_bytes = 8;
  for (const auto& store : image.node_blocks) {
    store_bytes += 8;
    for (const auto& [block, data] : store) store_bytes += 16 + data.size();
  }
  out.reserve(std::bit_ceil(out.size() + store_bytes + kCrcBytes));
  put_u64(out, image.node_blocks.size());
  for (const auto& store : image.node_blocks) {
    put_u64(out, store.size());
    for (const auto& [block, data] : store) {
      put_i64(out, block);
      put_bytes(out, data.span());
    }
  }

  const uint32_t crc = crc32(out.data(), out.size());
  for (size_t i = 0; i < kCrcBytes; ++i) {
    out.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  return out;
}

std::unique_ptr<MiniCfs> load_checkpoint(
    const std::vector<uint8_t>& data, std::unique_ptr<Transport> transport) {
  Reader in(checked_body(data));

  ClusterImage image;
  CfsConfig& config = image.config;
  config.racks = in.i32();
  config.nodes_per_rack = in.i32();
  config.placement.code.n = in.i32();
  config.placement.code.k = in.i32();
  config.placement.replication = in.i32();
  config.placement.one_replica_per_rack = in.i64() != 0;
  config.placement.c = in.i32();
  config.placement.target_racks = in.i32();
  config.use_ear = in.i64() != 0;
  config.block_size = in.i64();
  config.construction = in.i64() != 0 ? erasure::Construction::kCauchy
                                      : erasure::Construction::kVandermonde;
  config.seed = in.u64();
  config.namespace_shards = in.i32();
  config.cache_bytes = in.i64();
  config.read_fanout_lanes = in.i32();
  const int64_t backend = in.i64();
  if (backend != 0 && backend != 1) {
    throw std::runtime_error("checkpoint has unknown store backend " +
                             std::to_string(backend));
  }
  config.store_backend = static_cast<store::StoreBackend>(backend);
  config.store_dir = in.str();
  config.store_segment_bytes = in.i64();
  config.ecdag_enable = in.i64() != 0;
  const int64_t family = in.i64();
  if (family < 0 || family > 4) {
    throw std::runtime_error("checkpoint has unknown codec family " +
                             std::to_string(family));
  }
  config.codec_family = static_cast<erasure::CodecFamily>(family);
  const int64_t alpha = in.i64();
  {
    const int n = config.placement.code.n;
    const int k = config.placement.code.k;
    if (k < 1 || n <= k || n > 255) {
      throw std::runtime_error("checkpoint has invalid code (" +
                               std::to_string(n) + ", " + std::to_string(k) +
                               ")");
    }
    std::unique_ptr<erasure::ErasureCodec> codec;
    try {
      codec = erasure::make_codec(config.codec_family, n, k,
                                  config.construction);
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(std::string("checkpoint codec rejected: ") +
                               e.what());
    }
    if (alpha != codec->alpha()) {
      throw std::runtime_error(
          "checkpoint sub-packetization mismatch: file says alpha=" +
          std::to_string(alpha) + " but " + codec->name() + "(" +
          std::to_string(codec->n()) + "," + std::to_string(codec->k()) +
          ") derives alpha=" + std::to_string(codec->alpha()));
    }
  }

  image.next_block_id = in.i64();
  image.next_inline_stripe_id = in.i64();
  image.rng = in.rng();
  image.policy.next_stripe_id = in.i64();
  image.policy.rng = in.rng();
  for (uint64_t i = in.count(32); i > 0; --i) {
    image.policy.open.push_back(in.stripe_info());
  }

  for (uint64_t i = in.count(16); i > 0; --i) {
    const BlockId block = in.i64();
    image.locations[block] = in.ids<NodeId>();
  }
  for (uint64_t i = in.count(48); i > 0; --i) {
    StripeMeta meta;
    meta.id = in.i64();
    meta.encoded = in.i64() != 0;
    meta.seal_seq = in.i64();
    meta.data_blocks = in.ids<BlockId>();
    meta.parity_blocks = in.ids<BlockId>();
    if (in.i64() != 0) meta.placement = in.stripe_info();
    const StripeId id = meta.id;
    image.stripes[id] = std::move(meta);
  }
  for (uint64_t i = in.count(24); i > 0; --i) {
    const BlockId block = in.i64();
    const StripeId stripe = in.i64();
    image.block_positions[block] = {stripe, in.i32()};
  }

  image.node_blocks.resize(static_cast<size_t>(in.count(8)));
  for (auto& store : image.node_blocks) {
    for (uint64_t j = in.count(16); j > 0; --j) {
      const BlockId block = in.i64();
      // The one copy of each block's bytes: out of the image into the
      // buffer the restored store keeps.
      store[block] = datapath::BlockBuffer::copy_of(in.bytes());
    }
  }
  in.expect_end();

  return MiniCfs::from_image(std::move(image), std::move(transport));
}

namespace {

// Syncs the directory holding `path`, making a rename into it durable.
bool sync_parent_dir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

}  // namespace

bool save_checkpoint_file(const MiniCfs& cfs, const std::string& path) {
  const std::vector<uint8_t> image = save_checkpoint(cfs);
  // Write a temporary file, make it durable, then rename it over the
  // target (as the store manifest does): a crash leaves either the old
  // checkpoint or the new one, never a torn mix.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  const bool written =
      std::fwrite(image.data(), 1, image.size(), f) == image.size() &&
      std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0 || !written ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return sync_parent_dir(path);
}

std::unique_ptr<MiniCfs> load_checkpoint_file(
    const std::string& path, std::unique_ptr<Transport> transport) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot open checkpoint " + path);
  // Size from fstat, and only for a regular file: a directory opens fine
  // but reports a meaningless size.
  struct stat st {};
  if (::fstat(::fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
    std::fclose(f);
    throw std::runtime_error("checkpoint " + path + " is not a regular file");
  }
  const auto size = static_cast<size_t>(st.st_size);
  std::vector<uint8_t> data(size);
  const size_t read = std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (read != data.size()) {
    throw std::runtime_error("short read on checkpoint " + path);
  }
  return load_checkpoint(data, std::move(transport));
}

}  // namespace ear::cfs
