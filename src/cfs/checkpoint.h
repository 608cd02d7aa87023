// Cluster state snapshots — the NameNode FsImage role, extended to a full
// in-process cluster image so tests and long experiments can save and
// restore a loaded cluster.
//
// Format EARCKPT7, the only version the reader accepts: a little-endian
// binary stream of
//   magic "EARCKPT7"
//   cluster config (topology, code, replication, block size, namespace
//     shards, read-path, store, ecdag and codec fields, the codec's
//     sub-packetization alpha)
//   id counters (next block id, next inline stripe id), MiniCfs's RNG state
//   placement policy: next stripe id, RNG state, open stripes under assembly
//   namespace: block locations; stripes (data/parity blocks, encoded flag,
//     seal order, and the placement of each sealed stripe awaiting
//     encoding); block -> stripe positions
//   per-node block stores (block id -> bytes)
//   CRC-32 of everything above
//
// The reader checks the magic, then the CRC, then every count against the
// bytes left, and hands the parsed image to ClusterImage::validate() before
// any cluster is built; a corrupt or truncated image throws
// std::runtime_error.
//
// Restore rebuilds the whole cluster state — sealed, encoded and
// half-assembled stripes, the RNGs and the id counters — so the restored
// cluster continues writing, converting and repairing exactly as the
// snapshotted one would.  Node liveness is not part of the image: every
// node comes back alive (a killed node's store is exported like any
// other).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cfs/minicfs.h"

namespace ear::cfs {

// Serializes the cluster into a byte buffer.
std::vector<uint8_t> save_checkpoint(const MiniCfs& cfs);

// Reconstructs the cluster from a checkpoint.  Throws std::runtime_error on
// a corrupt, truncated or unsupported image.
std::unique_ptr<MiniCfs> load_checkpoint(const std::vector<uint8_t>& image,
                                         std::unique_ptr<Transport> transport);

// File wrappers.  save_checkpoint_file writes a temporary file, fsyncs it,
// renames it over `path` and fsyncs the directory; it returns false when any
// step fails.
bool save_checkpoint_file(const MiniCfs& cfs, const std::string& path);
std::unique_ptr<MiniCfs> load_checkpoint_file(
    const std::string& path, std::unique_ptr<Transport> transport);

}  // namespace ear::cfs
