#ifndef LCP_SERVICE_SNAPSHOT_H_
#define LCP_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lcp/base/status.h"
#include "lcp/schema/schema.h"
#include "lcp/service/plan_cache.h"

namespace lcp {

/// Persistent plan-cache snapshots (DESIGN.md §12): a point-in-time dump of
/// the cache's serving-epoch entries that a restarted process loads to skip
/// re-proving every working-set query from cold.
///
/// File layout (all integers little-endian):
///
///   header   8 bytes magic "LCPSNAP\0"
///            u8  format version (kSnapshotVersion)
///            u64 schema fingerprint (SchemaFingerprint of the base schema)
///   entry*   u32 payload length
///            u32 CRC32 of the payload bytes
///            payload: u32 key length, canonical fingerprint key bytes,
///                     u64 plan cost (IEEE-754 bit pattern),
///                     binary plan encoding (plan/serialize.h) to end
///
/// Trust model — the loader assumes the file may be torn, bit-flipped, or
/// written by a different schema, and must degrade to a cold start rather
/// than crash or admit a wrong plan:
///   - bad magic/version, or a schema fingerprint that differs from the live
///     schema's, rejects the whole file (one stale counter tick, no entries);
///   - a CRC mismatch skips that entry and resumes at the next frame;
///   - a frame length overrunning the remaining bytes (torn tail from a
///     crash mid-write) skips the suffix;
///   - every surviving plan is re-decoded defensively and re-validated with
///     ValidatePlan against the *live* schema before admission, and its
///     fingerprint hash is recomputed from the key (never trusted from disk).
///
/// Entries are admitted under the caller's current serving epoch: a snapshot
/// load is indistinguishable from the same plans having just been produced
/// by proof search, so epoch bumps and cost-aware admission behave normally.
inline constexpr uint8_t kSnapshotVersion = 2;
inline constexpr char kSnapshotMagic[8] = {'L', 'C', 'P', 'S',
                                           'N', 'A', 'P', '\0'};

struct SnapshotWriteStats {
  uint64_t entries_persisted = 0;
  /// Failover-detour plans are never persisted: a fresh process has fresh
  /// source-health state, so a detour around an outage that may have healed
  /// would pin degraded plans past their reason to exist.
  uint64_t entries_skipped_detour = 0;
  /// Entries admitted under a different (stale) epoch than the one being
  /// snapshotted; they would fail validation or mislead on load.
  uint64_t entries_skipped_epoch = 0;
  uint64_t bytes = 0;  ///< Encoded snapshot size.
};

struct SnapshotLoadStats {
  bool found = false;      ///< A snapshot file existed and was readable.
  bool header_ok = false;  ///< Magic, version, and schema fingerprint match.
  uint64_t entries_loaded = 0;
  uint64_t entries_rejected_corrupt = 0;  ///< CRC/frame/decode failures.
  uint64_t entries_rejected_stale = 0;    ///< Failed ValidatePlan vs live schema.
  uint64_t bytes = 0;  ///< File size as read.
};

/// Encodes a snapshot of `entries` (as returned by PlanCache::Entries) taken
/// at `serving_epoch` under a schema whose fingerprint is
/// `schema_fingerprint`. Detour plans and entries from other epochs are
/// skipped (see SnapshotWriteStats). Buffer-level so tests can fuzz the
/// encoding without touching the filesystem.
std::string EncodeSnapshot(
    const std::vector<std::shared_ptr<const CachedPlan>>& entries,
    uint64_t serving_epoch, uint64_t schema_fingerprint,
    SnapshotWriteStats* stats = nullptr);

/// Decodes `data` and admits every surviving entry into `cache` under
/// `serving_epoch`, validating each plan against `schema` first. Never
/// fails: corruption only moves counters. `found` is set by the file-level
/// loader, not here.
SnapshotLoadStats DecodeSnapshotInto(std::string_view data,
                                     uint64_t schema_fingerprint,
                                     const Schema& schema,
                                     uint64_t serving_epoch, PlanCache& cache);

/// EncodeSnapshot + crash-safe file replacement (write to a temp file, fsync,
/// atomically rename over `path`): a crash at any point leaves either the
/// old snapshot or the new one, never a mix. Returns non-OK only on I/O
/// failure.
Status WriteSnapshotFile(
    const std::string& path,
    const std::vector<std::shared_ptr<const CachedPlan>>& entries,
    uint64_t serving_epoch, uint64_t schema_fingerprint,
    SnapshotWriteStats* stats = nullptr);

/// Reads `path` (a missing or unreadable file is a silent cold start:
/// `found` stays false) and decodes it into `cache`.
SnapshotLoadStats LoadSnapshotFile(const std::string& path,
                                   uint64_t schema_fingerprint,
                                   const Schema& schema,
                                   uint64_t serving_epoch, PlanCache& cache);

}  // namespace lcp

#endif  // LCP_SERVICE_SNAPSHOT_H_
