// Binary snapshot layer for the serving stack: a versioned, checksummed
// container for (a) trained selector stacks — the static + dynamic
// EstimatorSelector pair a ProgressMonitor runs on — and (b) batches of
// PipelineRecord training data. Snapshots replace the text/CSV persistence
// path on the hot load path: doubles are stored as raw IEEE-754 bits (so
// round-trips are bit-exact by construction, not by printf precision), all
// numeric arrays are contiguous little-endian slabs (mmap-friendly: the
// zero-copy loader points straight into them), and the payload is
// guarded by a CRC-32 so corruption or truncation is rejected before any
// field is decoded.
//
// Container layout (all integers little-endian):
//
//   offset  size  field
//   0       4     magic  "RPSN" (0x4E535052)
//   4       4     format version (3; no other version is readable)
//   8       4     payload kind (SnapshotKind)
//   12      4     reserved (0)
//   16      8     payload size in bytes
//   24      4     CRC-32 over the 4-byte aux-offset field, then the
//                 payload (the offset steers both loaders, so header
//                 corruption must be caught as corruption)
//   28      4     aux-section offset into the payload — required and
//                 8-aligned for a selector stack, 0 for a record batch;
//                 header is 32 bytes, payload 8-aligned
//   32      ...   payload
//
// Selector-stack payload: feature-schema metadata (count, static count,
// names — validated against the running binary's FeatureSchema at load),
// then the static and dynamic selectors back to back; each selector is its
// pool, feature mode, and per-candidate MART models with trees stored as
// structure-of-arrays node slabs. The heap loader (DecodeSelectorStack)
// decodes these models and recompiles the scoring tables
// (FlatEnsembleSet) — compilation is deterministic from the models, so the
// rebuilt stack scores bit-identically to the one saved.
//
// The aux section ("RPFL" per selector, static then dynamic) starts at the
// header's aux offset and holds each selector's compiled tables: a header
// (magic, feature mode, model count, input width), the pool, the
// per-model training gains, and the FlatEnsembleSet's merged QuickScorer
// tables, every slab padded to 8-byte alignment relative to the payload
// start (the payload itself starts at file offset 32, so payload
// alignment == file alignment). This is what the zero-copy loader
// consumes: MmapArena (see serving/mmap_arena.h) maps the file and
// rebuilds the stack with slab views pointing straight into the mapping —
// no tree decode, no slab memcpy. The heap loader only checks that the
// section abuts the model payload; both representations come from the
// same deterministic compiler, so the two loaders agree about an honestly
// written file's scores. Leaf-value slabs carry a 64-slot zero guard tail
// so a hostile mask table cannot index past the slab (see
// FlatEnsembleSet::FromParts).
//
// Record-batch payload: feature/estimator arity header (validated against
// the schema at load) followed by the records.
//
// Threading contract: all functions here are stateless and thread-safe;
// encode/decode touch only their arguments. A decoded SelectorStack is
// immutable and safe to share across threads (the serving layer wraps it
// in shared_ptr<const SelectorStack>).
//
// Error behavior: snapshots are untrusted input. Decode/Load functions
// never abort on malformed bytes — bad magic, version or kind skew, CRC
// mismatch, truncation, schema mismatch, and hostile model payloads all
// return a descriptive Status before any decoded field is used.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "selection/record.h"
#include "selection/selector.h"

namespace rpe {

inline constexpr uint32_t kSnapshotMagic = 0x4E535052;  // "RPSN"
/// The one format version this build writes and reads.
inline constexpr uint32_t kSnapshotVersion = 3;
/// Magic opening each selector's compiled-flat aux section.
inline constexpr uint32_t kFlatSectionMagic = 0x4C465052;  // "RPFL"
/// Zero doubles appended after each QuickScorer leaf-value slab so a
/// fully-cleared (hostile) leaf bitvector indexes the guard, not past the
/// slab: countr_zero(0) == 64.
inline constexpr size_t kQsLeafGuard = 64;

enum class SnapshotKind : uint32_t {
  kSelectorStack = 1,
  kRecordBatch = 2,
};

/// Decoded container header of a snapshot buffer (CRC already verified).
struct SnapshotFrame {
  SnapshotKind kind = SnapshotKind::kSelectorStack;
  /// Payload offset of the aux section: nonzero and 8-aligned for a
  /// selector stack, 0 for a record batch.
  uint32_t aux_offset = 0;
  std::string_view payload;  ///< views into the caller's buffer
};

/// Verify magic/version/size/CRC and the kind's aux-offset rule, and
/// return the framed payload. Any version but kSnapshotVersion is
/// InvalidArgument.
Result<SnapshotFrame> UnframeSnapshot(std::string_view bytes);

/// \brief The trained model pair the serving layer runs on: static-feature
/// selector for initial choices, dynamic-feature selector for revisions.
struct SelectorStack {
  EstimatorSelector static_selector;
  EstimatorSelector dynamic_selector;

  /// Train both selectors of the stack on one record set (the static one
  /// on the static feature prefix, the dynamic one on the full vector).
  static SelectorStack Train(
      const std::vector<PipelineRecord>& records, std::vector<size_t> pool,
      const MartParams& params = EstimatorSelector::DefaultParams());
};

/// In-memory encode/decode (the file functions below wrap these).
std::string EncodeSelectorStack(const SelectorStack& stack);
Result<SelectorStack> DecodeSelectorStack(std::string_view bytes);
std::string EncodeRecordBatch(const std::vector<PipelineRecord>& records);
Result<std::vector<PipelineRecord>> DecodeRecordBatch(std::string_view bytes);

/// Kind of a snapshot buffer/file without decoding the payload (CRC is
/// still verified).
Result<SnapshotKind> PeekSnapshotKind(std::string_view bytes);
Result<SnapshotKind> PeekSnapshotFileKind(const std::string& path);

/// Raw snapshot bytes from disk, so a caller can Peek and Decode the same
/// buffer without reading (and CRC-checking) the file twice.
Result<std::string> ReadSnapshotFile(const std::string& path);

Status SaveSelectorStack(const SelectorStack& stack, const std::string& path);
Result<SelectorStack> LoadSelectorStack(const std::string& path);
Status SaveRecordBatch(const std::vector<PipelineRecord>& records,
                       const std::string& path);
Result<std::vector<PipelineRecord>> LoadRecordBatch(const std::string& path);

namespace snapshot_internal {

/// Validate the feature-schema block that opens a selector-stack payload
/// against this binary's FeatureSchema (the zero-copy loader runs this
/// before trusting the aux section; the heap decoder does it inline).
Status CheckSchemaPrefix(std::string_view payload);

}  // namespace snapshot_internal

}  // namespace rpe
