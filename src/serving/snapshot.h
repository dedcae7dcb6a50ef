// Binary snapshot layer for the serving stack: a versioned, checksummed
// container for (a) trained selector stacks — the static + dynamic
// EstimatorSelector pair a ProgressMonitor runs on — and (b) batches of
// PipelineRecord training data. Doubles are stored as raw IEEE-754 bits
// (so round-trips are bit-exact by construction, not by printf
// precision), the compiled scoring tables are 8-aligned little-endian
// slabs the loader points straight into, and the payload is guarded by a
// CRC-32 so corruption or truncation is rejected before any field is
// decoded.
//
// Container layout (all integers little-endian):
//
//   offset  size  field
//   0       4     magic  "RPSN" (0x4E535052)
//   4       4     format version (5; no other version is readable)
//   8       4     payload kind (SnapshotKind)
//   12      4     reserved (0)
//   16      8     payload size in bytes
//   24      4     CRC-32 over the 4-byte aux-offset field, then the
//                 payload (the offset steers the decode, so header
//                 corruption must be caught as corruption)
//   28      4     aux-section offset into the payload — required and
//                 8-aligned for a selector stack, 0 for a record batch;
//                 header is 32 bytes, payload 8-aligned
//   32      ...   payload
//
// Selector-stack payload: the feature-schema block (count, static
// count, names — validated against the running binary's FeatureSchema at
// load), zero padding to 8 bytes, then the aux section, which starts at
// the header's aux offset, just past the schema block. The aux section is
// one "RPFL" block per selector, static then dynamic: a header (magic,
// feature mode, model count, input width), the pool, the per-model
// training gains, and the FlatEnsembleSet's merged QuickScorer tables,
// every slab padded to 8-byte alignment relative to the payload start
// (the payload starts at file offset 32, so payload alignment == file
// alignment). These compiled tables are the only stored form of a
// selector — no trees are persisted — and leaf-value slabs carry the
// kQsLeafGuard zero tail so a hostile mask table cannot index past the
// slab (see FlatEnsembleSet::FromParts).
//
// One decode: LoadSelectorStack maps the file (serving/mmap_arena.h) and
// DecodeSelectorStack copies a byte buffer to an owned 8-aligned buffer;
// both then run the same decode, whose tables borrow those bytes in place
// (no slab memcpy, no recompilation), and the returned stack co-owns them.
// Encode(Decode(bytes)) reproduces `bytes`.
//
// Publishing: a loaded stack keeps its file mapped, so a file must never
// be rewritten in place. Save* functions write a temp file in the target's
// directory and rename it over the target; a mapped reader keeps the old
// inode, a new load sees the new file.
//
// Record-batch payload: u64 record count, then that many record elements
// back to back — the same element a wire ingest frame carries, with the
// same caps and checks (layout in selection/record.h). Each element's
// feature/l1/l2 arity is checked against the running binary at load.
// Version 5 introduced this payload (v4 had its own record layout); the
// selector-stack payload is unchanged from v4.
//
// Threading contract: all functions here are stateless and thread-safe;
// encode/decode touch only their arguments. A decoded SelectorStack is
// immutable and safe to share across threads (the serving layer holds it
// as shared_ptr<const SelectorStack>). Do not copy a decoded stack out of
// its shared_ptr: the copy's tables borrow bytes the holder owns.
//
// Error behavior: snapshots are untrusted input. Decode/Load functions
// never abort on malformed bytes — bad magic, version or kind skew, CRC
// mismatch, truncation, schema mismatch, and hostile compiled tables all
// return a descriptive Status before any decoded field is used.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "selection/record.h"
#include "selection/selector.h"

namespace rpe {

inline constexpr uint32_t kSnapshotMagic = 0x4E535052;  // "RPSN"
/// The one format version this build writes and reads.
inline constexpr uint32_t kSnapshotVersion = 5;
/// Magic opening each selector's compiled-table (RPFL) section.
inline constexpr uint32_t kFlatSectionMagic = 0x4C465052;  // "RPFL"

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

/// In-memory encode/decode. DecodeSelectorStack copies `bytes`; the
/// returned stack owns that copy.
std::string EncodeSelectorStack(const SelectorStack& stack);
Result<std::shared_ptr<const SelectorStack>> DecodeSelectorStack(
    std::string_view bytes);
/// InvalidArgument (naming the record, the field and the rule) when a
/// record breaks the element's rules (ValidateRecordElement): a batch is
/// either readable back in full or not written.
Result<std::string> EncodeRecordBatch(
    const std::vector<PipelineRecord>& records);
Result<std::vector<PipelineRecord>> DecodeRecordBatch(std::string_view bytes);

/// Kind of a snapshot buffer/file without decoding the payload (CRC is
/// still verified).
Result<SnapshotKind> PeekSnapshotKind(std::string_view bytes);
Result<SnapshotKind> PeekSnapshotFileKind(const std::string& path);

/// Raw snapshot bytes from disk, so a caller can Peek and Decode the same
/// buffer without reading (and CRC-checking) the file twice.
Result<std::string> ReadSnapshotFile(const std::string& path);

/// Write by temp file + rename (see "Publishing" above), so a cut or
/// failed write never leaves a short file under `path`.
Status SaveSelectorStack(const SelectorStack& stack, const std::string& path);
/// Map `path` and decode it in place; the stack keeps the mapping alive.
Result<std::shared_ptr<const SelectorStack>> LoadSelectorStack(
    const std::string& path);
Status SaveRecordBatch(const std::vector<PipelineRecord>& records,
                       const std::string& path);
Result<std::vector<PipelineRecord>> LoadRecordBatch(const std::string& path);

}  // namespace rpe
