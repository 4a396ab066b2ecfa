#include "base/serial.h"

#include "base/fnv1a.h"

namespace eqimpact {
namespace base {
namespace {

constexpr size_t kHeaderBytes = 2 * sizeof(uint32_t) + sizeof(uint64_t);
constexpr size_t kTrailerBytes = sizeof(uint64_t);

uint64_t Checksum(const uint8_t* data, size_t n) {
  Fnv1a checksum;
  checksum.MixBytes(data, n);
  return checksum.hash();
}

}  // namespace

const char* SnapshotStatusName(SnapshotStatus status) {
  switch (status) {
    case SnapshotStatus::kOk:
      return "ok";
    case SnapshotStatus::kTruncated:
      return "truncated";
    case SnapshotStatus::kMagic:
      return "magic";
    case SnapshotStatus::kVersion:
      return "version";
    case SnapshotStatus::kChecksum:
      return "checksum";
    case SnapshotStatus::kFingerprint:
      return "fingerprint";
    case SnapshotStatus::kShape:
      return "shape";
    case SnapshotStatus::kUnreadable:
      return "unreadable";
    case SnapshotStatus::kUnwritable:
      return "unwritable";
  }
  return "unknown";
}

void BeginFrame(uint32_t magic, uint32_t version, uint64_t fingerprint,
                BinaryWriter* writer) {
  writer->WriteU32(magic);
  writer->WriteU32(version);
  writer->WriteU64(fingerprint);
}

void SealFrame(BinaryWriter* writer) {
  writer->WriteU64(Checksum(writer->buffer().data(), writer->size()));
}

SnapshotStatus OpenFrame(const std::vector<uint8_t>& bytes, uint32_t magic,
                         uint32_t version, uint64_t fingerprint,
                         BinaryReader* body) {
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    return SnapshotStatus::kTruncated;
  }
  // The header first, so a file of another kind or format reads as such
  // rather than as a bad checksum.
  const size_t body_end = bytes.size() - kTrailerBytes;
  BinaryReader header(bytes.data(), kHeaderBytes);
  if (header.ReadU32() != magic) return SnapshotStatus::kMagic;
  if (header.ReadU32() != version) return SnapshotStatus::kVersion;
  const uint64_t written_fingerprint = header.ReadU64();
  BinaryReader trailer(bytes.data() + body_end, kTrailerBytes);
  if (trailer.ReadU64() != Checksum(bytes.data(), body_end)) {
    return SnapshotStatus::kChecksum;
  }
  if (written_fingerprint != fingerprint) return SnapshotStatus::kFingerprint;
  *body = BinaryReader(bytes.data() + kHeaderBytes, body_end - kHeaderBytes);
  return SnapshotStatus::kOk;
}

}  // namespace base
}  // namespace eqimpact
