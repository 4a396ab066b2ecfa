#ifndef EQIMPACT_BASE_SERIAL_H_
#define EQIMPACT_BASE_SERIAL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace eqimpact {
namespace base {

/// Bit-exact binary serialization primitives for the checkpoint/resume
/// layer: doubles travel by bit pattern (memcpy, never a decimal round
/// trip), so a deserialized simulation state is byte-for-byte the state
/// that was saved — the precondition for resumed runs reproducing the
/// uninterrupted run's digests exactly.
///
/// The encoding is host-endian and versioned by its consumers (every
/// snapshot is a frame with a magic, a format version and a trailing
/// checksum; see OpenFrame); snapshots are process-local batch
/// artifacts, not a wire format.
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { buffer_.push_back(v); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteSize(size_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  void WriteU8Vector(const std::vector<uint8_t>& v) {
    WriteSize(v.size());
    WriteRaw(v.data(), v.size());
  }
  void WriteU32Vector(const std::vector<uint32_t>& v) {
    WriteSize(v.size());
    WriteRaw(v.data(), v.size() * sizeof(uint32_t));
  }
  void WriteI64Vector(const std::vector<int64_t>& v) {
    WriteSize(v.size());
    WriteRaw(v.data(), v.size() * sizeof(int64_t));
  }
  void WriteDoubleVector(const std::vector<double>& v) {
    WriteSize(v.size());
    WriteRaw(v.data(), v.size() * sizeof(double));
  }

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t>&& TakeBuffer() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  void WriteRaw(const void* data, size_t n) {
    if (n == 0) return;
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + n);
  }

  std::vector<uint8_t> buffer_;
};

/// Reader over a byte span. Every Read* returns a value and never throws
/// or aborts on malformed input: a truncated or oversized field flips the
/// sticky ok() flag and yields zeros from then on, so consumers validate
/// once at the end (ok() plus their own magic/version/checksum fields)
/// instead of guarding every field read.
class BinaryReader {
 public:
  BinaryReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<uint8_t>& bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  uint8_t ReadU8() {
    uint8_t v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }
  uint32_t ReadU32() {
    uint32_t v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }
  uint64_t ReadU64() {
    uint64_t v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }
  int64_t ReadI64() {
    int64_t v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }
  size_t ReadSize() { return static_cast<size_t>(ReadU64()); }
  double ReadDouble() {
    double v = 0.0;
    ReadRaw(&v, sizeof(v));
    return v;
  }
  bool ReadBool() { return ReadU8() != 0; }

  std::vector<uint8_t> ReadU8Vector() { return ReadVector<uint8_t>(); }
  std::vector<uint32_t> ReadU32Vector() { return ReadVector<uint32_t>(); }
  std::vector<int64_t> ReadI64Vector() { return ReadVector<int64_t>(); }
  std::vector<double> ReadDoubleVector() { return ReadVector<double>(); }

  /// True iff every read so far was in bounds.
  bool ok() const { return ok_; }
  /// True iff the whole span has been consumed (and reading stayed ok).
  bool AtEnd() const { return ok_ && pos_ == size_; }
  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  void ReadRaw(void* out, size_t n) {
    // An empty vector's data() may be null, and null is not a valid
    // memcpy/memset argument even for zero bytes.
    if (n == 0) return;
    if (!ok_ || n > size_ - pos_) {
      ok_ = false;
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  template <typename T>
  std::vector<T> ReadVector() {
    const size_t count = ReadSize();
    // A corrupt length cannot claim more elements than bytes remain, so
    // a bad snapshot fails cleanly instead of attempting a huge
    // allocation.
    if (!ok_ || count > remaining() / sizeof(T)) {
      ok_ = false;
      return {};
    }
    std::vector<T> v(count);
    ReadRaw(v.data(), count * sizeof(T));
    return v;
  }

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Why a snapshot was refused. OpenFrame reports kTruncated through
/// kFingerprint, a body decoder kShape, and the checkpoint file layer
/// (sim/experiment.h) kUnreadable and kUnwritable. No reason ever
/// aborts: every one of them comes from bytes or paths the caller
/// handed in.
enum class SnapshotStatus {
  kOk,
  kTruncated,    ///< Too short to hold a frame.
  kMagic,        ///< Not a snapshot of this kind.
  kVersion,      ///< Another format version.
  kChecksum,     ///< The bytes changed after they were written.
  kFingerprint,  ///< Written under another configuration.
  kShape,        ///< A body the writer could not have produced.
  kUnreadable,   ///< Not a readable regular file.
  kUnwritable,   ///< Its directory does not accept a temp file.
};

/// The reason as one lowercase word ("ok", "truncated", "magic",
/// "version", "checksum", "fingerprint", "shape", "unreadable",
/// "unwritable").
const char* SnapshotStatusName(SnapshotStatus status);

/// The snapshot frame every checkpoint layer shares: a header (u32
/// magic, u32 format version, u64 fingerprint of the configuration that
/// can reproduce the snapshot), the body, and a u64 FNV-1a trailer over
/// every preceding byte. BeginFrame writes the header into an empty
/// writer, the caller writes the body, SealFrame appends the trailer.
void BeginFrame(uint32_t magic, uint32_t version, uint64_t fingerprint,
                BinaryWriter* writer);
void SealFrame(BinaryWriter* writer);

/// Checks the frame of `bytes` and points `body` at its body: kTruncated,
/// kMagic, kVersion, kChecksum and kFingerprint in that order, else kOk.
/// `body` is left alone unless the frame is kOk.
SnapshotStatus OpenFrame(const std::vector<uint8_t>& bytes, uint32_t magic,
                         uint32_t version, uint64_t fingerprint,
                         BinaryReader* body);

}  // namespace base
}  // namespace eqimpact

#endif  // EQIMPACT_BASE_SERIAL_H_
