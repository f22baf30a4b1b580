#include "src/storage/journal.h"

#include <array>
#include <vector>

#include "src/util/rng.h"
#include "src/util/varint.h"

namespace gdbmicro {

namespace {

// CRC32C (Castagnoli polynomial, reflected: 0x82f63b78) lookup table,
// built once. Software slice-by-one is plenty for log-frame sizes.
const std::array<uint32_t, 256>& Crc32cTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ (0x82f63b78u & (0u - (crc & 1u)));
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

constexpr size_t kFrameTypeBytes = 1;
constexpr size_t kFrameCrcBytes = 4;

void PutFixed32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

uint32_t GetFixed32(std::string_view in, size_t pos) {
  return static_cast<uint32_t>(static_cast<unsigned char>(in[pos])) |
         static_cast<uint32_t>(static_cast<unsigned char>(in[pos + 1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[pos + 2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[pos + 3])) << 24;
}

}  // namespace

uint32_t Crc32c(std::string_view data, uint32_t seed) {
  const auto& table = Crc32cTable();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (unsigned char c : data) {
    crc = table[(crc ^ c) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string_view FaultModeToString(FaultMode m) {
  switch (m) {
    case FaultMode::kNone:
      return "none";
    case FaultMode::kFailAppend:
      return "fail-append";
    case FaultMode::kShortWrite:
      return "short-write";
    case FaultMode::kTornWrite:
      return "torn-write";
    case FaultMode::kBitFlip:
      return "bit-flip";
  }
  return "?";
}

FaultInjector::Verdict FaultInjector::Intercept(std::string_view data) {
  Verdict v;
  v.bytes.assign(data);
  ++appends_seen_;
  if (fired_ || mode_ == FaultMode::kNone || appends_seen_ != trigger_append_) {
    return v;
  }
  fired_ = true;
  Rng rng(seed_);
  switch (mode_) {
    case FaultMode::kNone:
      break;
    case FaultMode::kFailAppend:
      v.fail = true;
      v.device_dead = true;
      v.bytes.clear();
      break;
    case FaultMode::kShortWrite: {
      // Persist a strict prefix: the write stopped partway (power loss).
      uint64_t keep = data.empty() ? 0 : rng.Uniform(data.size());
      v.bytes.resize(keep);
      v.device_dead = true;
      break;
    }
    case FaultMode::kTornWrite: {
      // A prefix lands, but with a zeroed gash inside: sectors were
      // written out of order and the crash caught the middle one.
      uint64_t keep = data.empty() ? 0 : rng.Uniform(data.size()) + 1;
      v.bytes.resize(keep);
      if (keep > 1) {
        uint64_t gash_begin = rng.Uniform(keep);
        uint64_t gash_end = gash_begin + 1 + rng.Uniform(keep - gash_begin);
        for (uint64_t i = gash_begin; i < gash_end && i < keep; ++i) {
          v.bytes[i] = '\0';
        }
      }
      v.device_dead = true;
      break;
    }
    case FaultMode::kBitFlip: {
      // Silent media corruption: the append "succeeds" and the device
      // lives on; only a checksum can notice.
      if (!v.bytes.empty()) {
        uint64_t byte = rng.Uniform(v.bytes.size());
        v.bytes[byte] = static_cast<char>(
            static_cast<unsigned char>(v.bytes[byte]) ^
            (1u << rng.Uniform(8)));
      }
      break;
    }
  }
  return v;
}

Journal::Journal(uint64_t extent_bytes, uint64_t initial_extents)
    : extent_bytes_(extent_bytes), allocated_(extent_bytes * initial_extents) {
  data_.reserve(allocated_);
}

uint64_t Journal::Append(std::string_view data) {
  uint64_t offset = used_;
  data_.append(data);
  used_ += data.size();
  while (used_ > allocated_) allocated_ += extent_bytes_;
  return offset;
}

Result<uint64_t> Journal::AppendDurable(std::string_view data) {
  if (dead_) {
    return Status::IOError("journal device failed by an injected fault");
  }
  if (injector_ == nullptr) return Append(data);
  FaultInjector::Verdict v = injector_->Intercept(data);
  if (v.device_dead) dead_ = true;
  if (v.fail) {
    return Status::IOError("injected append failure (" +
                           std::string(FaultModeToString(injector_->mode())) +
                           ")");
  }
  return Append(v.bytes);
}

void Journal::EncodeRecord(WalRecordType type, std::string_view payload,
                           std::string* out) {
  PutVarint64(out, payload.size());
  out->push_back(static_cast<char>(type));
  uint32_t crc = Crc32c(payload, Crc32c(std::string_view(
                                     reinterpret_cast<const char*>(&type), 1)));
  PutFixed32(out, crc);
  out->append(payload);
}

void Journal::Truncate(uint64_t used) {
  if (used >= used_) return;
  data_.resize(used);
  used_ = used;
}

Result<RecoveryStats> Journal::Recover(const RecordVisitor& visit) {
  RecoveryStats stats;
  stats.scanned_bytes = used_;

  struct Span {
    WalRecordType type;
    uint64_t offset;
    uint64_t len;
  };
  std::vector<Span> batch;  // records since the last commit, undelivered
  std::string_view bytes(data_.data(), used_);
  size_t pos = 0;
  uint64_t last_commit_end = 0;
  Status tail = Status::OK();

  while (pos < used_ && tail.ok()) {
    size_t frame_start = pos;
    Result<uint64_t> len = GetVarint64(bytes, &pos);
    if (!len.ok()) {
      tail = Status::Corruption("torn frame length at offset " +
                                std::to_string(frame_start));
      break;
    }
    if (*len > used_ - pos || used_ - pos - *len < kFrameTypeBytes +
                                                      kFrameCrcBytes) {
      tail = Status::Corruption("torn frame at offset " +
                                std::to_string(frame_start));
      break;
    }
    uint8_t raw_type = static_cast<uint8_t>(bytes[pos]);
    uint32_t stored_crc = GetFixed32(bytes, pos + kFrameTypeBytes);
    std::string_view payload =
        bytes.substr(pos + kFrameTypeBytes + kFrameCrcBytes, *len);
    uint32_t actual_crc = Crc32c(
        payload, Crc32c(std::string_view(bytes.data() + pos, 1)));
    if (actual_crc != stored_crc) {
      tail = Status::Corruption("checksum mismatch at offset " +
                                std::to_string(frame_start));
      break;
    }
    if (raw_type < static_cast<uint8_t>(WalRecordType::kMutation) ||
        raw_type > static_cast<uint8_t>(WalRecordType::kCommit)) {
      tail = Status::Corruption("unknown record type at offset " +
                                std::to_string(frame_start));
      break;
    }
    WalRecordType type = static_cast<WalRecordType>(raw_type);
    pos += kFrameTypeBytes + kFrameCrcBytes + *len;

    if (type != WalRecordType::kCommit) {
      batch.push_back(Span{type, pos - *len, *len});
      continue;
    }

    // A commit frame seals the buffered batch: deliver it atomically.
    Status delivered = Status::OK();
    for (const Span& span : batch) {
      delivered = visit(span.type, bytes.substr(span.offset, span.len));
      if (!delivered.ok()) break;
    }
    if (delivered.ok()) {
      delivered = visit(WalRecordType::kCommit, payload);
    }
    if (!delivered.ok()) {
      if (delivered.code() == StatusCode::kCorruption) {
        // The batch's payload is bad (e.g. a mutation record that does
        // not decode): keep the prefix up to the previous commit and
        // type the tail.
        tail = std::move(delivered);
        break;
      }
      return delivered;  // hard application failure, not a log problem
    }
    stats.records_applied += batch.size() + 1;
    ++stats.commits_applied;
    batch.clear();
    last_commit_end = pos;
  }

  if (tail.ok() && last_commit_end < used_) {
    // Clean frames but no sealing commit: an in-flight batch died with
    // the writer.
    tail = Status::Corruption("uncommitted tail after offset " +
                              std::to_string(last_commit_end));
  }
  stats.valid_bytes = last_commit_end;
  stats.truncated_bytes = stats.scanned_bytes - last_commit_end;
  stats.tail = stats.truncated_bytes == 0 ? Status::OK() : std::move(tail);
  Truncate(last_commit_end);
  return stats;
}

void Journal::Serialize(std::string* out) const {
  PutVarint64(out, extent_bytes_);
  PutVarint64(out, allocated_);
  PutVarint64(out, used_);
  out->append(data_);
  // Pad to the allocated extent boundary: the journal file on disk has
  // fixed-size extents regardless of content.
  if (allocated_ > used_) out->append(allocated_ - used_, '\0');
}

}  // namespace gdbmicro
