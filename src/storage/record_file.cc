#include "src/storage/record_file.h"

#include <cassert>
#include <cstring>

#include "src/util/varint.h"

namespace gdbmicro {

RecordFile::RecordFile(uint32_t record_size) : record_size_(record_size) {
  assert(record_size_ >= 9);
}

uint64_t RecordFile::Allocate() {
  uint64_t id;
  if (free_head_ != kNoRecord) {
    id = free_head_;
    std::memcpy(&free_head_, SlotPtr(id) + 1, sizeof(uint64_t));
  } else {
    id = slot_count_++;
    buffer_.resize(slot_count_ * record_size_, '\0');
  }
  char* slot = SlotPtr(id);
  std::memset(slot, 0, record_size_);
  slot[0] = 1;  // live
  ++live_count_;
  return id;
}

Status RecordFile::Free(uint64_t id) {
  if (id >= slot_count_) return Status::OutOfRange("record id out of range");
  char* slot = SlotPtr(id);
  if (slot[0] != 1) return Status::InvalidArgument("double free of record");
  slot[0] = 0;
  std::memcpy(slot + 1, &free_head_, sizeof(uint64_t));
  free_head_ = id;
  --live_count_;
  return Status::OK();
}

bool RecordFile::IsLive(uint64_t id) const {
  return id < slot_count_ && SlotPtr(id)[0] == 1;
}

Status RecordFile::Write(uint64_t id, std::string_view data) {
  if (!IsLive(id)) return Status::NotFound("record not live");
  if (data.size() > record_size_ - 1u) {
    return Status::InvalidArgument("record payload too large");
  }
  char* slot = SlotPtr(id);
  std::memcpy(slot + 1, data.data(), data.size());
  if (data.size() < record_size_ - 1u) {
    std::memset(slot + 1 + data.size(), 0, record_size_ - 1 - data.size());
  }
  return Status::OK();
}

Result<std::string_view> RecordFile::Read(uint64_t id) const {
  if (!IsLive(id)) return Status::NotFound("record not live");
  return std::string_view(SlotPtr(id) + 1, record_size_ - 1);
}

void RecordFile::Serialize(std::string* out) const {
  PutVarint64(out, record_size_);
  PutVarint64(out, slot_count_);
  PutVarint64(out, live_count_);
  PutVarint64(out, free_head_ == kNoRecord ? 0 : free_head_ + 1);
  out->append(buffer_);
}

}  // namespace gdbmicro
