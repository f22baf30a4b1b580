#include "src/storage/append_store.h"

#include "src/util/varint.h"

namespace gdbmicro {

uint64_t AppendStore::AppendPhysical(std::string_view data) {
  uint64_t offset = log_.size();
  PutVarint64(&log_, data.size());
  log_.append(data);
  return offset;
}

uint64_t AppendStore::Append(std::string_view data) {
  uint64_t id = positions_.size();
  positions_.push_back(AppendPhysical(data));
  ++live_count_;
  return id;
}

Status AppendStore::Update(uint64_t id, std::string_view data) {
  if (!IsLive(id)) return Status::NotFound("record not live");
  positions_[id] = AppendPhysical(data);
  return Status::OK();
}

Status AppendStore::Delete(uint64_t id) {
  if (!IsLive(id)) return Status::NotFound("record not live");
  positions_[id] = kTombstone;
  --live_count_;
  return Status::OK();
}

Result<std::string_view> AppendStore::Read(uint64_t id) const {
  if (!IsLive(id)) return Status::NotFound("record not live");
  size_t pos = positions_[id];
  GDB_ASSIGN_OR_RETURN(uint64_t len, GetVarint64(log_, &pos));
  if (pos + len > log_.size()) return Status::Corruption("truncated record");
  return std::string_view(log_.data() + pos, len);
}

void AppendStore::Serialize(std::string* out) const {
  PutVarint64(out, positions_.size());
  for (uint64_t p : positions_) {
    PutVarint64(out, p == kTombstone ? 0 : p + 1);
  }
  PutVarint64(out, log_.size());
  out->append(log_);
}

void AppendStore::SerializeCompacted(std::string* out) const {
  // Rebuild positions against a compacted log image.
  std::string log;
  std::vector<uint64_t> positions;
  positions.reserve(positions_.size());
  for (uint64_t id = 0; id < positions_.size(); ++id) {
    if (positions_[id] == kTombstone) {
      positions.push_back(kTombstone);
      continue;
    }
    auto data = Read(id);
    if (!data.ok()) {
      positions.push_back(kTombstone);
      continue;
    }
    positions.push_back(log.size());
    PutVarint64(&log, data->size());
    log.append(*data);
  }
  PutVarint64(out, positions.size());
  for (uint64_t p : positions) {
    PutVarint64(out, p == kTombstone ? 0 : p + 1);
  }
  PutVarint64(out, log.size());
  out->append(log);
}

}  // namespace gdbmicro
