#include "src/storage/wal.h"

#include "src/util/varint.h"

namespace gdbmicro {

namespace {

void PutString(std::string* out, std::string_view s) {
  PutVarint64(out, s.size());
  out->append(s);
}

Result<std::string_view> GetString(std::string_view in, size_t* pos) {
  GDB_ASSIGN_OR_RETURN(uint64_t len, GetVarint64(in, pos));
  if (len > in.size() - *pos || *pos > in.size()) {
    return Status::Corruption("truncated string");
  }
  std::string_view s = in.substr(*pos, len);
  *pos += len;
  return s;
}

void PutRef(std::string* out, uint64_t value, bool pending) {
  out->push_back(pending ? '\1' : '\0');
  PutVarint64(out, value);
}

template <typename Ref>
Result<Ref> GetRef(std::string_view in, size_t* pos) {
  if (*pos >= in.size()) return Status::Corruption("truncated ref");
  uint8_t tag = static_cast<uint8_t>(in[(*pos)++]);
  if (tag > 1) return Status::Corruption("bad ref tag");
  GDB_ASSIGN_OR_RETURN(uint64_t value, GetVarint64(in, pos));
  Ref r;
  r.value = value;
  r.pending = tag == 1;
  return r;
}

void EncodeOp(const WriteOp& op, std::string* payload) {
  payload->push_back(static_cast<char>(op.kind));
  switch (op.kind) {
    case WriteOp::Kind::kAddVertex:
      PutString(payload, op.name);
      EncodePropertyMap(op.props, payload);
      break;
    case WriteOp::Kind::kAddEdge:
      PutRef(payload, op.src.value, op.src.pending);
      PutRef(payload, op.dst.value, op.dst.pending);
      PutString(payload, op.name);
      EncodePropertyMap(op.props, payload);
      break;
    case WriteOp::Kind::kSetVertexProperty:
      PutRef(payload, op.src.value, op.src.pending);
      PutString(payload, op.name);
      op.value.EncodeTo(payload);
      break;
    case WriteOp::Kind::kSetEdgeProperty:
      PutRef(payload, op.edge.value, op.edge.pending);
      PutString(payload, op.name);
      op.value.EncodeTo(payload);
      break;
    case WriteOp::Kind::kRemoveVertex:
      PutRef(payload, op.src.value, op.src.pending);
      break;
    case WriteOp::Kind::kRemoveEdge:
      PutRef(payload, op.edge.value, op.edge.pending);
      break;
    case WriteOp::Kind::kRemoveVertexProperty:
      PutRef(payload, op.src.value, op.src.pending);
      PutString(payload, op.name);
      break;
    case WriteOp::Kind::kRemoveEdgeProperty:
      PutRef(payload, op.edge.value, op.edge.pending);
      PutString(payload, op.name);
      break;
  }
}

Result<WriteOp> DecodeOp(std::string_view in) {
  size_t pos = 0;
  if (in.empty()) return Status::Corruption("empty mutation record");
  uint8_t raw_kind = static_cast<uint8_t>(in[pos++]);
  if (raw_kind < static_cast<uint8_t>(WriteOp::Kind::kAddVertex) ||
      raw_kind > static_cast<uint8_t>(WriteOp::Kind::kRemoveEdgeProperty)) {
    return Status::Corruption("unknown mutation kind");
  }
  WriteOp op;
  op.kind = static_cast<WriteOp::Kind>(raw_kind);
  switch (op.kind) {
    case WriteOp::Kind::kAddVertex: {
      GDB_ASSIGN_OR_RETURN(std::string_view label, GetString(in, &pos));
      op.name.assign(label);
      GDB_ASSIGN_OR_RETURN(op.props, DecodePropertyMap(in, &pos));
      break;
    }
    case WriteOp::Kind::kAddEdge: {
      GDB_ASSIGN_OR_RETURN(op.src, GetRef<VertexRef>(in, &pos));
      GDB_ASSIGN_OR_RETURN(op.dst, GetRef<VertexRef>(in, &pos));
      GDB_ASSIGN_OR_RETURN(std::string_view label, GetString(in, &pos));
      op.name.assign(label);
      GDB_ASSIGN_OR_RETURN(op.props, DecodePropertyMap(in, &pos));
      break;
    }
    case WriteOp::Kind::kSetVertexProperty: {
      GDB_ASSIGN_OR_RETURN(op.src, GetRef<VertexRef>(in, &pos));
      GDB_ASSIGN_OR_RETURN(std::string_view name, GetString(in, &pos));
      op.name.assign(name);
      GDB_ASSIGN_OR_RETURN(op.value, PropertyValue::DecodeFrom(in, &pos));
      break;
    }
    case WriteOp::Kind::kSetEdgeProperty: {
      GDB_ASSIGN_OR_RETURN(op.edge, GetRef<EdgeRef>(in, &pos));
      GDB_ASSIGN_OR_RETURN(std::string_view name, GetString(in, &pos));
      op.name.assign(name);
      GDB_ASSIGN_OR_RETURN(op.value, PropertyValue::DecodeFrom(in, &pos));
      break;
    }
    case WriteOp::Kind::kRemoveVertex: {
      GDB_ASSIGN_OR_RETURN(op.src, GetRef<VertexRef>(in, &pos));
      break;
    }
    case WriteOp::Kind::kRemoveEdge: {
      GDB_ASSIGN_OR_RETURN(op.edge, GetRef<EdgeRef>(in, &pos));
      break;
    }
    case WriteOp::Kind::kRemoveVertexProperty: {
      GDB_ASSIGN_OR_RETURN(op.src, GetRef<VertexRef>(in, &pos));
      GDB_ASSIGN_OR_RETURN(std::string_view name, GetString(in, &pos));
      op.name.assign(name);
      break;
    }
    case WriteOp::Kind::kRemoveEdgeProperty: {
      GDB_ASSIGN_OR_RETURN(op.edge, GetRef<EdgeRef>(in, &pos));
      GDB_ASSIGN_OR_RETURN(std::string_view name, GetString(in, &pos));
      op.name.assign(name);
      break;
    }
  }
  if (pos != in.size()) {
    return Status::Corruption("trailing bytes in mutation record");
  }
  return op;
}

}  // namespace

std::string_view WriteOpKindToString(WriteOp::Kind k) {
  switch (k) {
    case WriteOp::Kind::kAddVertex:
      return "add-vertex";
    case WriteOp::Kind::kAddEdge:
      return "add-edge";
    case WriteOp::Kind::kSetVertexProperty:
      return "set-vertex-property";
    case WriteOp::Kind::kSetEdgeProperty:
      return "set-edge-property";
    case WriteOp::Kind::kRemoveVertex:
      return "remove-vertex";
    case WriteOp::Kind::kRemoveEdge:
      return "remove-edge";
    case WriteOp::Kind::kRemoveVertexProperty:
      return "remove-vertex-property";
    case WriteOp::Kind::kRemoveEdgeProperty:
      return "remove-edge-property";
  }
  return "?";
}

// --- WriteBatch -------------------------------------------------------------

PendingVertex WriteBatch::AddVertex(std::string_view label,
                                    PropertyMap props) {
  WriteOp op;
  op.kind = WriteOp::Kind::kAddVertex;
  op.name.assign(label);
  op.props = std::move(props);
  ops_.push_back(std::move(op));
  return PendingVertex{pending_vertices_++};
}

PendingEdge WriteBatch::AddEdge(VertexRef src, VertexRef dst,
                                std::string_view label, PropertyMap props) {
  WriteOp op;
  op.kind = WriteOp::Kind::kAddEdge;
  op.src = src;
  op.dst = dst;
  op.name.assign(label);
  op.props = std::move(props);
  ops_.push_back(std::move(op));
  return PendingEdge{pending_edges_++};
}

void WriteBatch::SetVertexProperty(VertexRef v, std::string_view name,
                                   PropertyValue value) {
  WriteOp op;
  op.kind = WriteOp::Kind::kSetVertexProperty;
  op.src = v;
  op.name.assign(name);
  op.value = std::move(value);
  ops_.push_back(std::move(op));
}

void WriteBatch::SetEdgeProperty(EdgeRef e, std::string_view name,
                                 PropertyValue value) {
  WriteOp op;
  op.kind = WriteOp::Kind::kSetEdgeProperty;
  op.edge = e;
  op.name.assign(name);
  op.value = std::move(value);
  ops_.push_back(std::move(op));
}

void WriteBatch::RemoveVertex(VertexRef v) {
  WriteOp op;
  op.kind = WriteOp::Kind::kRemoveVertex;
  op.src = v;
  ops_.push_back(std::move(op));
}

void WriteBatch::RemoveEdge(EdgeRef e) {
  WriteOp op;
  op.kind = WriteOp::Kind::kRemoveEdge;
  op.edge = e;
  ops_.push_back(std::move(op));
}

void WriteBatch::RemoveVertexProperty(VertexRef v, std::string_view name) {
  WriteOp op;
  op.kind = WriteOp::Kind::kRemoveVertexProperty;
  op.src = v;
  op.name.assign(name);
  ops_.push_back(std::move(op));
}

void WriteBatch::RemoveEdgeProperty(EdgeRef e, std::string_view name) {
  WriteOp op;
  op.kind = WriteOp::Kind::kRemoveEdgeProperty;
  op.edge = e;
  op.name.assign(name);
  ops_.push_back(std::move(op));
}

Status WriteBatch::Validate() const {
  uint64_t vertices = 0;
  uint64_t edges = 0;
  auto check_vertex = [&vertices](const VertexRef& r) {
    return !r.pending || r.value < vertices;
  };
  auto check_edge = [&edges](const EdgeRef& r) {
    return !r.pending || r.value < edges;
  };
  for (size_t i = 0; i < ops_.size(); ++i) {
    const WriteOp& op = ops_[i];
    bool ok = true;
    switch (op.kind) {
      case WriteOp::Kind::kAddVertex:
        ++vertices;
        break;
      case WriteOp::Kind::kAddEdge:
        ok = check_vertex(op.src) && check_vertex(op.dst);
        ++edges;
        break;
      case WriteOp::Kind::kSetVertexProperty:
      case WriteOp::Kind::kRemoveVertex:
      case WriteOp::Kind::kRemoveVertexProperty:
        ok = check_vertex(op.src);
        break;
      case WriteOp::Kind::kSetEdgeProperty:
      case WriteOp::Kind::kRemoveEdge:
      case WriteOp::Kind::kRemoveEdgeProperty:
        ok = check_edge(op.edge);
        break;
    }
    if (!ok) {
      return Status::InvalidArgument(
          "op " + std::to_string(i) + " (" +
          std::string(WriteOpKindToString(op.kind)) +
          ") forward-references an element not yet created in this batch");
    }
  }
  return Status::OK();
}

// --- Wal --------------------------------------------------------------------

// The log's extent size (small: the WAL is its own file, not the
// BlazeGraph store journal).
constexpr uint64_t kLogExtentBytes = 256 << 10;

Wal::Wal() : log_(kLogExtentBytes, 1) {}

Result<uint64_t> Wal::LogBatch(const WriteBatch& batch) {
  if (batch.empty()) {
    return Status::InvalidArgument("empty write batch");
  }
  if (log_.dead()) {
    return Status::IOError("write-ahead log device failed");
  }
  GDB_RETURN_IF_ERROR(batch.Validate());

  uint64_t sequence = next_sequence_++;
  frames_.clear();
  for (const WriteOp& op : batch.ops()) {
    payload_.clear();
    EncodeOp(op, &payload_);
    Journal::EncodeRecord(WalRecordType::kMutation, payload_, &frames_);
  }
  payload_.clear();
  PutVarint64(&payload_, sequence);
  PutVarint64(&payload_, batch.size());
  Journal::EncodeRecord(WalRecordType::kCommit, payload_, &frames_);
  ++commits_logged_;
  // One device write per commit: the batch is durable once it returns.
  GDB_RETURN_IF_ERROR(log_.AppendDurable(frames_).status());
  ++flushes_;
  return sequence;
}

Result<RecoveryStats> Wal::Recover(Journal& log, const BatchApplier& apply) {
  RecoveredBatch batch;
  // Journal::Recover delivers a batch only when its commit frame arrived,
  // and delivers only kMutation and kCommit frames.
  return log.Recover([&](WalRecordType type,
                         std::string_view payload) -> Status {
    if (type == WalRecordType::kMutation) {
      GDB_ASSIGN_OR_RETURN(WriteOp op, DecodeOp(payload));
      batch.ops.push_back(std::move(op));
      return Status::OK();
    }
    size_t pos = 0;
    GDB_ASSIGN_OR_RETURN(uint64_t sequence, GetVarint64(payload, &pos));
    GDB_ASSIGN_OR_RETURN(uint64_t op_count, GetVarint64(payload, &pos));
    if (op_count != batch.ops.size()) {
      return Status::Corruption(
          "commit record op count " + std::to_string(op_count) +
          " does not match " + std::to_string(batch.ops.size()) +
          " buffered mutations");
    }
    batch.sequence = sequence;
    Status applied = apply(batch);
    batch = RecoveredBatch{};
    return applied;
  });
}

}  // namespace gdbmicro
