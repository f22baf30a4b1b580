#include "src/gson/graphson.h"

#include <fstream>
#include <sstream>
#include <unordered_map>

#include "src/util/json.h"
#include "src/util/string_util.h"

namespace gdbmicro {

std::string WriteGraphSON(const GraphData& data) {
  // Streaming serialization: datasets can be large, so we avoid building
  // one giant Json tree.
  std::string out;
  out += "{\"mode\":\"NORMAL\",\"vertices\":[";
  auto append_props = [&out](const PropertyMap& props) {
    for (const auto& [k, v] : props) {
      out += ',';
      out += Json(k).Dump();
      out += ':';
      out += v.ToJson().Dump();
    }
  };
  for (size_t i = 0; i < data.vertices.size(); ++i) {
    if (i) out += ',';
    const auto& v = data.vertices[i];
    out += StrFormat("{\"_id\":%zu,\"_type\":\"vertex\",\"_label\":%s", i,
                     Json(v.label).Dump().c_str());
    append_props(v.properties);
    out += '}';
  }
  out += "],\"edges\":[";
  for (size_t i = 0; i < data.edges.size(); ++i) {
    if (i) out += ',';
    const auto& e = data.edges[i];
    out += StrFormat(
        "{\"_id\":%zu,\"_type\":\"edge\",\"_outV\":%llu,\"_inV\":%llu,"
        "\"_label\":%s",
        i, static_cast<unsigned long long>(e.src),
        static_cast<unsigned long long>(e.dst), Json(e.label).Dump().c_str());
    append_props(e.properties);
    out += '}';
  }
  out += "]}";
  return out;
}

namespace {

PropertyMap ExtractProperties(const Json::Object& obj) {
  PropertyMap props;
  for (const auto& [k, v] : obj) {
    if (!k.empty() && k[0] == '_') continue;  // reserved GraphSON key
    props.emplace_back(k, PropertyValue::FromJson(v));
  }
  return props;
}

}  // namespace

Result<GraphData> ReadGraphSON(const std::string& text) {
  GDB_ASSIGN_OR_RETURN(Json doc, Json::Parse(text));
  if (!doc.is_object()) return Status::Corruption("GraphSON root not an object");

  GraphData data;
  std::unordered_map<int64_t, uint64_t> id_to_index;

  const Json* vertices = doc.Find("vertices");
  if (vertices == nullptr || !vertices->is_array()) {
    return Status::Corruption("GraphSON missing \"vertices\" array");
  }
  for (const Json& jv : vertices->array()) {
    if (!jv.is_object()) return Status::Corruption("vertex not an object");
    const Json* id = jv.Find("_id");
    if (id == nullptr || !id->is_number()) {
      return Status::Corruption("vertex missing numeric _id");
    }
    GraphData::Vertex v;
    const Json* label = jv.Find("_label");
    v.label = (label != nullptr && label->is_string()) ? label->string_value()
                                                       : "vertex";
    v.properties = ExtractProperties(jv.object());
    auto [it, inserted] = id_to_index.emplace(id->int_value(),
                                              data.vertices.size());
    if (!inserted) {
      return Status::Corruption(
          StrFormat("duplicate vertex _id %lld",
                    static_cast<long long>(id->int_value())));
    }
    data.vertices.push_back(std::move(v));
  }

  const Json* edges = doc.Find("edges");
  if (edges == nullptr || !edges->is_array()) {
    return Status::Corruption("GraphSON missing \"edges\" array");
  }
  for (const Json& je : edges->array()) {
    if (!je.is_object()) return Status::Corruption("edge not an object");
    const Json* out_v = je.Find("_outV");
    const Json* in_v = je.Find("_inV");
    if (out_v == nullptr || in_v == nullptr || !out_v->is_number() ||
        !in_v->is_number()) {
      return Status::Corruption("edge missing _outV/_inV");
    }
    auto src_it = id_to_index.find(out_v->int_value());
    auto dst_it = id_to_index.find(in_v->int_value());
    if (src_it == id_to_index.end() || dst_it == id_to_index.end()) {
      return Status::Corruption("edge references unknown vertex");
    }
    GraphData::Edge e;
    e.src = src_it->second;
    e.dst = dst_it->second;
    const Json* label = je.Find("_label");
    e.label = (label != nullptr && label->is_string()) ? label->string_value()
                                                       : "edge";
    e.properties = ExtractProperties(je.object());
    data.edges.push_back(std::move(e));
  }
  return data;
}

Status WriteGraphSONFile(const GraphData& data, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path);
  std::string text = WriteGraphSON(data);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

Result<GraphData> ReadGraphSONFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ReadGraphSON(ss.str());
}

}  // namespace gdbmicro
