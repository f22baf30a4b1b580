#include "bench/bench_common.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>

namespace gdbmicro {
namespace bench {

namespace {

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text.c_str(), &end);
  return errno == 0 && *end == '\0' && std::isfinite(*out);
}

}  // namespace

bool ParsePositiveDouble(const std::string& text, double* out) {
  return ParseDouble(text, out) && *out > 0;
}

bool ParseUint64(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != text.npos) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return errno == 0;
}

bool ParsePositiveInt(const std::string& text, int* out) {
  uint64_t value = 0;
  if (!ParseUint64(text, &value) || value < 1 ||
      value > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ParseFraction(const std::string& text, double* out) {
  return ParseDouble(text, out) && *out >= 0.0 && *out <= 1.0;
}

bool ParseEngineName(const std::string& text, std::string* out) {
  *out = text;
  return EngineRegistry::Instance().Has(text);
}

bool ParseDatasetName(const std::string& text, std::string* out) {
  *out = text;
  std::vector<std::string> names = datasets::AllDatasetNames();
  return std::find(names.begin(), names.end(), text) != names.end();
}

bool ParseOnOff(const std::string& text, bool* out) {
  *out = text == "on";
  return text == "on" || text == "off";
}

bool ParsePath(const std::string& text, std::string* out) {
  *out = text;
  return !text.empty();
}

bool Reads(const char* reads, std::string_view flag) {
  for (const std::string& name : Split(reads, ' ')) {
    if (name == flag) return true;
  }
  return false;
}

const GraphData& GetDataset(const std::string& name, double scale) {
  static std::map<std::string, GraphData>* cache =
      new std::map<std::string, GraphData>();
  std::string key = name + "@" + StrFormat("%.6f", scale);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;
  datasets::GenOptions options;
  options.scale = scale;
  auto data = datasets::GenerateByName(name, options);
  if (!data.ok()) {
    std::fprintf(stderr, "cannot generate dataset %s: %s\n", name.c_str(),
                 data.status().ToString().c_str());
    std::exit(2);
  }
  return cache->emplace(key, std::move(data).value()).first->second;
}

bool WriteJsonArtifact(const std::string& path, const Json& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::string text = doc.Pretty();
  text += '\n';
  bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  bool closed = std::fclose(f) == 0;  // always close, even on short write
  if (!wrote || !closed) {
    std::fprintf(stderr, "failed writing %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace bench
}  // namespace gdbmicro
