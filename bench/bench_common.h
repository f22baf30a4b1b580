// What the two bench drivers, bench_micro (bench/micro/) and gdbmicro_suite
// (bench/suite.cc), share: the strict flag parser, dataset caching and the
// JSON artifact writer. A command line is `<program> <command> [flags]`;
// Driver::Parse rejects an unknown command, a flag the command does not
// read and a missing, unexpected or invalid value with the usage message,
// before any work, and the driver then exits 2.

#ifndef GDBMICRO_BENCH_BENCH_COMMON_H_
#define GDBMICRO_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/datasets/generators.h"
#include "src/graph/graph_data.h"
#include "src/graph/registry.h"
#include "src/util/json.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace bench {

// Flag value parsers: each returns false on an invalid value.
bool ParsePositiveDouble(const std::string& text, double* out);
/// Digits only: strtoull would accept a sign and wrap a negative value.
bool ParseUint64(const std::string& text, uint64_t* out);
/// An integer in [1, INT_MAX].
bool ParsePositiveInt(const std::string& text, int* out);
/// A number in [0, 1].
bool ParseFraction(const std::string& text, double* out);
/// A registered engine (EngineRegistry::Has).
bool ParseEngineName(const std::string& text, std::string* out);
/// A dataset the generators produce.
bool ParseDatasetName(const std::string& text, std::string* out);
/// "on" or "off".
bool ParseOnOff(const std::string& text, bool* out);
/// Any non-empty path.
bool ParsePath(const std::string& text, std::string* out);

/// A switch takes no value: it sets its flag to `value`.
template <bool value>
bool Switch(const std::string&, bool* out) {
  *out = value;
  return true;
}

/// Comma-separated values, each parsed with `parse`.
template <typename T, bool (*parse)(const std::string&, T*)>
bool ParseListOf(const std::string& text, std::vector<T>* out) {
  out->clear();
  for (const std::string& entry : Split(text, ',')) {
    T value{};
    if (!parse(entry, &value)) return false;
    out->push_back(value);
  }
  return true;
}

/// One flag of a driver: its name, what a valid value is (nullptr for a
/// switch) and how a value is checked and stored, usually a Set<...>.
template <typename Flags>
struct Flag {
  const char* name;
  const char* want;
  bool (*set)(const std::string& value, Flags* flags);
};

/// Flag::set that parses the value with `parse` into `member`, as in
/// Set<&MicroBenchFlags::rounds, ParsePositiveInt>.
template <auto member, auto parse>
bool Set(const std::string& value, auto* flags) {
  return parse(value, &(flags->*member));
}

/// Whether the space-separated flag list `reads` names `flag`.
bool Reads(const char* reads, std::string_view flag);

/// A driver's two tables. `Command`, its command row, has the members
/// `name`, `flags` (the flags it reads, space-separated) and `defaults`
/// (flags parsed before the command line).
template <typename Command, typename Flags>
struct Driver {
  const char* program;  // "bench_micro"
  const char* noun;     // what a command is called: "scenario"
  std::span<const Command> commands;
  std::span<const Flag<Flags>> flags;

  /// Prints `error`, every command with the flags it reads and the engine
  /// and dataset names to stderr. Returns 2, a usage error's exit status.
  int Usage(const std::string& error) const {
    std::fprintf(stderr, "%s: %s\nusage: %s <%s> [flags]\n", program,
                 error.c_str(), program, noun);
    size_t width = 0;
    for (const Command& c : commands) {
      width = std::max(width, std::strlen(c.name));
    }
    for (const Command& c : commands) {
      std::fprintf(stderr, "  %-*s", static_cast<int>(width + 1), c.name);
      for (const Flag<Flags>& f : flags) {
        if (!Reads(c.flags, f.name)) continue;
        std::fprintf(stderr, " --%s%s", f.name, f.want ? "=" : "");
      }
      std::fprintf(stderr, "\n");
    }
    std::fprintf(stderr, "engines: %s\ndatasets: %s\n",
                 Join(EngineRegistry::Instance().Names(), ",").c_str(),
                 Join(datasets::AllDatasetNames(), ",").c_str());
    return 2;
  }

  /// Finds the command argv[1] names and parses its defaults, then
  /// argv[2..], into `*out`. Returns nullptr after printing the usage
  /// message when the command line is invalid.
  const Command* Parse(int argc, char** argv, Flags* out) const {
    if (argc < 2) {
      Usage(StrFormat("no %s given", noun));
      return nullptr;
    }
    const Command* command = nullptr;
    for (const Command& c : commands) {
      if (std::string_view(argv[1]) == c.name) command = &c;
    }
    if (command == nullptr) {
      Usage(StrFormat("unknown %s %s", noun, argv[1]));
      return nullptr;
    }
    std::vector<std::string> args = command->defaults;
    args.insert(args.end(), argv + 2, argv + argc);
    for (const std::string& arg : args) {
      size_t eq = arg.find('=');
      std::string name = arg.substr(0, eq);
      const Flag<Flags>* flag = nullptr;
      for (const Flag<Flags>& f : flags) {
        if (name == std::string("--") + f.name) flag = &f;
      }
      if (flag == nullptr || !Reads(command->flags, flag->name)) {
        Usage(StrFormat("%s does not take %s", command->name, name.c_str()));
        return nullptr;
      }
      if ((flag->want != nullptr) != (eq != std::string::npos)) {
        Usage(flag->want ? StrFormat("%s needs =<%s>", name.c_str(), flag->want)
                         : StrFormat("%s takes no value", name.c_str()));
        return nullptr;
      }
      if (!flag->set(eq == std::string::npos ? "" : arg.substr(eq + 1), out)) {
        Usage(StrFormat("%s: want %s", arg.c_str(), flag->want));
        return nullptr;
      }
    }
    return command;
  }
};

/// Generates (and memoizes per process) a dataset at `scale` with the
/// generators' default seed, so that every driver measures the same graph.
const GraphData& GetDataset(const std::string& name, double scale);

/// Writes `doc` pretty-printed to `path` (the machine-readable
/// BENCH_*.json artifacts CI archives). Returns false on I/O error.
bool WriteJsonArtifact(const std::string& path, const Json& doc);

}  // namespace bench
}  // namespace gdbmicro

#endif  // GDBMICRO_BENCH_BENCH_COMMON_H_
