#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/cpp_lexer.h"
#include "analyze/cpp_parser.h"

namespace ntr::analyze {

/// One scanned translation unit / header, with its lexed form and its
/// project-internal include edges resolved.
struct SourceFile {
  std::string path;         ///< repo-relative, '/' separators
  std::string module_name;  ///< "core", "graph", ..., "tools", "tests", "ntr"
  bool is_header = false;
  std::string content;      ///< raw bytes, for suppression lookups
  LexedSource lexed;
  /// The scope-aware parse of `lexed`, built once at load time and shared
  /// by every pass that needs it (dataflow, call graph, reachability) so
  /// no pass re-lexes or re-parses a file.
  ParsedSource parsed;
  /// Parallel to lexed.includes: index into Project::files of the target,
  /// or -1 for system/external headers (and unresolved paths).
  std::vector<int> resolved_includes;
};

/// The whole scanned project: every file reachable from the requested
/// roots, sorted by path so all downstream reports are deterministic.
struct Project {
  std::filesystem::path root;
  std::vector<SourceFile> files;

  [[nodiscard]] int find_index(std::string_view path) const;
  [[nodiscard]] const SourceFile* find(std::string_view path) const;

  /// The raw text of `line` (1-based) in files[file], or "" out of range.
  [[nodiscard]] std::string_view raw_line(std::size_t file,
                                          std::size_t line) const;

 private:
  friend Project load_project(const std::filesystem::path&,
                              std::span<const std::filesystem::path>,
                              std::string&);
  std::map<std::string, int, std::less<>> index_;
};

/// Module a repo-relative path belongs to: `src/<m>/...` -> "<m>", a file
/// directly in src/ -> its stem (the umbrella header src/ntr.h is module
/// "ntr"), otherwise the first path component ("tools", "tests", "bench",
/// "examples"). The same convention applies inside fixture mini-projects,
/// whose roots are passed as `root`.
[[nodiscard]] std::string module_of(std::string_view relpath);

/// Walks `paths` (files, or directories scanned recursively for
/// .h/.hpp/.cc/.cpp; hidden files and directories, build* directories and
/// the fixture corpus are skipped unless passed explicitly), lexes and
/// parses every file, and resolves quoted includes against (a) the
/// including file's directory and (b) `<root>/src/<path>` -- the repo's
/// single include root -- and (c) `<root>/<path>`. A file that cannot be
/// read sets `error` naming it: a scan that silently skipped it would
/// report the tree clean.
[[nodiscard]] Project load_project(const std::filesystem::path& root,
                                   std::span<const std::filesystem::path> paths,
                                   std::string& error);

}  // namespace ntr::analyze
