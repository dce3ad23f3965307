#include "analyze/source_model.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace ntr::analyze {

namespace {

bool scannable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

void walk(const std::filesystem::path& dir,
          std::vector<std::filesystem::path>& files) {
  std::vector<std::filesystem::path> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    entries.push_back(entry.path());
  std::sort(entries.begin(), entries.end());
  for (const std::filesystem::path& p : entries) {
    const std::string name = p.filename().string();
    // Hidden entries include editor lock files (Emacs's `.#x.cpp` is a
    // dangling symlink), which must not read as unreadable sources.
    if (name.empty() || name.front() == '.') continue;
    if (std::filesystem::is_directory(p)) {
      if (name.starts_with("build") || name == "analyze_fixtures") continue;
      walk(p, files);
    } else if (scannable(p)) {
      files.push_back(p);
    }
  }
}

std::string relative_path(const std::filesystem::path& root,
                          const std::filesystem::path& file) {
  std::error_code ec;
  std::filesystem::path rel = std::filesystem::relative(file, root, ec);
  if (ec || rel.empty() || *rel.begin() == "..") rel = file;
  return rel.generic_string();
}

/// Lexically normalizes "a/b/../c" -> "a/c" so includes resolved against
/// the including file's directory land on index keys.
std::string normalize(std::string_view path) {
  return std::filesystem::path(path).lexically_normal().generic_string();
}

std::string dirname(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? std::string()
                                         : std::string(path.substr(0, slash));
}

}  // namespace

int Project::find_index(std::string_view path) const {
  const auto it = index_.find(path);
  return it == index_.end() ? -1 : it->second;
}

const SourceFile* Project::find(std::string_view path) const {
  const int i = find_index(path);
  return i < 0 ? nullptr : &files[static_cast<std::size_t>(i)];
}

std::string_view Project::raw_line(std::size_t file, std::size_t line) const {
  if (file >= files.size()) return {};
  const auto& lines = files[file].lexed.raw_lines;
  if (line == 0 || line > lines.size()) return {};
  return lines[line - 1];
}

std::string module_of(std::string_view relpath) {
  const std::size_t slash = relpath.find('/');
  if (slash == std::string_view::npos) {
    // A bare file at the project root: use its stem.
    const std::size_t dot = relpath.rfind('.');
    return std::string(relpath.substr(0, dot));
  }
  const std::string_view first = relpath.substr(0, slash);
  if (first != "src") return std::string(first);
  const std::string_view rest = relpath.substr(slash + 1);
  const std::size_t slash2 = rest.find('/');
  if (slash2 == std::string_view::npos) {
    const std::size_t dot = rest.rfind('.');
    return std::string(rest.substr(0, dot));  // src/ntr.h -> "ntr"
  }
  return std::string(rest.substr(0, slash2));
}

Project load_project(const std::filesystem::path& root,
                     std::span<const std::filesystem::path> paths,
                     std::string& error) {
  Project project;
  project.root = root;

  std::vector<std::filesystem::path> files;
  for (const std::filesystem::path& p : paths) {
    if (std::filesystem::is_directory(p)) {
      walk(p, files);
    } else {
      files.push_back(p);
    }
  }

  for (const std::filesystem::path& f : files) {
    SourceFile sf;
    sf.path = relative_path(root, f);
    sf.module_name = module_of(sf.path);
    const std::string ext = f.extension().string();
    sf.is_header = ext == ".h" || ext == ".hpp";
    std::ifstream in(f, std::ios::binary);
    if (!in) {
      error = "cannot read file: " + sf.path;
      return project;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    sf.content = buffer.str();
    sf.lexed = lex_source(sf.content);
    sf.parsed = parse_source(sf.lexed);
    project.files.push_back(std::move(sf));
  }
  std::sort(project.files.begin(), project.files.end(),
            [](const SourceFile& a, const SourceFile& b) { return a.path < b.path; });
  project.files.erase(
      std::unique(project.files.begin(), project.files.end(),
                  [](const SourceFile& a, const SourceFile& b) {
                    return a.path == b.path;
                  }),
      project.files.end());
  for (std::size_t i = 0; i < project.files.size(); ++i)
    project.index_.emplace(project.files[i].path, static_cast<int>(i));

  // Resolve quoted includes. The repo compiles everything with src/ as
  // the single quote-include root, so "graph/net.h" means src/graph/net.h
  // from anywhere; fixture mini-projects follow the same convention
  // relative to their own root.
  for (SourceFile& sf : project.files) {
    sf.resolved_includes.reserve(sf.lexed.includes.size());
    const std::string dir = dirname(sf.path);
    for (const IncludeDirective& inc : sf.lexed.includes) {
      int target = -1;
      if (!inc.angled) {
        for (const std::string& candidate :
             {dir.empty() ? inc.path : normalize(dir + "/" + inc.path),
              "src/" + inc.path, inc.path}) {
          target = project.find_index(candidate);
          if (target >= 0) break;
        }
      }
      sf.resolved_includes.push_back(target);
    }
  }
  return project;
}

}  // namespace ntr::analyze
