#pragma once

#include <vector>

#include "analyze/lint.h"
#include "analyze/source_model.h"

namespace ntr::analyze {

/// IWYU-lite pass over the project include lists. Two rules:
///
///   unused-include      a direct quoted include of a project header from
///                       which the including file uses no name. "Provides"
///                       is a deliberately generous token-level set (type/
///                       alias/macro/function/variable declarations plus
///                       enumerators), so only includes contributing
///                       *nothing* are flagged. `// IWYU pragma: keep`
///                       or `export` on the include line exempts it
///                       (umbrella headers re-export on purpose), as does
///                       a companion include (foo.cpp -> foo.h).
///   transitive-include  a src/ file uses a type, alias, or macro whose
///                       single defining header is neither included
///                       directly nor reachable through the file's
///                       companion header's direct includes or an
///                       `IWYU pragma: export` chain. Symbols with more
///                       than one definition site are skipped (the token
///                       level cannot disambiguate them).
///
/// Both honor `ntr-lint-allow(<rule>)` on the include/use line and the
/// file-wide `ntr-lint-allow-file(<rule>)` form.
[[nodiscard]] std::vector<LintDiagnostic> check_include_hygiene(
    const Project& project);

}  // namespace ntr::analyze
