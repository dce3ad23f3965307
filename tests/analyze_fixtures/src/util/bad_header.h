// Lint fixture: header missing #pragma once and polluting includers with
// a namespace. Never compiled; exists so the analyzer's fixture test (and
// the WILL_FAIL ctest entry) can prove the rules fire.

using namespace std;

inline int fixture_value() { return 42; }
