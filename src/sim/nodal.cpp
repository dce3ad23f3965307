#include "sim/nodal.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "check/contracts.h"
#include "check/faultinject.h"
#include "sim/validate.h"
#include "runtime/status.h"

namespace ntr::sim {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Re-annotates a bare factorization failure of G with the circuit-level
/// cause: a singular G almost always means a node with no DC path to
/// ground.
[[noreturn]] void throw_singular_g(const runtime::NtrError& e) {
  throw runtime::NtrError(
      e.code(), std::string("rc_steady_state: G is singular (node with "
                            "no DC path to ground?): ") +
                    e.what());
}

/// A deck the nodal march cannot take.
[[noreturn]] void reject(const spice::Element& e, const char* why, bool shorted) {
  throw runtime::NtrError(runtime::StatusCode::kBadInput,
                          "reduce_deck: " + e.name + " " + why +
                              (shorted ? " once inductors short at DC" : ""));
}

using Coupling = std::pair<std::size_t, std::size_t>;

/// Zero-valued CSR pattern of a symmetric n x n matrix: the full diagonal
/// plus each coupling (i, j), i != j, stored both ways, duplicates merged.
linalg::CsrMatrix symmetric_pattern(std::size_t n, std::span<const Coupling> couplings) {
  std::vector<std::size_t> start(n + 1, 1);  // start[r + 1]: row r's length
  start[0] = 0;
  for (const auto& [i, j] : couplings) {
    ++start[i + 1];
    ++start[j + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<std::size_t> cols(start[n]);
  std::vector<std::size_t> fill(start.begin(), start.end() - 1);
  for (std::size_t r = 0; r < n; ++r) cols[fill[r]++] = r;
  for (const auto& [i, j] : couplings) {
    cols[fill[i]++] = j;
    cols[fill[j]++] = i;
  }
  // Sort and merge each row, compacting toward the front.
  std::vector<std::size_t> row_ptr(n + 1, 0);
  std::size_t out = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const auto first = cols.begin() + static_cast<std::ptrdiff_t>(start[r]);
    auto last = cols.begin() + static_cast<std::ptrdiff_t>(start[r + 1]);
    std::sort(first, last);
    last = std::unique(first, last);
    for (auto it = first; it != last; ++it) cols[out++] = *it;
    row_ptr[r + 1] = out;
  }
  cols.resize(out);
  return linalg::CsrMatrix(n, std::move(row_ptr), std::move(cols),
                           std::vector<double>(out, 0.0));
}

/// Adds `value` to entries (a, a) and (b, b) of the values `m` on
/// `pattern` and subtracts it from (a, b) and (b, a), for the terminals
/// that are rows of the pattern (kNone, or any index past its last row,
/// is a fixed node).
void stamp_pair(const linalg::CsrMatrix& pattern, std::vector<double>& m, std::size_t a,
                std::size_t b, double value) {
  const std::span<const std::size_t> row_ptr = pattern.row_ptr();
  const std::span<const std::size_t> col_idx = pattern.col_idx();
  const auto at = [&](std::size_t r, std::size_t c) {
    const auto first = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[r]);
    const auto last = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[r + 1]);
    return static_cast<std::size_t>(std::lower_bound(first, last, c) - col_idx.begin());
  };
  const std::size_t n = pattern.rows();
  if (a < n) m[at(a, a)] += value;
  if (b < n) m[at(b, b)] += value;
  if (a < n && b < n) {
    m[at(a, b)] -= value;
    m[at(b, a)] -= value;
  }
}

/// Each node's merged node when every inductor is a short: the smallest
/// node of its group, so ground's group is node 0.
std::vector<spice::CircuitNode> shorted_groups(const spice::Circuit& circuit) {
  std::vector<spice::CircuitNode> parent(circuit.node_count());
  std::iota(parent.begin(), parent.end(), spice::CircuitNode{0});
  const auto find = [&](spice::CircuitNode n) {
    while (parent[n] != n) n = parent[n] = parent[parent[n]];
    return n;
  };
  for (const spice::Element& e : circuit.elements()) {
    if (e.kind != spice::ElementKind::kInductor) continue;
    const spice::CircuitNode a = find(e.a);
    const spice::CircuitNode b = find(e.b);
    parent[std::max(a, b)] = std::min(a, b);
  }
  for (spice::CircuitNode n = 0; n < parent.size(); ++n) parent[n] = find(n);
  return parent;
}

/// The nodal system of `circuit` with every node standing for its merged
/// node group[node]. Without `shorted`, group is the identity and each
/// inductor joins the system; with it, inductors are the shorts that
/// merged the groups and are left out.
NodalSystem reduce(const spice::Circuit& circuit, std::span<const spice::CircuitNode> group,
                   bool shorted) {
  const std::size_t nodes = circuit.node_count();

  // Driven nodes: each grounded source fixes one node's voltage.
  NodalSystem sys;
  sys.fixed_voltages.assign(1, 0.0);  // ground
  std::vector<std::size_t> fixed(nodes, kNone);  // index into fixed_voltages
  fixed[spice::kGround] = 0;
  for (const spice::Element& e : circuit.elements()) {
    if (e.kind != spice::ElementKind::kVoltageSource) continue;
    const spice::CircuitNode a = group[e.a];
    const spice::CircuitNode b = group[e.b];
    if ((a == spice::kGround) == (b == spice::kGround))
      reject(e, "must tie exactly one node to ground", shorted);
    const spice::CircuitNode node = a != spice::kGround ? a : b;
    if (fixed[node] != kNone) reject(e, "drives a node another source drives", shorted);
    fixed[node] = sys.fixed_voltages.size();
    // Both DC and step sources hold `value` for t >= 0.
    sys.fixed_voltages.push_back(a != spice::kGround ? e.value : -e.value);
  }
  const auto driven = [&](spice::CircuitNode node) {
    return node != spice::kGround && fixed[node] != kNone;
  };

  // Free nodes, numbered in circuit order for now, and their couplings.
  std::vector<std::size_t> index(nodes, kNone);
  std::size_t n = 0;
  for (spice::CircuitNode node = 1; node < nodes; ++node)
    if (group[node] == node && fixed[node] == kNone) index[node] = n++;
  if (n == 0 && !shorted)
    throw runtime::NtrError(runtime::StatusCode::kBadInput,
                            "reduce_deck: the deck has no free node to march");
  std::vector<Coupling> couplings;
  couplings.reserve(circuit.elements().size());
  for (const spice::Element& e : circuit.elements()) {
    const spice::CircuitNode a = group[e.a];
    const spice::CircuitNode b = group[e.b];
    if (e.kind == spice::ElementKind::kCapacitor && (driven(a) || driven(b)))
      reject(e, "touches a driven node", shorted);
    if (e.kind == spice::ElementKind::kInductor && !shorted && index[a] == kNone &&
        index[b] == kNone)
      reject(e, "has both terminals fixed", /*shorted=*/false);
    if (e.kind == spice::ElementKind::kVoltageSource ||
        (shorted && e.kind == spice::ElementKind::kInductor))
      continue;
    if (index[a] != kNone && index[b] != kNone && a != b)
      couplings.emplace_back(index[a], index[b]);
  }

  // Renumber in reverse Cuthill-McKee order, so the envelope of the
  // pattern is tight in the numbering the march itself uses.
  const std::vector<std::size_t> order =
      linalg::reverse_cuthill_mckee(symmetric_pattern(n, couplings));
  std::vector<std::size_t> renumber(n);
  for (std::size_t i = 0; i < n; ++i) renumber[order[i]] = i;
  for (std::size_t& i : index)
    if (i != kNone) i = renumber[i];
  for (auto& [i, j] : couplings) {
    i = renumber[i];
    j = renumber[j];
  }
  const linalg::CsrMatrix pattern = symmetric_pattern(n, couplings);
  const auto slot = [&](spice::CircuitNode node) {
    return index[node] != kNone ? index[node] : n + fixed[node];
  };

  // Stamp G, C and the Norton currents straight into the pattern.
  std::vector<double> g(pattern.nnz(), 0.0);
  std::vector<double> c(pattern.nnz(), 0.0);
  sys.b_final.assign(n, 0.0);
  for (const spice::Element& e : circuit.elements()) {
    const spice::CircuitNode a = group[e.a];
    const spice::CircuitNode b = group[e.b];
    if (a == b) continue;  // shorted across: no current at DC
    if (e.kind == spice::ElementKind::kCapacitor) {
      stamp_pair(pattern, c, index[a], index[b], e.value);
    } else if (e.kind == spice::ElementKind::kResistor) {
      const double conductance = 1.0 / e.value;
      stamp_pair(pattern, g, index[a], index[b], conductance);
      if (index[a] != kNone && driven(b))
        sys.b_final[index[a]] += conductance * sys.fixed_voltages[fixed[b]];
      if (index[b] != kNone && driven(a))
        sys.b_final[index[b]] += conductance * sys.fixed_voltages[fixed[a]];
    } else if (e.kind == spice::ElementKind::kInductor && !shorted) {
      sys.inductors.push_back({slot(a), slot(b), e.value});
    }
  }

  sys.slot_of_node.resize(nodes);
  for (spice::CircuitNode node = 0; node < nodes; ++node)
    sys.slot_of_node[node] = slot(group[node]);
  sys.envelope = std::make_shared<const linalg::Envelope>(pattern);
  sys.g = pattern.with_values(std::move(g));
  sys.c = pattern.with_values(std::move(c));
  NTR_DCHECK(check::require(validate_nodal_system(sys), "reduce_deck postcondition"));
  return sys;
}

}  // namespace

NodalSystem reduce_deck(const spice::Circuit& circuit) {
  std::vector<spice::CircuitNode> identity(circuit.node_count());
  std::iota(identity.begin(), identity.end(), spice::CircuitNode{0});
  return reduce(circuit, identity, /*shorted=*/false);
}

NodalSystem reduce_dc_deck(const spice::Circuit& circuit) {
  return reduce(circuit, shorted_groups(circuit), /*shorted=*/true);
}

RcSteadyState rc_steady_state(const NodalSystem& system) {
  NTR_CHECK(system.inductors.empty());
  NTR_FAULT_POINT(kDcSingular);
  std::optional<linalg::EnvelopeCholesky> g;
  try {
    g.emplace(system.envelope, system.g);
  } catch (const runtime::NtrError& e) {
    throw_singular_g(e);
  }
  RcSteadyState s;
  s.x_inf = g->solve(system.b_final);
  s.m1.assign(s.x_inf.size(), 0.0);
  g->solve_in_place(s.m1, system.c, s.x_inf);  // G m1 = C x_inf
  return s;
}

Companion companion(const NodalSystem& system, double h, bool trapezoidal) {
  const double s = (trapezoidal ? 2.0 : 1.0) / h;
  const std::span<const double> g = system.g.values();
  const std::span<const double> c = system.c.values();
  std::vector<double> lhs(g.size());
  std::vector<double> rhs(g.size());
  for (std::size_t k = 0; k < g.size(); ++k) {
    lhs[k] = g[k] + s * c[k];
    rhs[k] = trapezoidal ? s * c[k] - g[k] : s * c[k];
  }
  for (const NodalInductor& l : system.inductors) {
    const double gamma = l.gamma(h);
    stamp_pair(system.g, lhs, l.a, l.b, trapezoidal ? gamma : 2.0 * gamma);
    if (trapezoidal) stamp_pair(system.g, rhs, l.a, l.b, -gamma);
  }
  linalg::Vector bias(system.b_final.size());
  for (std::size_t i = 0; i < bias.size(); ++i)
    bias[i] = (trapezoidal ? 2.0 : 1.0) * system.b_final[i];
  linalg::EnvelopeCholesky factor(system.envelope, system.g.with_values(std::move(lhs)));
  return Companion{std::move(factor), system.g.with_values(std::move(rhs)), std::move(bias)};
}

}  // namespace ntr::sim
