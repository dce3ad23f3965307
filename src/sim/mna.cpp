#include "sim/mna.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/contracts.h"
#include "check/faultinject.h"
#include "sim/validate.h"
#include "runtime/status.h"

namespace ntr::sim {

namespace {

/// Re-annotates a bare factorization failure of G with the circuit-level
/// cause: a singular G almost always means a node with no DC path to
/// ground.
[[noreturn]] void throw_singular_g(const runtime::NtrError& e) {
  throw runtime::NtrError(
      e.code(), std::string("dc_operating_point: G is singular (node with "
                            "no DC path to ground?): ") +
                    e.what());
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

}  // namespace

MnaSystem assemble_mna(const spice::Circuit& circuit) {
  if (circuit.elements().empty())
    throw std::invalid_argument("assemble_mna: empty circuit");

  MnaSystem mna;
  mna.node_unknowns = circuit.node_count() - 1;
  mna.branch_unknowns =
      circuit.element_count(spice::ElementKind::kVoltageSource) +
      circuit.element_count(spice::ElementKind::kInductor);
  const std::size_t n = mna.size();
  mna.g = linalg::DenseMatrix(n, n);
  mna.c = linalg::DenseMatrix(n, n);
  mna.b_final.assign(n, 0.0);

  // Unknown index of a node, or npos for ground.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const auto idx = [&](spice::CircuitNode node) {
    return node == spice::kGround ? kNone : mna.unknown_of_node(node);
  };

  const auto stamp_pair = [&](linalg::DenseMatrix& m, std::size_t a, std::size_t b,
                              double value) {
    if (a != kNone) m(a, a) += value;
    if (b != kNone) m(b, b) += value;
    if (a != kNone && b != kNone) {
      m(a, b) -= value;
      m(b, a) -= value;
    }
  };

  std::size_t next_branch = mna.node_unknowns;
  for (const spice::Element& e : circuit.elements()) {
    const std::size_t a = idx(e.a);
    const std::size_t b = idx(e.b);
    switch (e.kind) {
      case spice::ElementKind::kResistor:
        stamp_pair(mna.g, a, b, 1.0 / e.value);
        break;
      case spice::ElementKind::kCapacitor:
        stamp_pair(mna.c, a, b, e.value);
        break;
      case spice::ElementKind::kInductor: {
        // Branch current unknown i: KCL rows get +-i; branch row enforces
        // v_a - v_b = L di/dt.
        const std::size_t br = next_branch++;
        if (a != kNone) {
          mna.g(a, br) += 1.0;
          mna.g(br, a) += 1.0;
        }
        if (b != kNone) {
          mna.g(b, br) -= 1.0;
          mna.g(br, b) -= 1.0;
        }
        mna.c(br, br) -= e.value;
        break;
      }
      case spice::ElementKind::kVoltageSource: {
        const std::size_t br = next_branch++;
        if (a != kNone) {
          mna.g(a, br) += 1.0;
          mna.g(br, a) += 1.0;
        }
        if (b != kNone) {
          mna.g(b, br) -= 1.0;
          mna.g(br, b) -= 1.0;
        }
        // Both DC and step sources hold `value` for t >= 0.
        mna.b_final[br] = e.value;
        break;
      }
    }
  }

  // Exactly one branch row per voltage source/inductor was consumed, and
  // the symmetric stamping above must yield symmetric, finite G and C.
  // (SPD of the node block is *not* a postcondition here: it depends on
  // the circuit's topology, not on correct assembly.)
  NTR_CHECK(next_branch == mna.size());
  NTR_DCHECK(check::require(
      validate_mna(mna, {.spd = MnaValidateOptions::Spd::kSkip}),
      "assemble_mna postcondition"));
  return mna;
}

linalg::Vector dc_operating_point(const MnaSystem& mna) {
  NTR_FAULT_POINT(kDcSingular);
  try {
    const linalg::LuFactorization lu(mna.g);
    return lu.solve(mna.b_final);
  } catch (const runtime::NtrError& e) {
    throw_singular_g(e);
  }
}

linalg::Vector first_moment(const MnaSystem& mna, const linalg::Vector& x_inf) {
  const linalg::LuFactorization lu(mna.g);
  return lu.solve(mna.c.multiply(x_inf));
}

std::optional<RcSystem> reduce_rc_deck(const spice::Circuit& circuit) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::size_t nodes = circuit.node_count();

  // Driven nodes: each grounded source fixes one node's voltage.
  RcSystem rc;
  rc.fixed_voltages.assign(1, 0.0);  // ground
  std::vector<std::size_t> fixed(nodes, kNone);  // index into fixed_voltages
  fixed[spice::kGround] = 0;
  for (const spice::Element& e : circuit.elements()) {
    if (e.kind == spice::ElementKind::kInductor) return std::nullopt;
    if (e.kind != spice::ElementKind::kVoltageSource) continue;
    if ((e.a == spice::kGround) == (e.b == spice::kGround)) return std::nullopt;
    const spice::CircuitNode node = e.a != spice::kGround ? e.a : e.b;
    if (fixed[node] != kNone) return std::nullopt;
    fixed[node] = rc.fixed_voltages.size();
    // Both DC and step sources hold `value` for t >= 0.
    rc.fixed_voltages.push_back(e.a != spice::kGround ? e.value : -e.value);
  }
  const auto driven = [&](spice::CircuitNode node) {
    return node != spice::kGround && fixed[node] != kNone;
  };

  // Free nodes, numbered in circuit order for now, and their couplings.
  std::vector<std::size_t> index(nodes, kNone);
  std::size_t n = 0;
  for (spice::CircuitNode node = 1; node < nodes; ++node)
    if (fixed[node] == kNone) index[node] = n++;
  if (n == 0) return std::nullopt;
  std::vector<Coupling> couplings;
  couplings.reserve(circuit.elements().size());
  for (const spice::Element& e : circuit.elements()) {
    if (e.kind == spice::ElementKind::kCapacitor && (driven(e.a) || driven(e.b)))
      return std::nullopt;
    if (e.kind != spice::ElementKind::kVoltageSource && index[e.a] != kNone &&
        index[e.b] != kNone)
      couplings.emplace_back(index[e.a], index[e.b]);
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

  // Stamp G, C and the Norton currents straight into the pattern.
  const std::span<const std::size_t> row_ptr = pattern.row_ptr();
  const std::span<const std::size_t> col_idx = pattern.col_idx();
  const auto at = [&](std::size_t r, std::size_t c) {
    const auto first = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[r]);
    const auto last = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[r + 1]);
    return static_cast<std::size_t>(std::lower_bound(first, last, c) - col_idx.begin());
  };
  std::vector<double> g(pattern.nnz(), 0.0);
  std::vector<double> c(pattern.nnz(), 0.0);
  rc.b_final.assign(n, 0.0);
  const auto stamp_pair = [&](std::vector<double>& m, std::size_t a, std::size_t b,
                              double value) {
    if (a != kNone) m[at(a, a)] += value;
    if (b != kNone) m[at(b, b)] += value;
    if (a != kNone && b != kNone) {
      m[at(a, b)] -= value;
      m[at(b, a)] -= value;
    }
  };
  for (const spice::Element& e : circuit.elements()) {
    const std::size_t a = index[e.a];
    const std::size_t b = index[e.b];
    if (e.kind == spice::ElementKind::kCapacitor) {
      stamp_pair(c, a, b, e.value);
    } else if (e.kind == spice::ElementKind::kResistor) {
      const double conductance = 1.0 / e.value;
      stamp_pair(g, a, b, conductance);
      if (a != kNone && driven(e.b))
        rc.b_final[a] += conductance * rc.fixed_voltages[fixed[e.b]];
      if (b != kNone && driven(e.a))
        rc.b_final[b] += conductance * rc.fixed_voltages[fixed[e.a]];
    }
  }

  rc.slot_of_node.resize(nodes);
  for (spice::CircuitNode node = 0; node < nodes; ++node)
    rc.slot_of_node[node] = index[node] != kNone ? index[node] : n + fixed[node];
  rc.envelope = std::make_shared<const linalg::Envelope>(pattern);
  rc.g = pattern.with_values(std::move(g));
  rc.c = pattern.with_values(std::move(c));
  NTR_DCHECK(check::require(validate_rc_system(rc), "reduce_rc_deck postcondition"));
  return rc;
}

RcSteadyState rc_steady_state(const RcSystem& rc) {
  NTR_FAULT_POINT(kDcSingular);
  std::optional<linalg::EnvelopeCholesky> g;
  try {
    g.emplace(rc.envelope, rc.g);
  } catch (const runtime::NtrError& e) {
    throw_singular_g(e);
  }
  RcSteadyState s;
  s.x_inf = g->solve(rc.b_final);
  s.m1.assign(s.x_inf.size(), 0.0);
  g->solve_in_place(s.m1, rc.c, s.x_inf);  // G m1 = C x_inf
  return s;
}

}  // namespace ntr::sim
