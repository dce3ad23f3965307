#include "delay/two_pole.h"

#include <cmath>
#include <complex>
#include <stdexcept>

#include "delay/moments.h"

namespace ntr::delay {

double TwoPoleModel::response(double t_s) const {
  if (t_s <= 0.0) return 0.0;
  if (real_poles) {
    return 1.0 - k1 * std::exp(-t_s / tau1) - k2 * std::exp(-t_s / tau2);
  }
  return 1.0 - std::exp(-sigma * t_s) *
                   (std::cos(omega * t_s) + (c / omega) * std::sin(omega * t_s));
}

double TwoPoleModel::crossing(double fraction) const {
  if (fraction <= 0.0 || fraction >= 1.0)
    throw std::invalid_argument("TwoPoleModel::crossing: fraction must be in (0,1)");
  const double scale = real_poles ? tau1 : 1.0 / sigma;

  // Bracket the first crossing by coarse forward marching (handles the
  // non-monotone complex-pole case), then bisect.
  double lo = 0.0;
  double hi = 0.0;
  const double step = scale / 64.0;
  for (double t = step; t < 200.0 * scale; t += step) {
    if (response(t) >= fraction) {
      hi = t;
      lo = t - step;
      break;
    }
  }
  if (hi == 0.0) return 200.0 * scale;  // never reached (degenerate model)
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (response(mid) >= fraction) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

namespace {

TwoPoleModel single_pole(double m1) {
  TwoPoleModel model;
  model.real_poles = true;
  model.tau1 = m1 > 0.0 ? m1 : 1e-15;
  model.tau2 = model.tau1 * 1e-6;
  model.k1 = 1.0;
  model.k2 = 0.0;
  return model;
}

/// Pade [1/2] fit from the first three moments; falls back to a single
/// pole when the denominator is not strictly stable.
TwoPoleModel fit(double m1, double m2, double m3) {
  const double denom = m2 - m1 * m1;
  if (m1 <= 0.0 || std::abs(denom) < 1e-12 * m1 * m1) return single_pole(m1);
  const double b1 = (m3 - m1 * m2) / denom;
  const double b2 = b1 * m1 - m2;
  if (b1 <= 0.0 || b2 <= 0.0) return single_pole(m1);

  const double disc = b1 * b1 - 4.0 * b2;
  const double a1 = b1 - m1;  // numerator coefficient of the [1/2] Pade

  TwoPoleModel model;
  if (disc >= 0.0) {
    // Real poles p = (-b1 +- sqrt(disc)) / (2 b2), both negative.
    const double root = std::sqrt(disc);
    const double p1 = (-b1 + root) / (2.0 * b2);  // slow pole (closer to 0)
    const double p2 = (-b1 - root) / (2.0 * b2);
    if (p1 >= 0.0 || p2 >= 0.0 || p1 == p2) return single_pole(m1);
    // Residues of H(s)/s = (1 + a1 s)/(s (1 + b1 s + b2 s^2)) at p_i:
    // r_i = (1 + a1 p_i) / (p_i (b1 + 2 b2 p_i)).
    const double r1 = (1.0 + a1 * p1) / (p1 * (b1 + 2.0 * b2 * p1));
    const double r2 = (1.0 + a1 * p2) / (p2 * (b1 + 2.0 * b2 * p2));
    model.real_poles = true;
    model.tau1 = -1.0 / p1;
    model.tau2 = -1.0 / p2;
    model.k1 = -r1;
    model.k2 = -r2;
  } else {
    const std::complex<double> p(-b1 / (2.0 * b2), std::sqrt(-disc) / (2.0 * b2));
    const std::complex<double> r =
        (1.0 + a1 * p) / (p * (b1 + 2.0 * b2 * p));
    model.real_poles = false;
    model.sigma = -p.real();
    model.omega = p.imag();
    // v(t) = 1 + 2 Re[r e^{pt}] = 1 - e^{-sigma t}(cos wt + (c/w) sin wt)
    // with 2 Re r = -1 (v(0)=0) and c = 2 * Im r * omega ... derived via
    // -2 Im r = c / omega.
    model.c = -2.0 * r.imag() * model.omega;
    if (model.sigma <= 0.0) return single_pole(m1);
  }
  return model;
}

}  // namespace

std::vector<TwoPoleModel> two_pole_models(const graph::RoutingGraph& g,
                                          const spice::Technology& tech) {
  const std::vector<std::vector<double>> m =
      moments(assemble_grounded_system(g, tech), 3);
  std::vector<TwoPoleModel> models(m[0].size());
  for (std::size_t i = 0; i < models.size(); ++i)
    models[i] = fit(m[0][i], m[1][i], m[2][i]);
  return models;
}

}  // namespace ntr::delay
