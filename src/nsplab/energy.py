"""Energy and dissipation functionals, the zero-order energy identity and
the stability verdict.

The two headline functionals are sums of discrete Sobolev norms of the
perturbation and its equation-evaluated time derivatives:

    E = ||u||_H3 + ||q||_H2 + ||(q_t, u_t)||_H1 + ||grad phi|| + ||grad phi_t||
    D = ||grad u||_H2 + ||grad u_t||_H1 + ||q||_H2 + ||q_t||_H1 + ||q_tt||_L2

kept as plain sums (not root-sum-of-squares); both are reported, and D is
also reported without its ||q_tt|| term since the time-integrated stability
statement can be read either way.  Scalar norms use plain radial derivatives;
vector norms carry the angular metric terms.

The zero-order identity diagnostic is

    d/dt [ 1/2 int ( rho_tilde u^2 + h'(rho_tilde) q^2 + |grad phi|^2 ) ]
        + (2 mu + lambda) ||grad u||^2  ~  0   up to a nonlinear remainder,

evaluated over the stored samples by ``SeriesRecorder.finish``, the run's one
post-run pass: it takes one centered dE_basic/dt per run and derives the
identity residual, the fitted viscous constant c_fit, the remainder constant
kappa and the verdict from it.  The functionals never difference in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grids import _wsq, differentiate, sobolev_terms


def _sample_norms(grid, q, u, phi, tend):
    """E, D, D without its ||q_tt|| term, ||grad u||^2 and phi' of the sample
    (q, u, phi) with tendencies tend = (q_t, u_t, phi_t, q_tt), all arrays.

    The radial derivatives are one stacked apply per order, each computed
    once and shared by the functionals through ``sobolev_terms``.
    """
    q_t, u_t, phi_t, q_tt = tend
    # order 2 differentiates the first four rows
    f = np.stack((u, u / grid.r, u_t, q, u_t / grid.r, q_t, phi, phi_t))
    d1 = differentiate(grid, f, 1)
    d2 = differentiate(grid, f[:4], 2)
    # u and u_t carry the angular channels u/r and u_t/r; see grids
    u_terms = sobolev_terms(grid, (u, d1[0], d2[0], differentiate(grid, u, 3)),
                            (f[1], d1[1], d2[1]))
    ut_terms = sobolev_terms(grid, (u_t, d1[2], d2[2]), (f[4], d1[4]))
    q_h2 = math.sqrt(sum(sobolev_terms(grid, (f[3], d1[3], d2[3]))))
    qt_h1 = math.sqrt(sum(sobolev_terms(grid, (f[5], d1[5]))))
    u_h3 = math.sqrt(sum(u_terms))
    ut_h1 = math.sqrt(ut_terms[0] + ut_terms[1])
    e = (u_h3 + q_h2 + math.sqrt(qt_h1**2 + ut_h1**2)
         + math.sqrt(_wsq(grid, d1[6])) + math.sqrt(_wsq(grid, d1[7])))
    qtt_l2 = math.sqrt(_wsq(grid, q_tt))
    d = (math.sqrt(sum(u_terms[1:])) + math.sqrt(sum(ut_terms[1:])) + q_h2
         + qt_h1 + qtt_l2)
    return e, d, d - qtt_l2, math.sqrt(u_terms[1]) ** 2, d1[6]


def basic_energy(grid, q: np.ndarray, u: np.ndarray, phi_r: np.ndarray,
                 rho_s: np.ndarray, hp: np.ndarray) -> float:
    """Zero-order quadratic energy 1/2 int (rho_tilde u^2 + h' q^2 + |grad phi|^2),
    with phi_r the radial derivative of phi, rho_s = rho_tilde and
    hp = h'(rho_tilde)."""
    dens = rho_s * u**2 + hp * q**2 + phi_r**2
    return 0.5 * float(np.dot(grid.weights, dens))


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the boundedness check against the initial energy.

    The sup of E(t)/E(0) is compared against ``margin``; the quadratic ratio
    (E(t)^2 + c_fit * int_0^t D^2 ds) / E(0)^2 against ``margin**2``.  The
    verdict uses the D variant without the q_tt term; the full-D ratio is
    reported alongside.
    """

    passed: bool
    margin: float
    sup_ratio_E: float
    sup_ratio_quadratic: float
    sup_ratio_quadratic_with_qtt: float
    c_fit: float


# the quantities SeriesRecorder.add records per sample, in order
SAMPLED = ("t", "E", "D", "D_no_qtt", "mass", "E_basic", "min_density",
           "grad_u_sq")


@dataclass
class TimeSeries:
    """A run's sampled table, one float array per column: t, E, D, D_no_qtt,
    mass, E_basic, min_density, grad_u_sq (||grad u||^2) and
    identity_residual (zero at the first and last sample)."""

    columns: dict[str, np.ndarray]
    c_visc: float
    dt: float
    verdict: StabilityVerdict | None = None
    remainder_kappa: float | None = None

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


class SeriesRecorder:
    """Appends each sampled quantity (t, E, D, D_no_qtt, mass, E_basic,
    min_density, grad_u_sq) to its own list during a run and assembles the
    TimeSeries; rho_s is rho_tilde and hp_s h'(rho_tilde), the run's
    enthalpy weight."""

    def __init__(self, grid, rho_s: np.ndarray, hp_s: np.ndarray,
                 c_visc: float, dt: float):
        self.grid = grid
        self.rho_s = rho_s
        self.hp_s = hp_s
        self.c_visc = c_visc
        self.dt = dt
        self.columns = {name: [] for name in SAMPLED}

    def add(self, t: float, q: np.ndarray, u: np.ndarray, phi: np.ndarray,
            tend) -> None:
        """Record the sample (q, u, phi) at t with its tendencies tend =
        (q_t, u_t, phi_t, q_tt)."""
        grid = self.grid
        e, d, d_no, grad_u_sq, phi_r = _sample_norms(grid, q, u, phi, tend)
        values = (t, e, d, d_no, float(np.dot(grid.weights, q)),
                  basic_energy(grid, q, u, phi_r, self.rho_s, self.hp_s),
                  float(np.min(self.rho_s + q)), grad_u_sq)
        for name, value in zip(SAMPLED, values):
            self.columns[name].append(value)

    def finish(self, margin: float | None) -> TimeSeries:
        """The series after the run's one post-run pass.

        With at least 3 samples, one centered dE_basic/dt gives the identity
        residual at each interior sample (zero at the endpoints, which have
        no centered stencil), c_fit and, for a positive E(0), the remainder
        constant kappa; with fewer, c_fit is c_visc and kappa is None.  Given
        a margin and a positive E(0), the stability verdict is attached.
        """
        cols = {name: np.array(v, dtype=float)
                for name, v in self.columns.items()}
        t, grad = cols["t"], cols["grad_u_sq"]
        resid = cols["identity_residual"] = np.zeros(t.size)
        e0 = float(cols["E"][0]) if t.size else 0.0
        c_fit, kappa = self.c_visc, None
        if t.size >= 3:
            dedt = _centered_rate(t, cols["E_basic"])
            resid[1:-1] = dedt + self.c_visc * grad[1:-1]
            c_fit = _fit_viscous_constant(dedt, grad[1:-1], self.c_visc)
            if e0 > 0.0:
                kappa = _remainder_constant(resid[1:-1], cols["D"][1:-1], e0)
        series = TimeSeries(columns=cols, c_visc=self.c_visc, dt=self.dt,
                            remainder_kappa=kappa)
        if margin is not None and e0 > 0.0:
            series.verdict = check_theorem_bound(series, margin, c_fit)
        return series


def _centered_rate(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Second-order centered de/dt on the non-uniform samples t, at the
    interior samples only (needs t.size >= 3)."""
    hm = t[1:-1] - t[:-2]
    hp = t[2:] - t[1:-1]
    return (e[2:] * hm**2 - e[:-2] * hp**2
            + e[1:-1] * (hp**2 - hm**2)) / (hm * hp * (hm + hp))


def _remainder_constant(resid: np.ndarray, d: np.ndarray, e0: float) -> float:
    """Measured constant kappa in the zero-order remainder bound
    rho_i <= kappa * E(0) * D_i^2 over the interior samples.

    Reported, never asserted: the initial energy stands in for the smallness
    parameter, and kappa * E(0) should scale roughly linearly in the
    perturbation amplitude.
    """
    mask = d > 0.0
    if not np.any(mask):
        return 0.0
    return float(np.max(resid[mask] / d[mask] ** 2)) / e0


def _fit_viscous_constant(dedt: np.ndarray, g: np.ndarray,
                          c_visc: float) -> float:
    """Least-squares fit of -dE_basic/dt against ||grad u||^2 over the
    interior samples; falls back to c_visc when the run carries no usable
    signal."""
    denom = float(np.dot(g, g))
    if denom <= 0.0 or not math.isfinite(denom):
        return c_visc
    c = -float(np.dot(dedt, g)) / denom
    if not math.isfinite(c) or c <= 0.0:
        return c_visc
    return c


def check_theorem_bound(series: TimeSeries, margin: float,
                        c_fit: float) -> StabilityVerdict:
    """Stability verdict: sup E(t)/E(0) <= margin and
    (E(t)^2 + c_fit int_0^t D_no_qtt^2) / E(0)^2 <= margin^2 for all t."""
    t, e = series.column("t"), series.column("E")
    if not t.size:
        raise ParameterError("empty series")
    e0 = float(e[0])
    if e0 <= 0.0:
        raise ParameterError("E(0) must be positive for the ratio check")

    def quad_ratio(d: np.ndarray) -> float:
        integral = np.concatenate(
            ([0.0], np.cumsum(0.5 * np.diff(t) * (d[1:] ** 2 + d[:-1] ** 2))))
        return float(np.max((e**2 + c_fit * integral) / e0**2))

    sup_e = float(np.max(e)) / e0
    ratio_no = quad_ratio(series.column("D_no_qtt"))
    ratio_full = quad_ratio(series.column("D"))
    # a float power raises OverflowError on a huge finite margin
    passed = sup_e <= margin and ratio_no <= margin * margin
    return StabilityVerdict(passed=passed, margin=margin, sup_ratio_E=sup_e,
                            sup_ratio_quadratic=ratio_no,
                            sup_ratio_quadratic_with_qtt=ratio_full,
                            c_fit=c_fit)
