"""Asymptotic collective-attack secret key rates, trusted-detector model.

Homodyne detection with reverse reconciliation; the detector efficiency
and electronic noise are calibrated and not attributed to the
eavesdropper.  With V = va + 1 and the usual noise decomposition

    chi_line = 1/T - 1 + xi
    chi_hom  = (1 + v_el)/eta - 1
    chi_tot  = chi_line + chi_hom/T

the mutual information is I = 0.5*log2((V + chi_tot)/(1 + chi_tot)) and
Eve's Holevo information follows from the four symplectic eigenvalues

    A = V^2 (1 - 2T) + 2T + T^2 (V + chi_line)^2
    B = T^2 (V*chi_line + 1)^2
    lambda_{1,2}^2 = (A +- sqrt(A^2 - 4B))/2
    C = (A*chi_hom + V*sqrt(B) + T*(V + chi_line)) / (T*(V + chi_tot))
    D = sqrt(B)*(V + sqrt(B)*chi_hom) / (T*(V + chi_tot))
    lambda_{3,4}^2 = (C +- sqrt(C^2 - 4D))/2

via chi_BE = G((l1-1)/2) + G((l2-1)/2) - G((l3-1)/2) - G((l4-1)/2) with
G(x) = (x+1) log2(x+1) - x log2 x.  The secret key rate is
K = beta*I - chi_BE and is reported as-is when negative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

from .countermeasure import SwitchModel, effective_eta
from .ranges import NON_NEGATIVE, POSITIVE, UNIT, UNIT_ABOVE_0, UNIT_BELOW_1, checked, param

DISCRIMINANT_TOL = 1e-9
EIGENVALUE_TOL = 1e-9

# Bracket and bisection resolution of the maximum-distance search (km).
SEARCH_MAX_KM = 500.0
SEARCH_RESOLUTION_KM = 0.1


@checked
class KeyRateParams:
    """Inputs of the key-rate formulas, noise in shot-noise units."""

    va: float = param(within=NON_NEGATIVE)
    transmittance: float = param(within=UNIT)
    eta: float = param(within=UNIT_ABOVE_0)
    xi: float = param(within=NON_NEGATIVE)
    v_el: float = param(within=NON_NEGATIVE)
    beta: float = param(within=UNIT)


@dataclass
class KeyRateBreakdown:
    """Key-rate decomposition in bits per pulse."""

    i_ab: float
    chi_be: float
    key_rate: float


def _chi_line(p: KeyRateParams) -> float:
    return 1.0 / p.transmittance - 1.0 + p.xi


def _chi_hom(p: KeyRateParams) -> float:
    return (1.0 + p.v_el) / p.eta - 1.0


def _chi_tot(p: KeyRateParams) -> float:
    return _chi_line(p) + _chi_hom(p) / p.transmittance


def _entropy_g(x: float) -> float:
    """G(x) = (x+1) log2(x+1) - x log2 x, continued by G(0) = 0."""
    if x < -EIGENVALUE_TOL:
        raise ArithmeticError(f"entropy argument {x} below 0")
    if x <= 0.0:
        return 0.0
    # at large x the two terms below cancel to their last digits; the stable form
    # is kept to large x, so the pinned outputs keep the direct form's last bits
    if x > 1e3:
        return math.log2(x + 1.0) + x * math.log1p(1.0 / x) / math.log(2.0)
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def _eigenpair(trace_like: float, det_like: float) -> tuple[float, float]:
    """Roots of l^4 - trace_like*l^2 + det_like as (larger, smaller) eigenvalues.

    The smaller root is recovered from the product to avoid the
    cancellation in (trace - sqrt(disc))/2 at high loss.  The discriminant
    is taken of the pair scaled by 2**-e, 2**-2e with trace_like < 2**e, so
    it cannot overflow; a power-of-two scaling is exact.
    """
    e = max(math.frexp(trace_like)[1], 0)
    trace_s = math.ldexp(trace_like, -e)
    disc = trace_s**2 - 4.0 * math.ldexp(det_like, -2 * e)
    tol = DISCRIMINANT_TOL * (trace_s**2 if e else 1.0)  # max(1, trace_like**2), scaled
    if disc < -tol:
        raise ArithmeticError(f"negative discriminant {disc * 4.0**e} in symplectic spectrum")
    if disc <= tol:  # a double root: sqrt would magnify the rounding error of disc
        disc = 0.0
    big_sq = 0.5 * (trace_like + math.ldexp(math.sqrt(disc), e))
    if big_sq <= 0.0:
        raise ArithmeticError("non-positive squared symplectic eigenvalue")
    small_sq = det_like / big_sq
    big = math.sqrt(big_sq)
    small = math.sqrt(max(small_sq, 0.0))
    for lam in (big, small):
        if lam < 1.0 - EIGENVALUE_TOL:
            raise ArithmeticError(f"symplectic eigenvalue {lam} below 1")
    return big, max(small, 1.0)


def mutual_information(p: KeyRateParams) -> float:
    """Shannon rate of the homodyne Gaussian channel in bits per pulse.

    Equals 0.5*log2(1 + SNR) with SNR = eta*T*va/(1 + v_el + eta*T*xi);
    zero at zero transmittance.
    """
    if p.transmittance <= 0.0:
        return 0.0
    chi_tot = _chi_tot(p)
    return 0.5 * math.log2((p.va + 1.0 + chi_tot) / (1.0 + chi_tot))


def holevo_bound(p: KeyRateParams) -> tuple[float, tuple[float, float, float, float]]:
    """Eve's Holevo information and the symplectic eigenvalues behind it."""
    if not p.transmittance > 0:
        raise ValueError("holevo_bound requires transmittance > 0")
    t = p.transmittance
    v = p.va + 1.0
    chi_line = _chi_line(p)
    chi_hom = _chi_hom(p)
    chi_tot = _chi_tot(p)
    a = v * v * (1.0 - 2.0 * t) + 2.0 * t + (t * (v + chi_line)) ** 2
    if a < 1e-8 * v * v:  # near T = 1 the V² terms cancel; this form has none to cancel
        r = t * chi_line
        a = (v * (1.0 - t)) ** 2 + 2.0 * t * v * r + 2.0 * t + r * r
    b = (t * (v * chi_line + 1.0)) ** 2
    lam1, lam2 = _eigenpair(a, b)
    sqrt_b = math.sqrt(b)
    denom = t * (v + chi_tot)
    c = (a * chi_hom + v * sqrt_b + t * (v + chi_line)) / denom
    d = sqrt_b * (v + sqrt_b * chi_hom) / denom
    lam3, lam4 = _eigenpair(c, d)
    chi_be = (
        _entropy_g((lam1 - 1.0) / 2.0)
        + _entropy_g((lam2 - 1.0) / 2.0)
        - _entropy_g((lam3 - 1.0) / 2.0)
        - _entropy_g((lam4 - 1.0) / 2.0)
    )
    return chi_be, (lam1, lam2, lam3, lam4)


def secret_key_rate(p: KeyRateParams) -> KeyRateBreakdown:
    """K = beta*I_AB - chi_BE; negative rates are reported as-is."""
    if p.transmittance <= 0.0:
        return KeyRateBreakdown(0.0, 0.0, 0.0)
    i_ab = mutual_information(p)
    chi_be = max(holevo_bound(p)[0], 0.0)
    return KeyRateBreakdown(i_ab=i_ab, chi_be=chi_be, key_rate=p.beta * i_ab - chi_be)


def va_for_snr(snr: float, transmittance: float, eta: float, xi: float, v_el: float) -> float:
    """Modulation variance that hits the target SNR on Bob's side."""
    NON_NEGATIVE.check("snr", snr)
    eta_t = eta * transmittance
    if not eta_t > 0:
        raise ValueError("snr targeting infeasible at eta*T = 0")
    return snr * (1.0 + v_el + eta_t * xi) / eta_t


def discounted_rate(key_rate: float, monitor_fraction: float) -> float:
    """Key rate left when a share ``monitor_fraction`` of the pulses is discarded for monitoring.

    Discarded monitoring pulses only shrink a positive extractable rate;
    a non-positive rate yields no key either way and stays undiscounted.
    """
    return key_rate * (1.0 - monitor_fraction) if key_rate > 0.0 else key_rate


@dataclass
class SweepPoint:
    """One distance sample of a key-rate sweep."""

    distance_km: float
    transmittance: float
    va: float
    i_ab: float
    chi_be: float
    key_rate: float


def rate_at_distance(
    distance_km: float,
    *,
    eta: float,
    v_el: float,
    beta: float,
    snr_target: float,
    xi_bob: float,
    loss_db_per_km: float = 0.2,
    monitor_fraction: float = 0.0,
    switch: SwitchModel | None = None,
) -> SweepPoint:
    """Key rate at one distance with SNR-targeted modulation variance.

    The fibre passes T = 10**(-loss_db_per_km*distance_km/10).  ``xi_bob``
    is the excess noise referred to Bob's side (eta*T*xi); the
    channel-input value is recovered per distance.  With a switch
    present the efficiency is derated by its insertion loss, and the
    monitoring fraction multiplies the rate by (1 - fraction).  A point
    whose Holevo terms could pass the float range (T below about 1e-152
    at the defaults) is not evaluated: it reads V_A = inf and
    i_ab = chi_be = K = 0, as ``secret_key_rate`` reports T = 0.
    """
    POSITIVE.check("loss_db_per_km", loss_db_per_km)
    UNIT_BELOW_1.check("monitor_fraction", monitor_fraction)
    NON_NEGATIVE.check("distance", distance_km)
    transmittance = 10.0 ** (-loss_db_per_km * distance_km / 10.0)
    eta_eff = effective_eta(eta, switch.loss_db) if switch is not None else eta
    m = (1.0 + v_el + xi_bob) / eta_eff  # T*(1 + chi_tot)
    r = (1.0 + snr_target) * m  # T*(V_A + 1 + chi_tot)
    # no Holevo term, nor the square of an eigenvalue, exceeds 12*(r/T)**2*(1 + m)**3
    if not transmittance * transmittance * sys.float_info.max > 16.0 * r * r * (1.0 + m) ** 3:
        return SweepPoint(distance_km, transmittance, math.inf, 0.0, 0.0, 0.0)
    xi_channel = xi_bob / (eta_eff * transmittance)
    va = va_for_snr(snr_target, transmittance, eta_eff, xi_channel, v_el)
    params = KeyRateParams(
        va=va,
        transmittance=transmittance,
        eta=eta_eff,
        xi=xi_channel,
        v_el=v_el,
        beta=beta,
    )
    breakdown = secret_key_rate(params)
    return SweepPoint(
        distance_km=distance_km,
        transmittance=transmittance,
        va=va,
        i_ab=breakdown.i_ab,
        chi_be=breakdown.chi_be,
        key_rate=discounted_rate(breakdown.key_rate, monitor_fraction),
    )


def max_secure_distance(**receiver) -> float | None:
    """Largest distance with a positive key rate, by bisection.

    ``receiver`` holds the keywords of ``rate_at_distance``, the fibre's
    ``loss_db_per_km`` among them.  Returns None when the rate is already
    non-positive at zero distance, and ``SEARCH_MAX_KM`` when the rate
    never crosses zero inside the bracket.
    """
    if "snr_target" in receiver:
        POSITIVE.check("snr_target", receiver["snr_target"])
    point = partial(rate_at_distance, **receiver)
    if point(0.0).key_rate <= 0.0:
        return None
    low, high = 0.0, None
    d = 10.0
    while d <= SEARCH_MAX_KM:
        if point(d).key_rate <= 0.0:
            high = d
            break
        low = d
        d += 10.0
    if high is None:
        return SEARCH_MAX_KM
    while high - low > SEARCH_RESOLUTION_KM:
        mid = 0.5 * (low + high)
        if point(mid).key_rate > 0.0:
            low = mid
        else:
            high = mid
    return low
