"""A trace-formula oracle: the length spectrum of the direct EBK levels
peaks at the marked actions.

For a toric domain whose level set N is the unit level of a 1-homogeneous
profile f, Poisson summation over the lattice and stationary phase at the
boundary point whose outward normal is k make the density of the levels
E_m = f(hbar (m + mu)) oscillate with one frequency a(k) / hbar per orbit
class k, and l a(k) / hbar for its multiples (M. V. Berry and M. Tabor,
"Closed orbits and the regular bound spectrum", Proc. R. Soc. Lond. A 349
(1976) 101-123). So at hbar 1 the modulus of

    S(t) = sum over E_m <= E* of cos^2(pi E_m / 2E*) e^(2 pi i t E_m)

peaks at every t = l a(k), with a resolution of about 1 / E*. The direct
route reads no action table, so this ties the table to the spectrum it
encodes; the three routes are otherwise only tested against each other.

S is one FFT of the levels binned at a width far below 1 / t_max. A target
is matched to a peak, not each peak to a target: S also has sidelobes, and
peaks where targets lie closer than the resolution. Any point has some
local maximum of |S| within 2 / E*, so a matching peak must also stand
PEAK_HEIGHT times above the median local maximum. A random t in [0.8, 4]
finds such a peak in about 12-14% of draws (pnorm:4, pnorm:8 and the disk
at shift 1/2), and every target here finds one; scaling the targets by
1.02 leaves at least 3 unmatched in every case.
"""
import math

import numpy as np
import pytest

from ebk import LevelSurface, RamosCurve, disk_profile, marked_action_spectrum, pnorm_profile
from ebk.quantize import direct_spectrum

E_STAR = 120.0      # levels up to this energy; the resolution is about 1 / E_STAR
BOUND = 4.0         # targets l a(k) below this
T_MIN = 0.5         # below it the smooth (Weyl) part of the level density dominates
BIN = 1.0 / (256 * BOUND)   # far below 1 / BOUND: the phase errs by at most pi / 256
OVERSAMPLE = 10     # t steps of 1 / (OVERSAMPLE E_STAR)
PEAK_HEIGHT = 20.0  # a matching peak's height over the median local maximum
TABLE_K_MAX = 40


def _case(name):
    """(profile, surface, m_max): every level E_m <= E_STAR has m <= m_max.
    pnorm's f is at least max(m), and the disk's at least |m| / pi (its
    boundary curve lies within pi of the origin)."""
    if name == "ramos":
        return disk_profile(), RamosCurve(), int(math.pi * E_STAR) + 2
    s = float(name.split(":")[1])
    return pnorm_profile(s), LevelSurface.from_profile(pnorm_profile(s)), int(E_STAR) + 2


def _levels(profile, shift, m_max):
    E = direct_spectrum(profile, m_max, shift=shift).energies.reshape(m_max + 1, m_max + 1)
    # the block holds every level up to E_STAR
    assert E[-1].min() > E_STAR and E[:, -1].min() > E_STAR
    return E[E <= E_STAR]


def _length_spectrum(E):
    """t and |S(t)| on t <= BOUND + 1, from one FFT of the binned levels."""
    size = int(OVERSAMPLE * E_STAR / BIN)
    weights = np.cos(np.pi * E / (2 * E_STAR)) ** 2
    hist = np.bincount(np.rint(E / BIN).astype(np.int64), weights=weights, minlength=size)
    S = np.abs(np.fft.rfft(hist, n=size))
    t = np.arange(len(S)) / (size * BIN)
    keep = t <= BOUND + 1
    return t[keep], S[keep]


def _peaks(t, S):
    """The local maxima of |S| past T_MIN that stand PEAK_HEIGHT times above
    the median local maximum there."""
    at = np.flatnonzero((S[1:-1] > S[:-2]) & (S[1:-1] >= S[2:])) + 1
    at = at[t[at] >= T_MIN]
    return t[at[S[at] >= PEAK_HEIGHT * np.median(S[at])]]


def _targets(surface):
    """The distinct values l a(k) below BOUND over the action table, and
    which of them have no other within 4 / E_STAR.

    a(k) >= |k|_inf on pnorm, so the table at TABLE_K_MAX holds every pnorm
    target. The disk's a(1, n) = a(n, 1) = (n + 1) sin(pi / (n + 1)) rise to
    pi; those past TABLE_K_MAX lie within 3e-3 of pi, where every target is
    crowded anyway."""
    a = marked_action_spectrum(surface, TABLE_K_MAX).actions
    vals = np.sort(np.concatenate([ell * a for ell in range(1, int(BOUND / a.min()) + 1)]))
    vals = vals[vals < BOUND]
    # a(1, n) and a(n, 1) are one value computed two ways
    vals = vals[np.concatenate([[True], np.diff(vals) > 1e-9 * vals[1:]])]
    gaps = np.diff(vals) > 4 / E_STAR
    isolated = np.concatenate([[True], gaps]) & np.concatenate([gaps, [True]])
    return vals, isolated


def _unmatched(targets, peaks):
    return [float(x) for x in targets if not (np.abs(peaks - x) <= 2 / E_STAR).any()]


@pytest.mark.parametrize("shift", [0.0, 0.5])
@pytest.mark.parametrize("name", ["pnorm:1.5", "pnorm:3", "pnorm:4", "pnorm:8", "ramos"])
def test_length_spectrum_peaks_at_every_isolated_action(name, shift):
    profile, surface, m_max = _case(name)
    peaks = _peaks(*_length_spectrum(_levels(profile, shift, m_max)))
    targets, isolated = _targets(surface)
    # pnorm keeps every target; the disk keeps 2, 2.598, 2.828, 2.939 and 3
    assert isolated.sum() >= 5 and targets[isolated].min() < 2.1
    assert _unmatched(targets[isolated], peaks) == []


def test_length_spectrum_tells_two_profiles_apart():
    # pnorm:3's targets ring in pnorm:4's levels only where pnorm:4 has a
    # target of its own: the axis classes' 1, 2 and 3, and 3.3636 beside
    # pnorm:3's 3.3735
    profile, surface, m_max = _case("pnorm:4")
    peaks = _peaks(*_length_spectrum(_levels(profile, 0.5, m_max)))
    own = _targets(surface)[0]
    targets, isolated = _targets(_case("pnorm:3")[1])
    foreign = [x for x in targets[isolated] if np.abs(own - x).min() > 4 / E_STAR]
    assert len(foreign) == 3
    assert _unmatched(foreign, peaks) == foreign
