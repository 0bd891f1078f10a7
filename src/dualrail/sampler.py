"""Two-photon output statistics: closed-form 2x2 permanents with partial
distinguishability, batched over stacks of unitaries, shot-noisy coincidence
sampling, and the general Ryser `permanent` as the reference oracle."""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import optics
from .errors import DegenerateDataError


def permanent(matrix: np.ndarray, method: str = "ryser") -> complex:
    """Matrix permanent.

    `ryser` uses Ryser's inclusion-exclusion formula with Gray-code ordered
    subset updates (O(2^n n), n <= 20).  `exact_sum` is the literal
    permutation sum kept as a cross-check oracle (n <= 8).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("permanent requires a square matrix")
    n = m.shape[0]
    if n == 0:
        return complex(1.0)
    if method == "exact_sum":
        if n > 8:
            raise ValueError("exact_sum supports n <= 8")
        total = 0.0 + 0.0j
        for perm in itertools.permutations(range(n)):
            prod = 1.0 + 0.0j
            for i, j in enumerate(perm):
                prod *= m[i, j]
            total += prod
        return complex(total)
    if method != "ryser":
        raise ValueError(f"unknown permanent method {method!r}")
    if n > 20:
        raise ValueError("ryser supports n <= 20")

    # Gray-code walk over nonempty column subsets; row_sums tracks the sum
    # of the selected columns for every row.
    row_sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        changed = new_gray ^ gray
        j = changed.bit_length() - 1
        if new_gray & changed:
            row_sums += m[:, j]
        else:
            row_sums -= m[:, j]
        gray = new_gray
        bits = bin(gray).count("1")
        total += (-1.0) ** (n - bits) * np.prod(row_sums)
    return complex(total)


def _validate_fock(state, n_modes: int) -> tuple[int, ...]:
    s = tuple(int(x) for x in state)
    if len(s) != n_modes:
        raise ValueError(f"expected {n_modes} modes, got {len(s)}")
    if any(x < 0 for x in s):
        raise ValueError("occupations must be nonnegative")
    return s


def _mode_list(state) -> list[int]:
    return [mode for mode, occ in enumerate(state) for _ in range(occ)]


def submatrix_for_transition(U: np.ndarray, input_state, output_state) -> np.ndarray:
    """Rows picked by output occupations, columns by input occupations."""
    U = np.asarray(U, dtype=complex)
    n = U.shape[0]
    inp = _validate_fock(input_state, n)
    out = _validate_fock(output_state, n)
    if sum(inp) != sum(out):
        raise ValueError("photon number mismatch between input and output")
    rows = _mode_list(out)
    cols = _mode_list(inp)
    return U[np.ix_(rows, cols)]


def _factorial_norm(state) -> float:
    return float(math.prod(math.factorial(occ) for occ in state))


def prob_indistinguishable(U: np.ndarray, input_state, output_state) -> float:
    """|Perm(U_in,out)|^2 normalized by the occupation factorials."""
    sub = submatrix_for_transition(U, input_state, output_state)
    norm = _factorial_norm(input_state) * _factorial_norm(output_state)
    return float(abs(permanent(sub)) ** 2 / norm)


def _pair_modes(n_modes: int, input_state, output_state):
    # input and output mode pairs of a two-photon transition
    inp = _validate_fock(input_state, n_modes)
    out = _validate_fock(output_state, n_modes)
    if sum(inp) != 2 or max(inp) != 1 or sum(out) != 2:
        raise ValueError("expected two photons, entering in distinct modes")
    return _mode_list(inp), _mode_list(out)


def _mul(a, b):
    # complex product from real parts, rounded like the scalar product:
    # numpy's vectorized complex multiply may fuse and round differently
    return ((a.real * b.real - a.imag * b.imag)
            + 1j * (a.real * b.imag + a.imag * b.real))


def _perm2(m):
    """Permanents m00 m11 + m01 m10 of stacked 2x2 matrices m[..., 2, 2],
    expanded as Ryser's Gray-code walk does, so they equal `permanent`."""
    row0 = m[..., 0, 0] + m[..., 0, 1]
    row1 = m[..., 1, 0] + m[..., 1, 1]
    return ((_mul(row0, row1) - _mul(m[..., 0, 0], m[..., 1, 0]))
            - _mul(row0 - m[..., 0, 0], row1 - m[..., 1, 0]))


def _two_photon(U, modes_in, modes_out, x):
    """P = (1-x^2) Perm(|S|^2) + x^2 |Perm(S)|^2, over 2! if i == j.

    S = U[(i, j), (a, b)] for photons entering modes_in = (a, b) and leaving
    in modes_out = (i, j), or in each row of a (K, 2) array of such pairs.
    U may be a stack of unitaries, and x an array of overlaps.
    """
    x = np.asarray(x, dtype=float)
    if not all(0.0 <= v <= 1.0 for v in x.flat):
        raise ValueError(f"overlap x must lie in [0, 1], got {x}")
    U = np.asarray(U, dtype=complex)
    rows = np.asarray(modes_out)
    sub = U[..., rows[..., None], np.asarray(modes_in)]
    norm = np.where(rows[..., 0] == rows[..., 1], 2.0, 1.0)
    amplitude, classical = _perm2(np.stack([sub, np.abs(sub) ** 2]))
    # hypot and pow round like abs(z) ** 2 of the oracle's Python complex
    quantum = np.float_power(np.hypot(amplitude.real, amplitude.imag), 2)
    x2 = x * x
    return (1.0 - x2) * (classical.real / norm) + x2 * (quantum / norm)


def prob_partial(U: np.ndarray, input_state, output_state, x: float) -> float:
    """Outcome probability for two photons with wavefunction overlap x.

    Interpolates between classical statistics (x=0) and the permanent
    formula (x=1): P(x) = (1-x^2) P_classical + x^2 P_indistinguishable,
    which for singly occupied outputs reduces to the explicit form
    |a|^2|d|^2 + |b|^2|c|^2 + x^2 (ad(bc)* + bc(ad)*).
    """
    modes = _pair_modes(np.asarray(U).shape[0], input_state, output_state)
    return float(_two_photon(U, *modes, x))


def two_photon_states() -> list[tuple[int, ...]]:
    """All 21 two-photon occupation vectors on the chip's six modes."""
    n = optics.N_MODES
    return [tuple((m == i) + (m == j) for m in range(n))
            for i in range(n) for j in range(i, n)]


# output mode pairs (i, j) of the coincidences C1..C4
_COINCIDENCE_MODES = [_mode_list(s) for s in optics.COINCIDENCE_STATES]


def coincidence_probabilities(U: np.ndarray, x: float = 1.0) -> np.ndarray:
    """P1..P4 for the four logical coincidence outputs with input |0,1,0,1,0,0>;
    U of shape (6, 6) gives shape (4,), a stack (N, 6, 6) gives (N, 4)."""
    return _two_photon(U, _mode_list(optics.INPUT_STATE), _COINCIDENCE_MODES, x)


def _shot_count(value, name: str) -> int:
    """`value` as an int, if it is a positive integer; a bool is not.  The
    error names the parameter `name` it was passed as."""
    try:
        if not isinstance(value, (bool, np.bool_)) and np.isfinite(value) \
                and value == int(value) > 0:
            return int(value)
    except (TypeError, ValueError):   # e.g. a string
        pass
    raise ValueError(f"{name} must be a positive integer, got {value!r}")


def sample_counts(probabilities, n_events: int, rng: np.random.Generator):
    """Multinomial coincidence counts with mean <C_j> = n_events * P_j.

    The n_events pairs are split between the four coincidence outcomes and
    an implicit discarded bucket of probability 1 - sum(P), mirroring
    post-selection.  The counts are int64 and shaped like P: a row (4,) or a
    stack (K, 4), drawn in one multinomial call that consumes `rng` exactly
    as K single calls in row order would.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != 4:
        raise ValueError(
            f"expected probabilities of shape (4,) or (K, 4), got shape {p.shape}")
    return _draw(p, _shot_count(n_events, "n_events"), rng)


def _draw(p: np.ndarray, n_events: int, rng: np.random.Generator):
    """`sample_counts` of float probabilities (K, 4) or (4,) for an int
    n_events > 0, both already checked; the probabilities are checked on
    every draw: nonnegative and finite, summing to at most 1 per row."""
    if not p.min() >= -1e-12:  # NaN fails this too
        raise ValueError("probabilities must be nonnegative")
    buckets = np.empty(p.shape[:-1] + (5,))
    np.maximum(p, 0.0, out=buckets[..., :4])
    total_p = buckets[..., :4].sum(axis=-1)
    if total_p.max() > 1.0 + 1e-9:   # +inf fails this
        raise ValueError(f"probabilities sum to {total_p.max()} > 1")
    buckets[..., 4] = np.maximum(1.0 - total_p, 0.0)
    buckets /= buckets.sum(axis=-1, keepdims=True)
    return rng.multinomial(n_events, buckets)[..., :4]


def hom_curve(U: np.ndarray, x_values) -> np.ndarray:
    """Coincidence probability versus photon overlap for the on-chip HOM scan:
    photons into modes 3 and 4, coincidences between modes 3 and 5, between
    which the chip set to the bare CNOT acts as a balanced splitter."""
    modes = _pair_modes(np.asarray(U).shape[0], (0, 0, 1, 1, 0, 0),
                        (0, 0, 1, 0, 1, 0))
    return _two_photon(U, *modes, x_values)


def hom_visibility(probabilities) -> float:
    """(P_max - P_min) / P_max over a measured HOM curve."""
    p = np.asarray(probabilities, dtype=float)
    pmax = p.max()
    if pmax <= 0:
        raise DegenerateDataError("flat zero HOM curve has no visibility")
    return float((pmax - p.min()) / pmax)
