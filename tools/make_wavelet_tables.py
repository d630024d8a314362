#!/usr/bin/env python3
"""Derive the orthogonal scaling-filter tables shipped in itfmap._wavelet_tables.

The four filter banks (sym4, coif5, db10, fk14) are standard published
designs.  Rather than copying decimals from literature at unknown precision,
this script reconstructs each filter to machine precision and freezes the
result into a generated Python module:

* db10  -- spectral factorization of the maxflat half-band polynomial,
           minimum-phase root selection (the classic Daubechies recipe).
* sym4  -- same factorization, least-asymmetric root selection.
* coif5 -- Gauss-Newton refinement of the published table against the
           defining conditions (orthonormality + vanishing moments for both
           the wavelet and the scaling function).
* fk14  -- nearest point on the orthonormality manifold to the published
           Fejer-Korovkin table (the filter has no simple moment
           characterization, so the published values anchor the projection).

Every output is gated on the quadrature-mirror identities before it is
written; a failure here aborts the generation.

Reproducibility: sym4, coif5 and db10 come out bit-equal to the shipped
tables (checked with NumPy 2.4.6), but fk14 does not.  Its iterative `pinv`
projection lands up to about 1.5e-8 away from the shipped values, and the
amount depends on the linear-algebra library.  Re-running this script
therefore moves every ``wt-fk14-*`` output.  tests/test_wavelets.py checks
the first three exactly and fk14 to within 1e-7 without calling `main()`.

Run from the repo root:  python tools/make_wavelet_tables.py
"""

from __future__ import annotations

import sys
from math import comb, sqrt
from pathlib import Path

import numpy as np

OUT_PATH = Path(__file__).resolve().parent.parent / "src" / "itfmap" / "_wavelet_tables.py"

SQRT2 = sqrt(2.0)


# ----------------------------------------------------------------------
# Reference decimals used only to validate orientation / seed the solvers.
# ----------------------------------------------------------------------

# Exact closed form, used to self-test the factorization code.
DB2_EXACT = np.array(
    [(1 + sqrt(3)), (3 + sqrt(3)), (3 - sqrt(3)), (1 - sqrt(3))]
) / (4 * SQRT2)

DB4_REF = np.array([
    0.2303778133088965, 0.7148465705529157, 0.6308807679298589,
    -0.0279837694168599, -0.1870348117190931, 0.0308413818355607,
    0.0328830116668852, -0.0105974017850690,
])

DB10_REF_HEAD = np.array([
    0.0266700579005555, 0.1881768000776915, 0.5272011889317255,
    0.6884590394536035, 0.2811723436605715, -0.2498464243273153,
])

SYM4_REF = np.array([
    0.0322231006040427, -0.0126039672620378, -0.0992195435768472,
    0.2978577956052774, 0.8037387518059161, 0.4976186676320155,
    -0.0296355276459985, -0.0757657147892733,
])

COIF5_SEED = np.array([
    -9.517657273819165e-08, -1.6744288576823017e-07,
    2.0637618513646814e-06, 3.7346551751414047e-06,
    -2.1315026809955787e-05, -4.134043227251251e-05,
    0.00014054114970203437, 0.00030225958181306315,
    -0.0006381313430451114, -0.0016628637020130838,
    0.0024333732126576722, 0.006764185448053083,
    -0.009164231162481846, -0.01976177894257264,
    0.03268357426711183, 0.0412892087501817,
    -0.10557420870333893, -0.06203596396290357,
    0.4379916261718371, 0.7742896036529562,
    0.4215662066908515, -0.05204316317624377,
    -0.09192001055969624, 0.02816802897093635,
    0.023408156785839195, -0.010131117519849788,
    -0.004159358781386048, 0.0021782363581090178,
    0.00035858968789573785, -0.00021208083980379827,
])

FK14_SEED = np.array([
    0.2603717692913964, 0.6868914772395985, 0.6115546539595115,
    0.0512700052182577, -0.2457439729878481, -0.0486084016619905,
    0.1222253655661878, 0.0222452498357058, -0.0639902857405411,
    -0.0050743725499728, 0.0298027578942586, -0.0026497734536871,
    -0.0101411712450097, 0.0023456561915602,
])


# ----------------------------------------------------------------------
# Shared residual machinery
# ----------------------------------------------------------------------

def orthonormality_residuals(h: np.ndarray) -> np.ndarray:
    """Residuals of sum_n h[n] h[n+2k] = delta_k for k = 0 .. L/2-1."""
    L = len(h)
    out = []
    for k in range(L // 2):
        r = float(np.dot(h[: L - 2 * k], h[2 * k:]))
        out.append(r - (1.0 if k == 0 else 0.0))
    return np.array(out)


def dc_residual(h: np.ndarray) -> float:
    return float(np.sum(h) - SQRT2)


def wavelet_moment_residuals(h: np.ndarray, nmom: int) -> np.ndarray:
    """sum_n (-1)^n (n/L)^p h[n] = 0 for p = 0..nmom-1 (vanishing psi moments).

    Scaled by L^p so all residuals sit on a comparable footing.
    """
    L = len(h)
    n = np.arange(L, dtype=float) / L
    sgn = (-1.0) ** np.arange(L)
    return np.array([float(np.sum(sgn * n**p * h)) for p in range(nmom)])


def scaling_moment_residuals(h: np.ndarray, nmom: int, center: float) -> np.ndarray:
    """sum_n ((n-center)/L)^p h[n] = 0 for p = 1..nmom (coiflet phi moments)."""
    L = len(h)
    n = (np.arange(L, dtype=float) - center) / L
    return np.array([float(np.sum(n**p * h)) for p in range(1, nmom + 1)])


def _numeric_jacobian(residual_fn, h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian; adequate because GN only needs direction."""
    eps = 1e-6
    J = np.empty((len(r), len(h)))
    for j in range(len(h)):
        hp = h.copy()
        hm = h.copy()
        hp[j] += eps
        hm[j] -= eps
        J[:, j] = (residual_fn(hp) - residual_fn(hm)) / (2 * eps)
    return J


def gauss_newton(h0: np.ndarray, residual_fn, iters: int = 200) -> np.ndarray:
    """Least-squares Newton with numeric Jacobian and step damping."""
    h = h0.astype(float).copy()
    for _ in range(iters):
        r = residual_fn(h)
        if np.max(np.abs(r)) < 5e-16:
            break
        J = _numeric_jacobian(residual_fn, h, r)
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        # damped line search on the residual norm
        scale = 1.0
        base = np.linalg.norm(r)
        improved = False
        for _ in range(30):
            cand = h + scale * step
            if np.linalg.norm(residual_fn(cand)) < base:
                h = cand
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    return h


# ----------------------------------------------------------------------
# Daubechies / Symlet spectral factorization
# ----------------------------------------------------------------------

def _candidate_z_roots(N: int) -> list[complex]:
    """Roots (inside unit circle) of the degree-(N-1) maxflat remainder."""
    # P(y) = sum_k C(N-1+k, k) y^k, y = (2 - z - 1/z)/4
    py = [comb(N - 1 + k, k) for k in range(N)]  # ascending in y
    yroots = np.roots(list(reversed(py)))
    zin = []
    for y in yroots:
        # z^2 - (2 - 4y) z + 1 = 0  -> reciprocal pair
        b = 2 - 4 * y
        disc = np.sqrt(complex(b * b - 4))
        for z in ((b + disc) / 2, (b - disc) / 2):
            if abs(z) < 1.0:
                zin.append(complex(z))
    return zin


def _filter_from_roots(zsel: list[complex], N: int) -> np.ndarray:
    poly = np.array([1.0 + 0j])
    for z in zsel:
        poly = np.convolve(poly, np.array([1.0, -z]))
    for _ in range(N):
        poly = np.convolve(poly, np.array([1.0, 1.0]))
    h = poly.real
    h *= SQRT2 / np.sum(h)
    return h


def _conjugate_groups(roots: list[complex]) -> list[list[complex]]:
    """Group the in-circle roots into real singletons / conjugate pairs."""
    groups: list[list[complex]] = []
    used = [False] * len(roots)
    for i, z in enumerate(roots):
        if used[i]:
            continue
        if abs(z.imag) < 1e-9:
            groups.append([z])
            used[i] = True
            continue
        for j in range(i + 1, len(roots)):
            if not used[j] and abs(roots[j] - z.conjugate()) < 1e-7:
                groups.append([z, roots[j]])
                used[i] = used[j] = True
                break
    return groups


def make_daubechies(N: int) -> np.ndarray:
    """Minimum-phase orthogonal filter with N vanishing moments (length 2N)."""
    h = _filter_from_roots(_candidate_z_roots(N), N)

    def res(hh):
        return np.concatenate([
            orthonormality_residuals(hh),
            [dc_residual(hh)],
            wavelet_moment_residuals(hh, N),
        ])

    h = gauss_newton(h, res)
    assert np.max(np.abs(res(h))) < 1e-12, f"db{N} residual too large"
    return h


def make_symlet(N: int, ref: np.ndarray) -> np.ndarray:
    """Least-asymmetric orthogonal filter; orientation pinned by `ref`."""
    groups = _conjugate_groups(_candidate_z_roots(N))
    best = None
    for mask in range(1 << len(groups)):
        zsel: list[complex] = []
        for gi, grp in enumerate(groups):
            if mask >> gi & 1:
                zsel.extend(1.0 / z for z in grp)  # flip group outside circle
            else:
                zsel.extend(grp)
        h = _filter_from_roots(zsel, N)
        for cand in (h, h[::-1]):
            d = np.max(np.abs(cand - ref))
            if best is None or d < best[0]:
                best = (d, cand)
    assert best is not None and best[0] < 1e-6, "symlet selection failed to match reference"
    h = best[1]

    def res(hh):
        return np.concatenate([
            orthonormality_residuals(hh),
            [dc_residual(hh)],
            wavelet_moment_residuals(hh, N),
        ])

    h = gauss_newton(h, res)
    assert np.max(np.abs(res(h))) < 1e-12, f"sym{N} residual too large"
    return h


# ----------------------------------------------------------------------
# Coiflet: moment conditions + orthonormality, seeded by published table
# ----------------------------------------------------------------------

def make_coiflet5() -> np.ndarray:
    K = 5  # order: 2K vanishing psi moments, 2K-1 phi moments, 6K taps
    seed = COIF5_SEED.copy()

    # the phi-moment center is the integer offset minimizing the seed residual
    centers = range(10, 25)
    center = min(
        centers,
        key=lambda c: np.sum(scaling_moment_residuals(seed, 2 * K - 1, c) ** 2),
    )

    def res(hh):
        return np.concatenate([
            orthonormality_residuals(hh),
            [dc_residual(hh)],
            wavelet_moment_residuals(hh, 2 * K),
            scaling_moment_residuals(hh, 2 * K - 1, center),
        ])

    h = gauss_newton(seed, res)
    drift = np.max(np.abs(h - seed))
    assert np.max(np.abs(orthonormality_residuals(h))) < 1e-13, "coif5 orthonormality"
    assert abs(dc_residual(h)) < 1e-13, "coif5 DC gain"
    # the published table only satisfies orthonormality to ~4e-9 (a known
    # limitation of the historical coiflet tables); the exact solution sits
    # ~1e-5 away, so accept that much drift and no more.
    assert drift < 5e-5, f"coif5 drifted {drift:.2e} from published values"
    print(f"  coif5: phi-moment center n0={center}, polish drift {drift:.2e}")
    return h


# ----------------------------------------------------------------------
# Fejer-Korovkin 14: nearest orthonormal filter to the published table
# ----------------------------------------------------------------------

def make_fk14() -> np.ndarray:
    """Nearest exactly-orthonormal filter to the published fk14 table.

    The Fejer-Korovkin family has no simple moment characterization to solve
    for, so the published decimals are the anchor; they are accurate to about
    1e-3 here and the projection restores the quadrature identities exactly.
    """
    seed = FK14_SEED.copy()

    def constraints(hh):
        alt = float(np.sum(((-1.0) ** np.arange(len(hh))) * hh))  # highpass DC
        return np.concatenate([orthonormality_residuals(hh), [dc_residual(hh), alt]])

    h = seed.copy()
    for outer in range(50):
        # restore feasibility: Gauss-Newton on the constraints alone
        for _ in range(50):
            c = constraints(h)
            if np.max(np.abs(c)) < 1e-15:
                break
            J = _numeric_jacobian(constraints, h, c)
            h = h - J.T @ np.linalg.solve(J @ J.T, c)
        # move toward the seed within the tangent space of the manifold
        c = constraints(h)
        J = _numeric_jacobian(constraints, h, c)
        Jp = np.linalg.pinv(J)
        tangential = (np.eye(len(h)) - Jp @ J) @ (seed - h)
        if np.linalg.norm(tangential) < 1e-14:
            break
        h = h + tangential
    # final feasibility polish
    for _ in range(50):
        c = constraints(h)
        if np.max(np.abs(c)) < 1e-15:
            break
        J = _numeric_jacobian(constraints, h, c)
        h = h - J.T @ np.linalg.solve(J @ J.T, c)
    c = constraints(h)
    drift = np.max(np.abs(h - seed))
    assert np.max(np.abs(c)) < 1e-13, "fk14 projection failed"
    assert drift < 5e-3, f"fk14 drifted {drift:.2e} from published values"
    print(f"  fk14: projection drift from published table {drift:.2e}")
    return h


# ----------------------------------------------------------------------

def verify_bank(name: str, h: np.ndarray) -> None:
    orth = np.max(np.abs(orthonormality_residuals(h)))
    dc = abs(dc_residual(h))
    g = ((-1.0) ** np.arange(len(h))) * h[::-1]
    nyq = abs(np.sum(g))  # highpass DC leakage
    print(f"  {name}: L={len(h)} orth={orth:.2e} dc={dc:.2e} hp-dc={nyq:.2e}")
    assert orth < 1e-13 and dc < 1e-13


def main() -> int:
    print("deriving filter banks ...")

    db2 = make_daubechies(2)
    assert np.max(np.abs(db2 - DB2_EXACT)) < 1e-13, "db2 closed-form check failed"
    db4 = make_daubechies(4)
    assert np.max(np.abs(db4 - DB4_REF)) < 1e-8, "db4 reference check failed"

    db10 = make_daubechies(10)
    assert np.max(np.abs(db10[:6] - DB10_REF_HEAD)) < 1e-6, "db10 head check failed"
    sym4 = make_symlet(4, SYM4_REF)
    coif5 = make_coiflet5()
    fk14 = make_fk14()

    banks = {"sym4": sym4, "coif5": coif5, "db10": db10, "fk14": fk14}
    for name, h in banks.items():
        verify_bank(name, h)

    lines = [
        '"""Orthogonal scaling-filter tables (synthesis lowpass, DC gain sqrt(2)).',
        "",
        "Generated by tools/make_wavelet_tables.py -- do not edit by hand.",
        "Each entry is the reconstruction lowpass filter h; the analysis pair and",
        "the highpass filters are derived from h by the quadrature-mirror relation.",
        '"""',
        "",
        "SCALING_FILTERS = {",
    ]
    for name, h in banks.items():
        lines.append(f'    "{name}": (')
        for v in h:
            lines.append(f"        {float(v)!r},")
        lines.append("    ),")
    lines.append("}")
    lines.append("")
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text("\n".join(lines))
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
