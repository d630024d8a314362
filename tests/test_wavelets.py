"""Filter-bank identities, periodic DWT reconstruction, undecimated pyramid."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from itfmap import denoise, wavelets
from itfmap._wavelet_tables import SCALING_FILTERS
from itfmap.evaluate import FILTERS
from itfmap.wavelets import TAP_BLOCK, get_basis

ALL_BASES = wavelets.available_bases()
TABLE_TOOL = Path(__file__).resolve().parent.parent / "tools" / "make_wavelet_tables.py"


def strided_analysis_step(x, basis):
    """Reference analysis: whole-signal strided passes over the tiled
    signal, one tap at a time, h and g interleaved per tap."""
    n0 = len(x)
    if n0 % 2:
        x = np.concatenate([x, x[-1:]])
    n = len(x)
    L = basis.length
    xx = np.tile(x, int(np.ceil((n + L) / n)))[: n + L]
    a = np.zeros(n // 2)
    d = np.zeros(n // 2)
    for m in range(L):
        sl = xx[m : m + n : 2]
        a += basis.rec_lo[m] * sl
        d += basis.rec_hi[m] * sl
    return a, d, n0


def rolled_synthesis_step(a, d, basis, n0):
    """Reference synthesis: each tap adds the zero-interleaved coefficients
    rolled by the tap index, h taps first, then g."""
    n = 2 * len(a)
    up = np.zeros(n)
    out = np.zeros(n)
    for coeffs, filt in ((a, basis.rec_lo), (d, basis.rec_hi)):
        up[:] = 0.0
        up[::2] = coeffs
        for m in range(len(filt)):
            out += filt[m] * np.roll(up, m)
    return out[:n0]


def rolled_waverec(coeffs, basis):
    a, *details, lengths = coeffs
    for d, n0 in zip(details, lengths[::-1]):
        a = rolled_synthesis_step(a, d, basis, int(n0))
    return a


class TestFilterBanks:
    def test_expected_inventory(self):
        assert set(ALL_BASES) == {"sym4", "coif5", "db10", "fk14"}

    @pytest.mark.parametrize("name", ALL_BASES)
    def test_quadrature_identities(self, name):
        assert wavelets.perfect_reconstruction_residual(get_basis(name)) < 1e-12

    @pytest.mark.parametrize("name,length", [("sym4", 8), ("coif5", 30), ("db10", 20), ("fk14", 14)])
    def test_lengths(self, name, length):
        assert get_basis(name).length == length

    def test_tables_match_their_generator(self):
        """The shipped tables are what tools/make_wavelet_tables.py derives
        (its `main()`, which rewrites them, is not called): sym4, coif5 and
        db10 bit for bit; fk14 within 1e-7, as its iterative projection moves
        with the linear-algebra library."""
        spec = importlib.util.spec_from_file_location("make_wavelet_tables", TABLE_TOOL)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        derived = {
            "sym4": tool.make_symlet(4, tool.SYM4_REF),
            "coif5": tool.make_coiflet5(),
            "db10": tool.make_daubechies(10),
            "fk14": tool.make_fk14(),
        }
        for name in ("sym4", "coif5", "db10"):
            assert derived[name].tolist() == list(SCALING_FILTERS[name]), name
        np.testing.assert_allclose(derived["fk14"], SCALING_FILTERS["fk14"], rtol=0, atol=1e-7)

    def test_unknown_basis(self):
        with pytest.raises(KeyError, match="unknown wavelet basis"):
            get_basis("haar99")

    def test_highpass_orthogonal_to_lowpass(self):
        for name in ALL_BASES:
            b = get_basis(name)
            L = b.length
            for k in range(L // 2):
                dot = float(np.dot(b.rec_lo[: L - 2 * k], b.rec_hi[2 * k :]))
                assert abs(dot) < 1e-12


class TestPeriodicDwt:
    @pytest.mark.parametrize("name", ALL_BASES)
    @pytest.mark.parametrize("n", [256, 300, 257, 1000])
    def test_reconstruction_identity(self, name, n):
        rng = np.random.default_rng(17)
        x = rng.normal(size=n)
        basis = get_basis(name)
        back = wavelets.waverec(wavelets.wavedec(x, basis, 4), basis)
        assert back.shape == x.shape
        assert np.max(np.abs(back - x)) < 1e-10

    @pytest.mark.parametrize("name", ALL_BASES)
    @pytest.mark.parametrize("n", [16, 17, 18, 33, 1024, 1025])
    def test_synthesis_equals_the_rolled_reference(self, name, n):
        """Bit for bit, on soft-thresholded details (zeros and -0.0
        included); at n = 16/17 the coarsest levels are shorter than every
        filter (coif5: 30 taps on 2 coefficients)."""
        basis = get_basis(name)
        x = np.random.default_rng(n).normal(size=n)
        a, *details, lengths = wavelets.wavedec(x, basis, 4)
        details = [wavelets.soft_threshold(d, 0.5) for d in details]
        coeffs = [a, *details, lengths]
        assert wavelets.waverec(coeffs, basis).tobytes() == rolled_waverec(coeffs, basis).tobytes()
        for d, n0 in zip(details, lengths[::-1]):
            step = wavelets._synthesis_step(a, d, basis, int(n0))
            assert step.tobytes() == rolled_synthesis_step(a, d, basis, int(n0)).tobytes()
            a = step

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            wavelets.wavedec(np.zeros(7), get_basis("sym4"), 3)

    def test_energy_preserved_even_lengths(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=512)
        basis = get_basis("db10")
        *parts, _lengths = wavelets.wavedec(x, basis, 4)
        total = sum(float(np.dot(p, p)) for p in parts)
        assert abs(total - float(np.dot(x, x))) < 1e-9


def signed_zero_signal(n, seed):
    """Normal samples with every fifth set to -0.0 and every seventh
    (from the second) to 0.0."""
    x = np.random.default_rng(seed).normal(size=n)
    x[::5] = -0.0
    x[1::7] = 0.0
    return x


class TestBlockedKernels:
    """`_analysis_step` and `_synthesis_step` sum the taps of `TAP_BLOCK`
    outputs at a time, and must match the whole-signal references byte for
    byte at every block size."""

    @staticmethod
    def lengths(block):
        """Every length below the longest filter (coif5, 30 taps), odd ones
        past it, and those whose half crosses a block edge."""
        edges = [2 * block - 1, 2 * block + 1, 4 * block + 3] if block < 1 << 20 else []
        return sorted({*range(2, 30), 33, 101, 1025, *edges} - {1})

    @pytest.mark.parametrize("name", ALL_BASES)
    @pytest.mark.parametrize("block", [TAP_BLOCK, 1, 7, 1 << 30])
    def test_steps_match_the_references(self, monkeypatch, name, block):
        monkeypatch.setattr(wavelets, "TAP_BLOCK", block)
        basis = get_basis(name)
        for n in self.lengths(block):
            for x in (signed_zero_signal(n, n), np.full(n, -0.0)):
                a, d, n0 = wavelets._analysis_step(x, basis)
                ra, rd, rn0 = strided_analysis_step(x, basis)
                assert (a.tobytes(), d.tobytes(), n0) == (ra.tobytes(), rd.tobytes(), rn0), n
                a = np.where(np.arange(len(a)) % 3 == 0, -0.0, a)
                d = wavelets.soft_threshold(d, 0.5)  # zeros, -0.0 among them
                step = wavelets._synthesis_step(a, d, basis, n0)
                assert step.tobytes() == rolled_synthesis_step(a, d, basis, n0).tobytes(), n

    @pytest.mark.parametrize("spec", [f for f in FILTERS if f.startswith("wt-")])
    @pytest.mark.parametrize("block", [TAP_BLOCK, 1000])
    def test_denoise_matches_the_reference_kernels(self, monkeypatch, spec, block):
        """Across three blocks and an odd tail, at any block size."""
        x = signed_zero_signal(3 * TAP_BLOCK + 5, 9)
        monkeypatch.setattr(wavelets, "TAP_BLOCK", block)
        out = denoise.apply_filter(x, spec, 4e-9)
        monkeypatch.setattr(wavelets, "_analysis_step", strided_analysis_step)
        monkeypatch.setattr(wavelets, "_synthesis_step", rolled_synthesis_step)
        assert out.tobytes() == denoise.apply_filter(x, spec, 4e-9).tobytes()


class TestUndecimated:
    def test_level_count_and_lengths(self):
        x = np.zeros(128)
        out = wavelets.modwt(x, get_basis("sym4"), 3)
        assert len(out) == 4
        assert all(len(v) == 128 for v in out)

    def test_energy_preserved_for_interior_support(self):
        rng = np.random.default_rng(0)
        x = np.zeros(256)
        x[40:180] = rng.normal(size=140)
        out = wavelets.modwt(x, get_basis("sym4"), 3)
        total = sum(float(np.dot(v, v)) for v in out)
        assert abs(total / float(np.dot(x, x)) - 1.0) < 1e-12

    def test_shift_invariance_linear(self):
        rng = np.random.default_rng(1)
        x = np.zeros(256)
        x[40:180] = rng.normal(size=140)
        w = wavelets.modwt(x, get_basis("sym4"), 3)
        s = 9
        xs = np.zeros(256)
        xs[s:] = x[:-s]
        ws = wavelets.modwt(xs, get_basis("sym4"), 3)
        for j in range(4):
            assert np.max(np.abs(ws[j][s:200] - w[j][: 200 - s])) < 1e-12

    def test_details_without_the_last_approximation(self):
        x = np.random.default_rng(2).normal(size=100)
        basis = get_basis("sym4")
        full = wavelets.modwt(x, basis, 3)
        details = wavelets.modwt_levels(x, wavelets.level_filters(basis, 3), approximation=False)
        assert len(details) == 3
        for d, ref in zip(details, full[:3]):
            np.testing.assert_array_equal(d, ref)

    def test_level_band_accounting(self):
        # at 4 ns (250 MS/s): level 1 = 62.5-125 MHz, level 2 = 31.25-62.5 MHz
        assert wavelets.level_band(1, 4e-9) == pytest.approx((62.5e6, 125e6))
        assert wavelets.level_band(2, 4e-9) == pytest.approx((31.25e6, 62.5e6))
        assert wavelets.levels_in_band(4, 4e-9, (40e6, 80e6)) == [1, 2]
        assert wavelets.levels_in_band(2, 6.25e-9, (40e6, 80e6)) == [1]


class TestThresholds:
    def test_universal_value(self):
        assert wavelets.universal_threshold(2.0, 1000) == pytest.approx(
            2.0 * np.sqrt(2 * np.log(1000))
        )

    def test_sigma_estimate_gaussian(self):
        rng = np.random.default_rng(4)
        d = rng.normal(0, 3.0, 200_000)
        assert wavelets.noise_sigma(d) == pytest.approx(3.0, rel=0.02)

    def test_soft_threshold_shrinks(self):
        x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        np.testing.assert_allclose(wavelets.soft_threshold(x, 1.0), [-2, 0, 0, 0, 2])

    def test_sure_threshold_brute_force_oracle(self):
        # oracle: scan candidate thresholds, evaluate the SURE risk directly
        rng = np.random.default_rng(11)
        d = rng.normal(size=300) * 1.7
        sigma = 1.7
        t_fast = wavelets.sure_threshold(d, sigma)
        x = d / sigma

        def risk(t):
            clipped = np.minimum(np.abs(x), t)
            return len(x) - 2 * np.sum(np.abs(x) <= t) + np.sum(clipped**2)

        cands = np.abs(x)
        best = cands[np.argmin([risk(t) for t in cands])]
        assert t_fast == pytest.approx(sigma * best, abs=1e-12)
