"""The dtype rule of ``fields``: real input stays float64, complex input
complex128, and real input never reaches a complex LAPACK routine.

Every dense and band kernel is run on one real matrix as float64 and as
complex128 with zero imaginary part; the two runs must agree to 1e-12 on the
backward-error scale (relative to ||A||), and each must call LAPACK in its
own dtype only.
"""

import json

import numpy as np
import pytest

from framebench import equivalence, fields, linalg, localization, sampling
from framebench.frames import TruncationLadder, VectorFamily


@pytest.fixture
def lapack_dtypes(monkeypatch):
    """The dtypes of the arrays handed to numpy's dense solvers and to the
    routines ``linalg._band_lapack`` returns, in call order."""
    seen = []

    def recorded(fn):
        def call(*args, **kwargs):
            seen.extend(a.dtype for a in args if isinstance(a, np.ndarray))
            return fn(*args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh", "svd", "inv"):
        monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
    band_lapack = linalg._band_lapack
    monkeypatch.setattr(linalg, "_band_lapack",
                        lambda name, a: recorded(band_lapack(name, a)))
    return seen


def _spd(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T / n + 0.5 * np.eye(n)


def _totally_positive_band(n):
    # diagonally dominant, positive and tridiagonal: totally positive, so the
    # checkerboard path applies
    rng = np.random.default_rng(n)
    ab = np.zeros((2, n))
    ab[0] = 2.0 + rng.uniform(0.0, 1.0, n)
    ab[1, :n - 1] = rng.uniform(0.1, 1.0, n - 1)
    return ab


_A = _spd(24, 1)
_AB = np.random.default_rng(2).standard_normal((4, 30))  # lower band, bandwidth 3
_TP = _totally_positive_band(30)
_DECAY = np.random.default_rng(3).standard_normal((16, 12))

#: kernel -> (function of the input, input)
KERNELS = {
    "hermitian_eig": (lambda a: linalg.hermitian_eig(a)[0], _A),
    "hermitian_eigvals": (linalg.hermitian_eigvals, _A),
    "pnorm_operator": (lambda a: [linalg.pnorm_operator(a)], _A),
    "line_sums": (linalg.line_sums, _DECAY),
    "gain_probe": (lambda a: [linalg.gain_probe(a)], _DECAY),
    "band_min_eig": (lambda ab: [linalg.band_min_eig(ab), -linalg.band_min_eig(-ab)], _AB),
    "band_condition-block": (lambda ab: [linalg.band_condition(ab)], _TP),
    "band_condition-checkerboard": (
        lambda ab: [linalg.band_condition(ab, checkerboard=True)], _TP),
    "jaffard_norm": (lambda a: [localization.jaffard_norm(a, 2.5)], _DECAY),
    "schur_norm": (lambda a: [localization.schur_norm(a, localization.WeightSpec(
        form="subexponential", rate=0.3, power=0.5))], _DECAY),
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_agree_on_real_and_complex_input(lapack_dtypes, kernel):
    fn, a = KERNELS[kernel]
    real = np.asarray(fn(a.astype(np.float64)), dtype=float)
    real_calls = list(lapack_dtypes)
    lapack_dtypes.clear()
    cplx = np.asarray(fn(a.astype(np.complex128)), dtype=float)
    assert all(d == np.float64 for d in real_calls), real_calls
    assert all(d == np.complex128 for d in lapack_dtypes), lapack_dtypes
    # eigenvalues to 1e-12 of ||A||_2 (the largest of them in modulus), norms
    # and the condition numbers of these well-conditioned matrices to 1e-12
    # of their largest value
    assert np.max(np.abs(real - cplx)) <= 1e-12 * np.max(np.abs(real))


def test_real_inputs_make_no_complex_lapack_call(lapack_dtypes):
    profile = localization.LocalizationProfile(kind="jaffard", s=2.0)
    equivalence.run_battery(equivalence.counterexample_family, profile,
                            TruncationLadder((8, 16, 32, 64)))
    battery_calls = len(lapack_dtypes)
    half = (np.arange(9) - 4) * 0.5
    hat = sampling.Generator(kind="tabulated", samples=sampling.bspline_eval(1, half),
                             step=0.5, decay_s=2.0)
    assert hat.samples.dtype == np.float64
    sampling.stable_sampling_verdict(hat, sampling.SamplingSet.seeded_uniform(0.2, seed=1),
                                     TruncationLadder((32, 64)))
    assert 0 < battery_calls < len(lapack_dtypes)
    assert not any(d.kind == "c" for d in lapack_dtypes), set(lapack_dtypes)


@pytest.mark.parametrize("pairs, dtype", [
    ([[1, 0], [-2.5, 0.0], [0.0, -0.0]], np.float64),
    ([[1, 0], [-2.5, 0.0], [0.0, 1e-300]], np.complex128),
], ids=["imaginary-all-zero", "one-nonzero-imaginary"])
def test_pairs_decode_by_the_dtype_rule(pairs, dtype):
    values = fields.require_pairs("coeffs", pairs)
    assert values.dtype == dtype
    assert values.tolist() == [complex(re, im) for re, im in pairs]
    fam = VectorFamily.from_json({"ambient_dim": 3, "member_count": 1, "coeffs": pairs})
    assert fam.coeffs.dtype == dtype
    gen = sampling.Generator.from_json({"kind": "tabulated", "grid": {
        "samples": pairs + [[0, 0]] * 2, "step": 1.0}})
    assert gen.samples.dtype == dtype


@pytest.mark.parametrize("values, dtype", [
    ([[1, 2], [3, 4]], np.float64), (np.arange(4).reshape(2, 2), np.float64),
    (np.ones((2, 2), dtype=np.float32), np.float64),
    (np.ones((2, 2), dtype=np.complex64), np.complex128),
    (np.zeros((2, 2), dtype=np.complex128), np.complex128)])
def test_arrays_keep_the_kind_of_their_input(values, dtype):
    assert fields.require_numbers("values", values).dtype == dtype
    assert linalg.as_matrix(values).dtype == dtype


def test_real_family_json_bytes_are_unchanged():
    # the bytes a real family serialized to when every family was complex128
    fam = VectorFamily(np.array([[1.0, -2.5], [0.0, 0.125]]), label="r")
    text = ('{"label": "r", "ambient_dim": 2, "member_count": 2, "coeffs": '
            '[[1.0, 0.0], [-2.5, 0.0], [0.0, 0.0], [0.125, 0.0]]}')
    assert json.dumps(fam.to_json()) == text
    assert json.dumps(VectorFamily.from_json(json.loads(text)).to_json()) == text
    psi, _ = equivalence.counterexample_family(3)
    assert psi.coeffs.dtype == np.float64
    assert json.dumps(psi.to_json()["coeffs"]) == (
        "[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [0.0, 0.0], "
        "[0.0, 0.0], [0.0, 0.0], [0.3333333333333333, 0.0]]")
