"""Battery tests: the three canonical generators, verdict rules, duality
symmetry, borderline handling, and the coordinate-norm equivalence check."""

from collections import Counter
import math

import numpy as np
import pytest
import scipy.linalg as sla

from framebench import cli, equivalence, frames, linalg, rdual
from framebench.equivalence import (
    coorbit_equivalence_check,
    counterexample_family,
    perturbed_onb_family,
    run_battery,
)
from framebench.errors import NotAFrameError, PreconditionEvidenceError
from framebench.frames import TruncationLadder, VectorFamily
from framebench.localization import LocalizationProfile

PROFILE = LocalizationProfile(kind="jaffard", s=2.0)
LADDER = TruncationLadder((8, 16, 32, 64))


def onb_pair(n):
    return VectorFamily.onb(n), VectorFamily.onb(n)


# --------------------------------------------------------------------------
# the three canonical battery runs
# --------------------------------------------------------------------------

def test_battery_onb_all_pass_with_unit_witnesses():
    rep = run_battery(onb_pair, PROFILE, LADDER)
    assert rep.consistent
    for w in rep.witnesses:
        assert w.verdict == "pass"
        assert all(v == 1.0 for _, v in w.quantities)


def test_battery_harmonic_counterexample_fails_uniformity():
    rep = run_battery(counterexample_family, PROFILE, LADDER)
    assert rep.consistent
    assert all(w.verdict == "fail" for w in rep.witnesses)
    # directly computed witnesses carry the closed-form ladder values
    for _n, v in rep.witness(1).quantities:
        assert np.isclose(v, 1.0 / _n**2, rtol=1e-10)
    for _n, v in rep.witness(8).quantities:
        assert np.isclose(v, float(_n**2), rtol=1e-9)
    for _n, v in rep.witness(10).quantities:
        assert np.isclose(v, 1.0 / _n**2, rtol=1e-10)
    # injectivity holds pointwise even though the uniform proxy fails
    assert "pointwise injectivity holds" in rep.witness(4).proxy_note
    assert "pointwise injectivity holds" in rep.witness(6).proxy_note
    for _n, v in rep.witness(4).quantities:
        assert np.isclose(v, 1.0 / _n, rtol=1e-12)


def test_battery_perturbed_onb_neumann_bound():
    eps = 0.3
    rep = run_battery(lambda n: perturbed_onb_family(n, epsilon=eps, seed=5),
                      PROFILE, LADDER, seed=5)
    assert rep.consistent
    assert all(w.verdict == "pass" for w in rep.witnesses)
    for _n, v in rep.witness(1).quantities:
        assert v >= (1 - eps) ** 2 - 1e-12
    assert rep.seed == 5


# --------------------------------------------------------------------------
# non-orthogonal reference: the shared factorizations against the plain path
# --------------------------------------------------------------------------

def toeplitz_pair(n, theta=0.7, seed=4):
    """psi = (I + E) T over the Hermitian tridiagonal Toeplitz reference
    T = I + 0.2 (e^{i theta} L + e^{-i theta} L^H), L the lower shift."""
    off = np.full(n - 1, 0.2 * np.exp(1j * theta))
    t = np.eye(n, dtype=complex) + np.diag(off, -1) + np.diag(off.conj(), 1)
    psi, _ = perturbed_onb_family(n, 0.3, seed=seed)
    return VectorFamily(psi.coeffs @ t), VectorFamily(t)


def plain_witnesses(psi, phi):
    """The ten witnesses at one size, each from its own per-function call."""
    omega = rdual.rdual(psi, phi)
    dual = frames.canonical_dual(phi)
    coord = dual.coeffs.conj().T @ frames.frame_operator(psi) @ phi.coeffs
    g_omega = frames.gram(omega)
    gain4 = linalg.smallest_gain(frames.cross_gram(psi, phi), math.inf).upper
    gain6 = linalg.smallest_gain(frames.cross_gram(dual, omega), math.inf).upper
    return [frames.riesz_bounds(psi).lower,  # psi is square: same spectrum as S_psi
            linalg.condition_p(coord, 1), linalg.condition_p(coord, math.inf),
            gain4, gain4, gain6, gain6,
            linalg.condition_p(g_omega, 1), linalg.condition_p(g_omega, math.inf),
            frames.riesz_bounds(omega).lower]


def test_battery_non_orthogonal_reference_matches_plain_path():
    rep = run_battery(toeplitz_pair, PROFILE, LADDER)
    assert rep.consistent
    assert all(w.verdict == "pass" for w in rep.witnesses)
    for idx, size in enumerate(LADDER.sizes):
        expected = plain_witnesses(*toeplitz_pair(size))
        got = [w.quantities[idx][1] for w in rep.witnesses]
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0), size
    # the reference side is real work here: coordinate and companion
    # condition numbers no longer coincide as they do over an ONB
    assert rep.witness(2).quantities != rep.witness(8).quantities


def counted(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_factorizations(monkeypatch):
    """Counter of the dense factorizations made from here to the test's end."""
    counts = Counter()
    monkeypatch.setattr(np.linalg, "eigh", counted(counts, "eigh", np.linalg.eigh))
    for name in ("eigh", "svdvals", "inv", "solve"):
        monkeypatch.setattr(sla, name,
                            counted(counts, f"sla.{name}", getattr(sla, name)))
    return counts


def test_battery_factorization_budget(monkeypatch):
    ladder = TruncationLadder((8, 16, 32))
    pairs = {n: toeplitz_pair(n) for n in ladder}
    factorizations = count_factorizations(monkeypatch)
    run_battery(counted(factorizations, "family_gen", pairs.__getitem__),
                PROFILE, ladder)
    # per size: eigh of S_phi, S_psi and the companion Gram; one SVD and
    # one inverse of the coordinate matrix; one inverse of the companion Gram
    n = len(ladder.sizes)
    assert factorizations == Counter({"family_gen": n, "eigh": 3 * n,
                                      "sla.svdvals": n, "sla.inv": 2 * n})


def test_rdual_command_factorization_budget(monkeypatch, tmp_path):
    psi, phi = toeplitz_pair(32)
    factorizations = count_factorizations(monkeypatch)
    cli.cmd_rdual({"psi": psi.to_json(), "phi": phi.to_json()},
                  str(tmp_path / "rdual.json"), None, frames.TOL_FRAME, None)
    # eigh of S_phi for the companion, of S_psi for the frame bound and of
    # the companion Gram for the Riesz bound
    assert factorizations == Counter({"eigh": 3})


# --------------------------------------------------------------------------
# verdict mechanics
# --------------------------------------------------------------------------

def test_battery_directly_computed_verdicts_agree():
    for gen in (onb_pair, counterexample_family,
                lambda n: perturbed_onb_family(n, 0.3, seed=1)):
        rep = run_battery(gen, PROFILE, LADDER)
        direct = {rep.witness(i).verdict for i in (1, 8, 9, 10)}
        direct.discard("borderline")
        assert len(direct) <= 1


def test_battery_borderline_band():
    tiny = math.sqrt(5e-10)  # frame-operator eigenvalue lands at 5e-10

    def gen(n):
        d = np.ones(n)
        d[0] = tiny
        return VectorFamily(np.diag(d)), VectorFamily.onb(n)

    rep = run_battery(gen, PROFILE, LADDER)
    assert rep.witness(1).verdict == "borderline"
    assert rep.witness(8).verdict == "borderline"
    assert rep.witness(4).verdict == "pass"  # probe gain tiny but above band
    assert rep.consistent  # borderline entries are excluded


def test_battery_monotone_first_witness_for_nested_generator():
    rep = run_battery(counterexample_family, PROFILE, LADDER)
    vals = [v for _, v in rep.witness(1).quantities]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_battery_precondition_riesz():
    def gen(n):
        d = np.ones(n)
        d[-1] = 0.0
        return VectorFamily.onb(n), VectorFamily(np.diag(d))

    with pytest.raises(PreconditionEvidenceError):
        run_battery(gen, PROFILE, LADDER)


def test_battery_precondition_localization():
    def gen(n):
        e = np.full((n, n), 0.3 / n)
        return VectorFamily.onb(n), VectorFamily(np.eye(n) + e)

    with pytest.raises(PreconditionEvidenceError):
        run_battery(gen, PROFILE, LADDER)


def test_battery_json_structure():
    rep = run_battery(counterexample_family, PROFILE, LADDER, seed=3)
    js = rep.to_json()
    assert js["seed"] == 3
    assert js["ladder"] == [8, 16, 32, 64]
    assert len(js["conditions"]) == 10
    assert {c["verdict"] for c in js["conditions"]} == {"fail"}
    assert js["consistent"] is True
    assert "closed-range" in js["coorbit_note"]
    ids = [c["id"] for c in js["conditions"]]
    assert ids == list(range(1, 11))


def test_battery_json_singular_flag_serialization():
    # a reference with an exactly singular companion Gram at one size
    def gen(n):
        c = np.eye(n, dtype=complex)
        c[:, -1] = 0.0
        return VectorFamily(c), VectorFamily.onb(n)

    rep = run_battery(gen, PROFILE, TruncationLadder((4, 8)))
    js = rep.to_json()
    cond8 = js["conditions"][7]
    assert cond8["quantities"][0][1] == "singular"
    assert cond8["verdict"] == "fail"


# --------------------------------------------------------------------------
# duality symmetry of the witness pairs
# --------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_adjoint_transposition_symmetry(seed):
    psi, phi = perturbed_onb_family(12, 0.4, seed=seed)
    dual = frames.canonical_dual(phi)
    coord = dual.coeffs.conj().T @ frames.frame_operator(psi) @ phi.coeffs
    c1 = linalg.condition_p(coord, 1)
    c_adj = linalg.condition_p(coord.conj().T, math.inf)
    assert abs(c1 - c_adj) <= 1e-10 * c1
    from framebench.rdual import rdual_gram
    g = rdual_gram(psi, phi)
    c8 = linalg.condition_p(g, 1)
    c9 = linalg.condition_p(g.conj().T, math.inf)
    assert abs(c8 - c9) <= 1e-10 * c8


# --------------------------------------------------------------------------
# coordinate-norm equivalence brackets
# --------------------------------------------------------------------------

def test_coorbit_check_identical_families():
    e = VectorFamily.onb(6)
    br = coorbit_equivalence_check(e, e, 2, sample_count=20)
    assert np.isclose(br.lower, 1.0) and np.isclose(br.upper, 1.0)


def test_coorbit_check_scaling():
    e = VectorFamily.onb(6)
    br = coorbit_equivalence_check(e.scaled(2.0), e, 1, sample_count=20)
    assert np.isclose(br.lower, 0.5, rtol=1e-10)
    assert np.isclose(br.upper, 0.5, rtol=1e-10)


@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_coorbit_check_bracket_inside_eigen_bounds(p):
    psi, phi = perturbed_onb_family(8, 0.3, seed=9)
    br = coorbit_equivalence_check(psi, phi, p, sample_count=60, seed=4)
    assert 0.0 < br.lower <= br.upper < math.inf
    if p == 2:
        si = np.linalg.inv(frames.frame_operator(psi))
        pi = np.linalg.inv(frames.frame_operator(phi))
        gev = sla.eigh(si, pi, eigvals_only=True)
        assert br.lower**2 >= gev[0] - 1e-10
        assert br.upper**2 <= gev[-1] + 1e-10


def test_coorbit_check_requires_frames():
    bad = VectorFamily(np.diag([1.0, 0.0]))
    with pytest.raises(NotAFrameError):
        coorbit_equivalence_check(bad, VectorFamily.onb(2), 2)


def test_coorbit_check_deterministic_given_seed():
    psi, phi = perturbed_onb_family(6, 0.3, seed=2)
    a = coorbit_equivalence_check(psi, phi, 2, sample_count=30, seed=11)
    b = coorbit_equivalence_check(psi, phi, 2, sample_count=30, seed=11)
    assert a == b


# --------------------------------------------------------------------------
# fixture helpers
# --------------------------------------------------------------------------

def test_counterexample_expected_table():
    exp = equivalence.counterexample_expected(4)
    assert exp["frame_lower"] == 1 / 16
    assert exp["companion_gram_diagonal"] == [1.0, 0.25, 1 / 9, 1 / 16]
    assert exp["condition_2norm"] == 16.0


def test_counterexample_over_nontrivial_reference():
    rng = np.random.default_rng(3)
    e = rng.standard_normal((6, 6))
    e *= 0.3 / linalg.pnorm_operator(e, 2)
    ref = VectorFamily(np.eye(6) + e)
    psi, phi = counterexample_family(6, reference=ref)
    # members are the dual members shrunk harmonically
    dual = frames.canonical_dual(ref)
    for k in range(6):
        assert np.allclose(psi.member(k), dual.member(k) / (k + 1), atol=1e-12)
