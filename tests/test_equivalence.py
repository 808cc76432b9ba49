"""Battery tests: the three canonical generators, verdict rules, duality
symmetry and borderline handling."""

from collections import Counter
import json
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from framebench import cli, equivalence, frames, linalg, rdual
from framebench.equivalence import (
    counterexample_family,
    perturbed_onb_family,
    run_battery,
)
from framebench.errors import (
    DimensionMismatchError,
    NotRieszBasisError,
    NumericalFailureError,
    PreconditionEvidenceError,
)
from framebench.frames import TruncationLadder, VectorFamily
from framebench.ladder import Witness
from framebench.localization import LocalizationProfile
from oracles import canonical_dual, condition_p, hermitian_power

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
    # directly computed witnesses carry the closed-form ladder values;
    # witnesses[i - 1] is witness i
    for _n, v in rep.witnesses[0].quantities:
        assert np.isclose(v, 1.0 / _n**2, rtol=1e-10)
    for _n, v in rep.witnesses[7].quantities:
        assert np.isclose(v, float(_n**2), rtol=1e-9)
    for _n, v in rep.witnesses[9].quantities:
        assert np.isclose(v, 1.0 / _n**2, rtol=1e-10)
    # injectivity holds pointwise even though the uniform proxy fails
    assert "pointwise injectivity holds" in rep.witnesses[3].proxy_note
    assert "pointwise injectivity holds" in rep.witnesses[5].proxy_note
    for _n, v in rep.witnesses[3].quantities:
        assert np.isclose(v, 1.0 / _n, rtol=1e-12)


def test_battery_perturbed_onb_neumann_bound():
    eps = 0.3
    rep = run_battery(lambda n: perturbed_onb_family(n, epsilon=eps, seed=5),
                      PROFILE, LADDER)
    assert rep.consistent
    assert all(w.verdict == "pass" for w in rep.witnesses)
    for _n, v in rep.witnesses[0].quantities:
        assert v >= (1 - eps) ** 2 - 1e-12


# --------------------------------------------------------------------------
# non-orthogonal reference: the shared factorizations against the plain path
# --------------------------------------------------------------------------

def toeplitz_pair(n, theta=0.7, seed=4, epsilon=0.3):
    """psi = (I + E) T over the Hermitian tridiagonal Toeplitz reference
    T = I + 0.2 (e^{i theta} L + e^{-i theta} L^H), L the lower shift."""
    off = np.full(n - 1, 0.2 * np.exp(1j * theta))
    t = np.eye(n, dtype=complex) + np.diag(off, -1) + np.diag(off.conj(), 1)
    psi, _ = perturbed_onb_family(n, epsilon, seed=seed)
    return VectorFamily(psi.coeffs @ t), VectorFamily(t)


def plain_witnesses(psi, phi):
    """The ten witnesses at one size, each from its own per-function call."""
    omega = rdual.rdual(psi, phi)
    dual = canonical_dual(phi)
    coord = dual.coeffs.conj().T @ frames.frame_operator(psi) @ phi.coeffs
    g_omega = frames.gram(omega)
    gain4 = linalg.gain_probe(frames.cross_gram(psi, phi))
    gain6 = linalg.gain_probe(frames.cross_gram(dual, omega))
    return [frames.riesz_bounds(psi).lower,  # psi is square: same spectrum as S_psi
            condition_p(coord, 1), condition_p(coord, math.inf),
            gain4, gain4, gain6, gain6,
            condition_p(g_omega, 1), condition_p(g_omega, math.inf),
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
    assert rep.witnesses[1].quantities != rep.witnesses[7].quantities


@given(st.floats(0.0, 2 * math.pi, exclude_max=True),
       st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
       st.integers(0, 2**31 - 1), st.integers(4, 48))
@settings(max_examples=30, deadline=None)
def test_battery_closed_forms_match_plain_path(theta, epsilon, seed, n):
    ladder = TruncationLadder((n, 2 * n))
    pairs = {size: toeplitz_pair(size, theta, seed, epsilon) for size in ladder}
    rep = run_battery(pairs.__getitem__, PROFILE, ladder)
    plain = np.array([plain_witnesses(*pairs[size]) for size in ladder]).T
    for w, expected in zip(rep.witnesses, plain):
        got = [v for _, v in w.quantities]
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0), w.id
        assert w.verdict == Witness.from_ladder(
            w.id, "", "", ladder.sizes, expected, w.kind, frames.TOL_FRAME).verdict


def relative_error(got, expected):
    return np.linalg.norm(got - expected) / np.linalg.norm(expected)


@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("fixture", ["toeplitz", "counterexample"])
def test_battery_closed_form_identities(fixture, n):
    psi, phi = toeplitz_pair(n)
    ref_inv = canonical_dual(phi).coeffs.conj().T
    if fixture == "counterexample":  # psi_k = (1/k) (dual reference)_k
        psi = VectorFamily(ref_inv.conj().T / np.arange(1, n + 1))
    assert relative_error(ref_inv @ phi.coeffs, np.eye(n)) <= 1e-12
    s_psi = frames.frame_operator(psi)
    lam, u = np.linalg.eigh(s_psi)
    left, right = ref_inv @ u, u.conj().T @ phi.coeffs
    # the companion Gram without the companion
    b = frames.cross_gram(psi, phi)
    g_omega = (b.conj().T @ b).conj()
    assert relative_error(g_omega, frames.gram(rdual.rdual(psi, phi))) <= 1e-12
    # both inverses from the spectrum of S_psi
    coord = ref_inv @ s_psi @ phi.coeffs
    assert relative_error((left * lam) @ right, coord) <= 1e-12
    assert relative_error((left / lam) @ right, np.linalg.inv(coord)) <= 1e-12
    assert relative_error(((left / lam) @ left.conj().T).conj(),
                          np.linalg.inv(g_omega)) <= 1e-12


def test_battery_member_count_mismatch_raises():
    def gen(n):
        psi, phi = toeplitz_pair(n)
        extra = np.ones((n, 1), dtype=complex)
        return VectorFamily(np.hstack([psi.coeffs, extra])), phi

    with pytest.raises(DimensionMismatchError):
        run_battery(gen, PROFILE, LADDER)


def counted(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_factorizations(monkeypatch):
    """Counter of the dense factorizations made from here to the test's end."""
    counts = Counter()
    for name in ("eigh", "eigvalsh", "svd", "inv"):
        monkeypatch.setattr(np.linalg, name,
                            counted(counts, name, getattr(np.linalg, name)))
    for name in ("eigh", "svd", "svdvals", "inv", "solve"):
        monkeypatch.setattr(sla, name,
                            counted(counts, f"sla.{name}", getattr(sla, name)))
    return counts


def test_battery_factorization_budget(monkeypatch):
    ladder = TruncationLadder((8, 16, 32))
    factorizations = count_factorizations(monkeypatch)
    monkeypatch.setattr(frames, "gram", counted(factorizations, "frames.gram", frames.gram))
    run_battery(counted(factorizations, "family_gen", toeplitz_pair),
                PROFILE, ladder)
    # per size, the fixture's 2-norm rescale (eigenvalues of a Gram of E, no
    # SVD) and three Hermitian eigensolves: eigh of the reference Gram G_phi,
    # formed once (the reference check, its localization norm, the dual
    # phi^-1 and G_phi^-1/2), and of S_psi (witness 1, and Lambda^-1 for both
    # inverses); the eigenvalues of the companion Gram (witness 10 and the
    # singular flag of 8 and 9).  No SVD, no inverse, and no dense
    # scipy.linalg call.
    n = len(ladder.sizes)
    assert factorizations == Counter({"family_gen": n, "eigh": 2 * n,
                                      "eigvalsh": 2 * n, "frames.gram": n})


def test_rdual_command_factorization_budget(monkeypatch, tmp_path):
    psi, phi = toeplitz_pair(32)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"psi": psi.to_json(), "phi": phi.to_json()}))
    factorizations = count_factorizations(monkeypatch)
    assert cli.main(["rdual", "--config", str(cfg),
                     "--out", str(tmp_path / "rdual.json")]) == 0
    # eigh of G_phi for the companion; eigenvalues only of S_psi for the
    # frame bound and of the companion Gram for the Riesz bound
    assert factorizations == Counter({"eigh": 1, "eigvalsh": 2})


# --------------------------------------------------------------------------
# verdict mechanics
# --------------------------------------------------------------------------

def test_battery_directly_computed_verdicts_agree():
    for gen in (onb_pair, counterexample_family,
                lambda n: perturbed_onb_family(n, 0.3, seed=1)):
        rep = run_battery(gen, PROFILE, LADDER)
        direct = {rep.witnesses[i - 1].verdict for i in (1, 8, 9, 10)}
        direct.discard("borderline")
        assert len(direct) <= 1


def test_battery_borderline_band():
    tiny = math.sqrt(5e-10)  # frame-operator eigenvalue lands at 5e-10

    def gen(n):
        d = np.ones(n)
        d[0] = tiny
        return VectorFamily(np.diag(d)), VectorFamily.onb(n)

    rep = run_battery(gen, PROFILE, LADDER)
    assert rep.witnesses[0].verdict == "borderline"
    assert rep.witnesses[7].verdict == "borderline"
    assert rep.witnesses[3].verdict == "pass"  # probe gain tiny but above band
    assert rep.consistent  # borderline entries are excluded


def test_battery_monotone_first_witness_for_nested_generator():
    rep = run_battery(counterexample_family, PROFILE, LADDER)
    vals = [v for _, v in rep.witnesses[0].quantities]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_battery_precondition_riesz():
    def gen(n):
        d = np.ones(n)
        d[-1] = 0.0
        return VectorFamily.onb(n), VectorFamily(np.diag(d))

    with pytest.raises(PreconditionEvidenceError):
        run_battery(gen, PROFILE, LADDER)

    def non_square(n):
        return VectorFamily(np.eye(n, n - 1)), VectorFamily(np.eye(n, n - 1))

    with pytest.raises(PreconditionEvidenceError) as info:
        run_battery(non_square, PROFILE, LADDER)
    assert isinstance(info.value, NotRieszBasisError)


def test_battery_precondition_localization():
    def gen(n):
        e = np.full((n, n), 0.3 / n)
        return VectorFamily.onb(n), VectorFamily(np.eye(n) + e)

    with pytest.raises(PreconditionEvidenceError) as info:
        run_battery(gen, PROFILE, LADDER)
    norms = [PROFILE.norm(frames.gram(gen(n)[1])) for n in LADDER]
    assert str(info.value) == ("reference family failed its localization evidence check: "
                               f"ladder verdict 'growth-detected', norms {norms}")


def _scaled(n, *head):
    """diag(head..., 1, ..., 1) of size n."""
    d = np.ones(n)
    d[:len(head)] = head
    return np.diag(d)


def _rotated(n):
    """The identity of size n with its leading 2 x 2 block turned by pi / 4."""
    r = np.eye(n)
    r[:2, :2] = np.sqrt(0.5) * np.array([[1.0, -1.0], [1.0, 1.0]])
    return r


def _hadamard_root(n):
    """(c (1.5 sqrt(n) I + H_n))^1/2, H_n the Sylvester Hadamard matrix, with
    c putting its frame operator's largest eigenvalue, 2.5 c sqrt(n), at
    0.9e308; the first row sum of |S_psi| is c (n + 1.5 sqrt(n))."""
    root = hermitian_power(1.5 * math.sqrt(n) * np.eye(n) + sla.hadamard(n), 0.5)
    return math.sqrt(0.9e308 / (2.5 * math.sqrt(n))) * root


@pytest.mark.parametrize("psi, phi, tol, sizes, what", [
    # below every float tol the reference passes, and 1 / w leaves the
    # float range
    (lambda n: np.eye(n), lambda n: _scaled(n, 1.0, 1e-161), 1e-323, (4, 8),
     "reference inverse entries"),
    # phi^-1 S_psi phi: the rank-one S_psi = 1e304 n ones meets the 1e6 of
    # phi^-1 along e_1
    (lambda n: 1e152 * np.ones((n, n)), lambda n: _scaled(n, 1e150, 1e-6), 1e-14, (4, 8),
     "coordinate matrix entries"),
    # phi^-1 S_psi^-1 phi: S_psi^-1 is about 1e300 and turned, and phi has
    # condition number 1e9
    (lambda n: 1e-150 * _scaled(n, 1.0, 2.0), lambda n: _rotated(n) @ _scaled(n, 1e-5, 1e4),
     1e-14, (4, 8), "coordinate inverse entries"),
    # B^H B = phi^H S_psi phi = 1e400 I
    (lambda n: 1e100 * np.eye(n), lambda n: 1e100 * np.eye(n), 1e-14, (4, 8),
     "companion Gram entries"),
    # (B^H B)^-1 = 1e320 I: its eigenvalues 1e-320 are subnormal but equal,
    # so no singular flag stops the inverse
    (lambda n: 1e-60 * np.eye(n), lambda n: 1e-100 * np.eye(n), 1e-300, (4, 8),
     "companion Gram inverse entries"),
    # every entry of the coordinate matrix S_psi is finite, but its first
    # row sum is 2.6e308 at n = 32, where witness 2 takes ||S_psi||_1
    (_hadamard_root, np.eye, 1e-14, (32, 64), "absolute row sums"),
], ids=["reference-inverse", "coordinate-matrix", "coordinate-inverse", "companion-gram",
        "companion-gram-inverse", "coordinate-row-sums"])
def test_battery_overflow_is_a_numerical_failure(psi, phi, tol, sizes, what):
    # finite families whose step product leaves the float range: a
    # NumericalFailureError (exit 3) that names it, with no overflow warning
    with pytest.raises(NumericalFailureError, match=f"^{what} overflow the float range$"):
        run_battery(lambda n: (VectorFamily(psi(n)), VectorFamily(phi(n))), PROFILE,
                    TruncationLadder(sizes), tol=tol)


def test_battery_json_structure():
    rep = run_battery(counterexample_family, PROFILE, LADDER)
    js = rep.to_json()
    assert js["ladder"] == [8, 16, 32, 64]
    assert len(js["conditions"]) == 10
    assert {c["verdict"] for c in js["conditions"]} == {"fail"}
    assert js["consistent"] is True
    assert "closed-range" in js["coorbit_note"]
    ids = [c["id"] for c in js["conditions"]]
    assert ids == list(range(1, 11))


def test_battery_witness_table_pinned():
    # every field of every witness but its quantities, for the counterexample
    rep = run_battery(counterexample_family, PROFILE, LADDER)
    got = [(c["id"], w.kind, c["verdict"], c["quote"], c["proxy_note"])
           for w, c in zip(rep.witnesses, rep.to_json()["conditions"])]
    assert got == [
        (1, "gain", "fail", "test family attains a positive lower frame bound",
         "smallest eigenvalue of the frame operator"),
        (2, "condition", "fail",
         "frame operator of the test family is well-conditioned on 1-norm coordinates",
         "1-norm condition number of the frame operator conjugated into dual "
         "coordinates"),
        (3, "condition", "fail",
         "frame operator of the test family is well-conditioned on max-norm "
         "coordinates",
         "max-norm condition number of the same coordinate matrix"),
        (4, "gain", "fail",
         "analysis coordinate map of the test family keeps a uniform max-norm gain",
         "pointwise injectivity holds at every size; coordinate-probe upper bound "
         "on the smallest max-norm gain of the analysis coordinate matrix; "
         "uniformity across the ladder is the closed-range proxy"),
        (5, "gain", "fail",
         "synthesis map of the test family stays uniformly onto in the 1-norm",
         "duality-derived from condition 4: the adjoint of the 1-norm synthesis "
         "map is the max-norm analysis map, so the same quantities witness "
         "surjectivity"),
        (6, "gain", "fail",
         "synthesis coordinate map of the dual companion keeps a uniform max-norm "
         "gain",
         "pointwise injectivity holds at every size; coordinate-probe upper bound "
         "on the smallest max-norm gain of the companion synthesis coordinate "
         "matrix; uniformity across the ladder is the closed-range proxy"),
        (7, "gain", "fail",
         "analysis map of the dual companion stays uniformly onto in the 1-norm",
         "duality-derived from condition 6: the adjoint of the companion 1-norm "
         "analysis map is its max-norm synthesis map"),
        (8, "condition", "fail",
         "Gram matrix of the dual companion stays invertible in the 1-norm",
         "1-norm condition number of the companion Gram (singular flag when "
         "sigma_min is below threshold)"),
        (9, "condition", "fail",
         "Gram matrix of the dual companion stays invertible in the max-norm",
         "max-norm condition number of the companion Gram"),
        (10, "gain", "fail", "dual companion attains a positive lower Riesz bound",
         "smallest eigenvalue of the companion Gram"),
    ]
    assert rep.witnesses[4].quantities == rep.witnesses[3].quantities
    assert rep.witnesses[6].quantities == rep.witnesses[5].quantities


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
    dual = canonical_dual(phi)
    coord = dual.coeffs.conj().T @ frames.frame_operator(psi) @ phi.coeffs
    c1 = condition_p(coord, 1)
    c_adj = condition_p(coord.conj().T, math.inf)
    assert abs(c1 - c_adj) <= 1e-10 * c1
    from framebench.rdual import rdual
    g = frames.gram(rdual(psi, phi))
    c8 = condition_p(g, 1)
    c9 = condition_p(g.conj().T, math.inf)
    assert abs(c8 - c9) <= 1e-10 * c8


# --------------------------------------------------------------------------
# fixture helpers
# --------------------------------------------------------------------------

def test_counterexample_expected_table():
    exp = equivalence.counterexample_expected(4)
    assert exp["frame_lower"] == 1 / 16
    assert exp["companion_gram_diagonal"] == [1.0, 0.25, 1 / 9, 1 / 16]
    assert exp["condition_2norm"] == 16.0
