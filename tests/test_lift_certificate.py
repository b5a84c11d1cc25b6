"""A lift has one exact certificate: verify_hopf of the final presentation
and its reduction mod p.  A stage whose output is wrong is caught there and
reported with the exception type of that stage.  A wrong (m, Delta) at an
inner level makes the next level's obstruction indivisible; that level's
presentation is then certified, to name its stage.  A wrong unit, counit or
antipode at an inner level is healed by the next Newton step."""

import pytest

from hopflift import cohomology as coh
from hopflift import hopfcore as hc
from hopflift import lifting as lf
from hopflift import tensorcalc as tc
from hopflift.coeffring import make_ring
from hopflift.errors import (
    CoboundaryUnsolvable,
    InternalAxiomFailure,
    NotACocycle,
    PostAxiomFailure,
    RightAntipodeFailure,
)

D4 = hc.generate("D4", make_ring(3))
PRECISION = 4


def _spy(monkeypatch, module, name, calls, record=lambda *args: args):
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(record(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def test_warm_lift_certifies_once(monkeypatch):
    lf.lift(D4, PRECISION, "perturbed:1")  # warm the context
    verified, obstructions, dtotals = [], [], []
    _spy(monkeypatch, hc, "verify_hopf", verified, lambda H: H.ring.n)
    _spy(monkeypatch, lf, "obstruction", obstructions, lambda mul, comul, base: mul.ring.n)
    _spy(monkeypatch, coh, "d_total", dtotals)
    state = lf.lift(D4, PRECISION, "perturbed:2")
    assert state.transcript[0]["correction_applied"]
    assert verified == [4]
    assert obstructions == [2, 3, 4]
    assert dtotals == []
    assert state.current.verified


def _lift_with(monkeypatch, module, name, wrap, strategy="perturbed:2"):
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    return lf.lift(D4, PRECISION, strategy)


def test_wrong_contraction_solution_raises_coboundary_unsolvable(monkeypatch):
    # 2x = -x over F3: d(2x) = -c != c, a wrong solution of a cocycle
    with pytest.raises(CoboundaryUnsolvable):
        _lift_with(monkeypatch, coh, "_contract_obstruction", lambda real: lambda z: real(z).scale(2))


def _unclosed(c, components):
    """the cochain c plus noise in the given components: no longer closed."""
    noise = coh.random_cochain(c.context, 2, 3)
    comps = dict(c.components)
    for key in components:
        comps[key] = comps[key] + noise.components[key]
    out = coh.TotalCochain(c.context, 2, comps)
    assert not coh.is_cocycle(out)
    return out


@pytest.mark.parametrize(
    "components",
    [[(2, 0)], [(0, 2)]],
    ids=["certificate-fails", "c02-only"],
)
def test_unclosed_obstruction_raises_not_a_cocycle(monkeypatch, components):
    # the contraction solves nothing that can fail, so the certificate catches
    # both: noise in c20 alone, which s meets first, and noise in c02 alone,
    # the column that t closes
    def wrap(real):
        return lambda mul, comul, base: _unclosed(real(mul, comul, base), components)

    with pytest.raises(NotACocycle):
        _lift_with(monkeypatch, lf, "obstruction", wrap)


def test_unit_off_by_p_k_raises_post_axiom_failure(monkeypatch):
    def wrap(real):
        def unit_square(desc, m_legs, u):
            # the step u <- 2u - m(u (x) u) is then wrong in the new digit only
            return (real(desc, m_legs, u) + desc.p ** (desc.n - 1)) % desc.q

        return unit_square

    with pytest.raises(PostAxiomFailure):
        _lift_with(monkeypatch, lf, "_unit_square", wrap)


def test_wrong_antipode_raises_right_antipode_failure(monkeypatch):
    def wrap(real):
        def solve_antipode(mul, comul, base=None, previous=None):
            s = real(mul, comul, base, previous)
            desc = s.ring
            return tc.MultiMap(desc, 1, 1, s.dim_in, s.dim_out, (s.coeffs + desc.p ** (desc.n - 1)) % desc.q)

        return solve_antipode

    with pytest.raises(RightAntipodeFailure):
        _lift_with(monkeypatch, lf, "solve_antipode", wrap)


def _at_call(number, fault):
    """A wrapper that applies fault to the output of the number-th call only."""

    def wrap(real):
        calls = []

        def wrapped(*args):
            calls.append(None)
            out = real(*args)
            return fault(out) if len(calls) == number else out

        return wrapped

    return wrap


def _moved(t):
    """t plus p^(n-1): wrong in the level's new digit only."""
    desc = t.ring
    return tc.MultiMap(desc, t.arity_in, t.arity_out, t.dim_in, t.dim_out, (t.coeffs + desc.p ** (desc.n - 1)) % desc.q)


@pytest.mark.parametrize(
    "module, name, fault, expected",
    [
        (lf, "obstruction", lambda report: _unclosed(report, [(2, 0)]), NotACocycle),
        (coh, "_contract_obstruction", lambda x: x.scale(2), CoboundaryUnsolvable),
    ],
    ids=["unclosed", "wrong-contraction"],
)
def test_inner_level_pair_fault_is_certified_at_its_level(monkeypatch, module, name, fault, expected):
    # level 2 of 3 corrects (m, Delta) wrongly; level 3's obstruction is not
    # divisible, and level 2's own certificate names the stage
    verified = []
    _spy(monkeypatch, hc, "verify_hopf", verified, lambda H: H.ring.n)
    with pytest.raises(expected):
        _lift_with(monkeypatch, module, name, _at_call(2, fault))
    assert verified == [3]


@pytest.mark.parametrize(
    "name, fault",
    [
        ("correct", lambda out: (*out[:2], _moved(out[2]), out[3])),
        ("correct", lambda out: (*out[:3], _moved(out[3]))),
        ("solve_antipode", _moved),
    ],
    ids=["unit", "counit", "antipode"],
)
def test_inner_level_unit_or_antipode_fault_is_healed(monkeypatch, name, fault):
    clean = lf.lift(D4, PRECISION, "perturbed:2").current
    state = _lift_with(monkeypatch, lf, name, _at_call(2, fault))
    assert state.current.verified and state.current == clean
    for got, want in zip(state.current.tensors(), clean.tensors()):
        assert got.coeffs.dtype == want.coeffs.dtype and got.coeffs.tobytes() == want.coeffs.tobytes()


def test_lift_that_does_not_reduce_to_its_base_raises(monkeypatch):
    # every level returns the tensors of a lift of C2/F5 with its basis
    # swapped: a Hopf algebra over Z/125 that passes verify_hopf, so only the
    # reduction mod p tells it from a lift of C2
    F5 = make_ring(5)
    C2 = hc.generate("C2", F5)
    other = lf.lift(hc.group_algebra(F5, [[1, 0], [0, 1]]), 3, "perturbed:5")
    def correct(mul, *_):
        H = other.at_precision(mul.ring.n)
        return H.mul, H.comul, H.unit, H.counit

    monkeypatch.setattr(lf, "correct", correct)
    monkeypatch.setattr(lf, "solve_antipode", lambda mul, *_: other.at_precision(mul.ring.n).antipode)
    with pytest.raises(InternalAxiomFailure):
        lf.lift(C2, 3)


def test_certificate_failure_maps_to_stage():
    """Over an exact bialgebra a left antipode is the two-sided one, so no
    stage output fails the right identity alone; the mapping is tested on the
    failing axiom names directly."""
    mul, comul = lf.initial_lift(D4, "perturbed:2")
    closed = lf.obstruction(mul, comul, D4)
    unclosed = _unclosed(closed, [(2, 0)])
    cases = [
        (["associativity"], closed, CoboundaryUnsolvable),
        (["coassociativity", "unit"], closed, CoboundaryUnsolvable),
        (["delta_multiplicative"], unclosed, NotACocycle),
        (["unit", "antipode_left", "antipode_right"], closed, PostAxiomFailure),
        (["counit_unit"], closed, PostAxiomFailure),
        (["antipode_right"], closed, RightAntipodeFailure),
        (["antipode_left", "antipode_right"], closed, RightAntipodeFailure),
        (["antipode_left"], closed, InternalAxiomFailure),
    ]
    for failing, report, expected in cases:
        assert type(lf._certificate_error(failing, report)) is expected, failing

