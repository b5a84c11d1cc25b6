import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflift import coeffring as cr
from hopflift.errors import DescriptorMismatch, NotAUnit, NotDivisible, NotPrime, ReducibleModulus, SingularModP


F5 = cr.make_ring(5)
Z25 = cr.make_ring(5, 2)
F4 = cr.make_ring(2, 1, 2, modulus=[1, 1, 1])
F9 = cr.make_ring(3, 1, 2)
GR25_2 = cr.make_ring(5, 2, 2)


def test_make_ring_basic():
    assert F5.q == 5 and F5.is_field
    assert Z25.q == 25 and not Z25.is_field
    assert F4.modulus == (1, 1, 1)


def test_make_ring_rejects_composites_and_reducibles():
    with pytest.raises(NotPrime):
        cr.make_ring(6)
    with pytest.raises(ReducibleModulus):
        cr.make_ring(2, 1, 2, modulus=[1, 0, 1])  # x^2+1 = (x+1)^2 mod 2


def test_default_modulus_is_lex_smallest():
    # the unique irreducible quadratic mod 2
    assert cr.make_ring(2, 1, 2).modulus == (1, 1, 1)
    # first irreducible quadratic mod 3 in lex order: x^2 + 1
    assert cr.make_ring(3, 1, 2).modulus == (1, 0, 1)


def test_default_modulus_for_a_large_prime():
    # p = 2^31 - 1 = 3 mod 4, so x^2 + 1 is irreducible; the search never
    # materialises range(p)
    assert cr.make_ring(2147483647, 1, 2).modulus == (1, 0, 1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_poly_mul_and_divmod_over_z_and_f_p(data):
    """Over Z against sympy; over F_p against the Z result reduced mod p,
    and for a non-monic divisor a = quot * f + rem with deg rem < deg f."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    ints = st.integers(-(2**40), 2**40)
    a = data.draw(st.lists(ints, max_size=9), label="a")
    b = data.draw(st.lists(ints, max_size=6), label="b")
    f = data.draw(st.lists(ints, max_size=5), label="f") + [1]
    p = data.draw(st.sampled_from([2, 3, 7, 2**31 - 1, 2**61 - 1]), label="p")

    def poly(c):
        return sympy.Poly(list(reversed(c)) or [0], x, domain="ZZ")

    def coeffs(P):
        return cr._poly_trim([int(c) for c in reversed(P.all_coeffs())])

    def mod_p(c):
        return cr._poly_trim([v % p for v in c])

    prod = cr._poly_mul(a, b)
    assert prod == coeffs(poly(a) * poly(b))
    quot, rem = cr._poly_divmod(a, f)
    want_q, want_r = sympy.div(poly(a), poly(f))
    assert (quot, rem) == (coeffs(want_q), coeffs(want_r))

    assert cr._poly_mul(a, b, p) == mod_p(prod)
    assert cr._poly_divmod(a, f, p) == (mod_p(quot), mod_p(rem))
    g = f[:-1] + [data.draw(st.integers(1, p - 1), label="lead")]
    quot, rem = cr._poly_divmod(a, g, p)
    assert len(rem) < len(g) and all(0 <= c < p for c in quot + rem)
    back = cr._poly_mul(quot, g, p)
    back = back + [0] * (len(a) - len(back))
    assert mod_p([s + (rem[i] if i < len(rem) else 0) for i, s in enumerate(back)]) == mod_p(a)


def test_arith_examples():
    assert cr.arith("mul", Z25.element(7), Z25.element(18)) == Z25.element(1)
    assert cr.arith("add", F5.element(3), F5.element(4)) == F5.element(2)
    x = F4.element([0, 1])
    assert cr.arith("mul", x, x) == F4.element([1, 1])  # x^2 = x+1


def test_arith_descriptor_mismatch():
    with pytest.raises(DescriptorMismatch):
        cr.arith("add", F5.element(1), Z25.element(1))


def test_invert_examples():
    assert cr.invert(Z25.element(7)) == Z25.element(18)
    assert cr.invert(Z25.element(2)) == Z25.element(13)
    with pytest.raises(NotAUnit):
        cr.invert(Z25.element(5))


@given(st.integers(0, 24))
def test_invert_all_units_z25(a):
    e = Z25.element(a)
    if a % 5:
        assert e * cr.invert(e) == Z25.one
    else:
        with pytest.raises(NotAUnit):
            cr.invert(e)


def test_invert_exhaustive_f4_gr():
    # F_{p^m}, m > 1, inverts by a^(p^m - 2); GR(p^n, m) Newton-refines that
    for desc in (F4, F9, GR25_2, cr.make_ring(2, 1, 3), cr.make_ring(2, 1, 4), cr.make_ring(5, 1, 2), cr.make_ring(3, 1, 3)):
        count = 0
        for coeffs in itertools.product(range(desc.q), repeat=desc.m):
            e = desc.element(list(coeffs))
            if any(c % desc.p for c in e.coeffs):  # a unit: nonzero mod p
                assert e * cr.invert(e) == desc.one
                count += 1
        # the units of GR(p^n, m) are the vectors that are nonzero mod p
        assert count == desc.p ** (desc.m * desc.n) - desc.p ** (desc.m * (desc.n - 1))


def test_digit_lift_examples():
    a = F5.element(3)
    assert cr.digit_lift(a, Z25) == Z25.element(3)
    z125 = cr.make_ring(5, 3)
    assert cr.digit_lift(Z25.element(24), z125) == z125.element(24)
    assert cr.digit_lift(F5.zero, Z25) == Z25.zero
    assert F5.element([c % F5.q for c in cr.digit_lift(a, Z25).coeffs]) == a


def test_exact_div_p_examples():
    z125 = cr.make_ring(5, 3)
    assert cr.exact_div_p(z125.element(50), 1) == Z25.element(10)
    assert cr.exact_div_p(z125.element(0), 1) == Z25.zero
    with pytest.raises(NotDivisible):
        cr.exact_div_p(Z25.element(7), 1)


def test_exact_div_roundtrip():
    z125 = cr.make_ring(5, 3)
    for a in range(25):
        lifted = z125.element(a * 5)
        back = cr.exact_div_p(lifted, 1)
        assert cr.digit_lift(back, z125) * z125.element(5) == lifted


def test_solve_field_examples():
    sol = cr.solve_field(F5, [[2]], [3])
    assert sol.particular == [F5.element(4)]
    assert sol.kernel_basis == [] and sol.rank == 1

    sol = cr.solve_field(F5, [[1, 1]], [0])
    assert sol.particular == [F5.zero, F5.zero]
    assert sol.kernel_basis == [[F5.element(4), F5.element(1)]]

    sol = cr.solve_field(F5, [[0]], [1])
    assert sol.particular is None


def test_hensel_solve_examples():
    assert cr.hensel_solve(Z25, [[7]], [3]) == [Z25.element(4)]
    v = [Z25.element(17), Z25.element(3)]
    eye = [[1, 0], [0, 1]]
    assert cr.hensel_solve(Z25, eye, v) == v
    with pytest.raises(SingularModP):
        cr.hensel_solve(Z25, [[5]], [5])
    # a tall system of full column rank is refused too: M must be square
    with pytest.raises(SingularModP, match="not square"):
        cr.hensel_solve(Z25, [[1], [2]], [3, 6])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_field_random_properties(data):
    desc = data.draw(st.sampled_from([F5, cr.make_ring(7), F4]))
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    flat = data.draw(st.lists(st.integers(0, desc.q - 1), min_size=rows * cols * desc.m, max_size=rows * cols * desc.m))
    marr = np.array(flat, dtype=np.int64).reshape(rows, cols, desc.m)
    matrix = [[desc.element(list(marr[i, j])) for j in range(cols)] for i in range(rows)]
    xs = data.draw(st.lists(st.integers(0, desc.q - 1), min_size=cols * desc.m, max_size=cols * desc.m))
    xvec = [desc.element(list(np.array(xs).reshape(cols, desc.m)[j])) for j in range(cols)]
    rhs = []
    for i in range(rows):
        acc = desc.zero
        for j in range(cols):
            acc = acc + matrix[i][j] * xvec[j]
        rhs.append(acc)
    sol = cr.solve_field(desc, matrix, rhs)
    assert sol.particular is not None  # consistent by construction
    # particular satisfies the system exactly
    for i in range(rows):
        acc = desc.zero
        for j in range(cols):
            acc = acc + matrix[i][j] * sol.particular[j]
        assert acc == rhs[i]
    # kernel vectors are in the kernel; rank + kernel size = column count
    assert sol.rank + len(sol.kernel_basis) == cols
    for vec in sol.kernel_basis:
        for i in range(rows):
            acc = desc.zero
            for j in range(cols):
                acc = acc + matrix[i][j] * vec[j]
            assert acc == desc.zero


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hensel_matches_construction(data):
    desc = data.draw(st.sampled_from([Z25, cr.make_ring(3, 4), GR25_2]))
    n = data.draw(st.integers(1, 4))
    # invertible-mod-p matrix: identity + p * junk + random unit diagonal
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    while True:
        marr = rng.integers(0, desc.q, size=(n, n, desc.m))
        marr = np.asarray(marr, dtype=np.int64)
        red = marr[..., :] % desc.p
        from hopflift._linalg import FieldSolver

        if FieldSolver(desc.residue(), red).rank == n:
            break
    xs = np.asarray(rng.integers(0, desc.q, size=(n, desc.m)), dtype=np.int64)
    from hopflift import _arrays as ra

    rhs = ra.tensordot(desc, marr, xs, ([1], [0]))
    got = cr.hensel_solve_array(desc, marr, rhs)
    assert np.array_equal(got, xs % desc.q)


def test_field_solver_blocked_matches_reference():
    # reference RREF over F_7 in exact rational-free arithmetic
    p = 7
    desc = cr.make_ring(p)
    rng = np.random.default_rng(0)
    for trial in range(12):
        rows = int(rng.integers(1, 100))
        cols = int(rng.integers(1, 70))
        M = np.asarray(rng.integers(0, p, size=(rows, cols)), dtype=np.int64)
        # plain reference elimination
        ref = M.copy()
        used = np.zeros(rows, dtype=bool)
        piv_cols = []
        piv_rows = []
        for c in range(cols):
            cand = [i for i in range(rows) if not used[i] and ref[i, c] % p]
            if not cand:
                continue
            r = cand[0]
            inv = pow(int(ref[r, c]), p - 2, p)
            ref[r] = ref[r] * inv % p
            for i in range(rows):
                if i != r and ref[i, c]:
                    ref[i] = (ref[i] - ref[i, c] * ref[r]) % p
            used[r] = True
            piv_cols.append(c)
            piv_rows.append(r)
        from hopflift._linalg import FieldSolver

        solver = FieldSolver(desc, M[..., None])
        assert solver.rank == len(piv_cols)
        assert list(solver.pivot_cols) == piv_cols
        assert list(solver.pivot_rows) == piv_rows
        # compare canonical solutions on a consistent rhs
        x0 = np.asarray(rng.integers(0, p, size=(cols,)), dtype=np.int64)
        rhs = M @ x0 % p
        got = solver.solve(rhs[:, None])
        assert got is not None
        assert np.array_equal(M @ got[:, 0] % p, rhs)
        # canonical: free variables zero
        free = sorted(set(range(cols)) - set(piv_cols))
        assert not np.any(got[free, 0])


def test_oversized_modulus_refused():
    from hopflift.errors import UnsupportedModulus

    assert cr.make_ring(2, 62).q == 1 << 62
    assert cr.make_ring(3, 39).q == 3**39
    for p, n in ((2, 63), (3, 40), (2**31 - 1, 3)):
        with pytest.raises(UnsupportedModulus):
            cr.make_ring(p, n)
    with pytest.raises(UnsupportedModulus):
        cr.make_ring(3).at_precision(40)
    with pytest.raises(UnsupportedModulus):
        cr.make_ring(2, 1, 2).at_precision(63)


def test_at_precision_raises_and_lowers():
    gr = cr.make_ring(3, 3, 2, modulus=[2 + 9, 2 + 3, 1])
    # lowering reduces the modulus, raising keeps its representatives
    assert gr.at_precision(1).modulus == (2, 2, 1)
    assert gr.at_precision(2).modulus == (2, 5, 1)
    assert gr.at_precision(5) == cr.RingDescriptor(3, 5, 2, (11, 5, 1))
    assert F9.at_precision(4) == cr.RingDescriptor(3, 4, 2, F9.modulus)
    assert F5.at_precision(1) is F5 and F5.at_precision(3) == Z25.at_precision(3)
    with pytest.raises(ValueError):
        F5.at_precision(0)


# --- exactness near the modulus bound q <= 2^62, against Python ints ---

NEAR_BOUND = [
    cr.make_ring(2, 62),
    cr.make_ring(3, 39),
    cr.make_ring(7, 22),
    cr.make_ring(2**31 - 1, 2),
    cr.make_ring(2, 31, 2),
]


def int_mul(desc, a, b):
    """a * b in GR(p^n, m) on coefficient lists, in Python ints: the product
    polynomial, then x^t -> -x^{t-m} (modulus - x^m) from the top degree down."""
    prod = [0] * (2 * desc.m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for t in range(2 * desc.m - 2, desc.m - 1, -1):
        c, prod[t] = prod[t], 0
        for i in range(desc.m):
            prod[t - desc.m + i] -= c * desc.modulus[i]
    return [c % desc.q for c in prod[: desc.m]]


def int_matmul(desc, a, b):
    """a @ b for matrices given as rows of elements, in Python ints."""
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            acc = [0] * desc.m
            for x, brow in zip(row, b):
                acc = [s + t for s, t in zip(acc, int_mul(desc, x, brow[j]))]
            out[-1].append([c % desc.q for c in acc])
    return out


def ring_elements(desc):
    # values at both ends of [0, q) as well as anywhere in between
    coeff = st.one_of(st.integers(0, desc.q - 1), st.integers(desc.q - 2**16, desc.q - 1), st.integers(0, 2**16))
    return st.lists(coeff, min_size=desc.m, max_size=desc.m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_invert_near_the_modulus_bound(data):
    desc = data.draw(st.sampled_from(NEAR_BOUND), label="ring")
    a = data.draw(ring_elements(desc))
    if data.draw(st.booleans(), label="non-unit"):
        a = [desc.p * c % desc.q for c in a]
        with pytest.raises(NotAUnit):
            cr.invert(desc.element(a))
    elif any(c % desc.p for c in a):
        inv = cr.invert(desc.element(a))
        assert int_mul(desc, a, list(inv.coeffs)) == [1] + [0] * (desc.m - 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_div_p_near_the_modulus_bound(data):
    desc = data.draw(st.sampled_from(NEAR_BOUND), label="ring")
    k = data.draw(st.integers(1, desc.n - 1), label="k")
    ys = data.draw(st.lists(ring_elements(desc), min_size=1, max_size=6))
    pk = desc.p**k
    arr = [[pk * c % desc.q for c in y] for y in ys]
    target = desc.at_precision(desc.n - k)
    for a, y in zip(arr, ys):
        assert cr.exact_div_p(desc.element(a), k) == target.element([c % target.q for c in y])
    arr[-1][0] = (arr[-1][0] + 1) % desc.q
    with pytest.raises(NotDivisible):
        cr.exact_div_p(desc.element(arr[-1]), k)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hensel_solve_array_near_the_modulus_bound(data):
    desc = data.draw(st.sampled_from(NEAR_BOUND), label="ring")
    n = data.draw(st.integers(1, 4), label="n")
    width = data.draw(st.sampled_from([None, 2]), label="width")

    def entry():
        return data.draw(ring_elements(desc))

    # M = P L U with L unit lower and U upper triangular, units on U's
    # diagonal: invertible mod p
    one, zero = [1] + [0] * (desc.m - 1), [0] * desc.m
    lower = [[one if i == j else entry() if i > j else zero for j in range(n)] for i in range(n)]
    upper = [[entry() if j >= i else zero for j in range(n)] for i in range(n)]
    for i in range(n):
        upper[i][i][0] += 1 - upper[i][i][0] % desc.p
    perm = data.draw(st.permutations(range(n)), label="P")
    lu = int_matmul(desc, lower, upper)
    mat = [lu[i] for i in perm]
    x = [[entry() for _ in range(width or 1)] for _ in range(n)]
    rhs = int_matmul(desc, mat, x)
    shape = (n, desc.m) if width is None else (n, width, desc.m)
    got = cr.hensel_solve_array(desc, np.array(mat, dtype=np.int64), np.array(rhs, dtype=np.int64).reshape(shape))
    assert got.dtype == np.int64 and got.shape == shape
    assert got.reshape(n, -1, desc.m).tolist() == x
