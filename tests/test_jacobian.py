import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nashblowup.algebras import nash_ideal_t
from nashblowup.fields import GF, QQ, CoefficientField
from nashblowup.ideals import Ideal, _open_axes_of
from nashblowup.jacobian import (
    _minor_dets,
    higher_jacobian_ideal,
    j2_plane_closed_form,
    jac_matrix,
    jacobian_ideal,
)
from nashblowup.polynomials import Polynomial, RingContext

from conftest import P, first_per_scalar_class, minor_ideal, packed_cells, perm_det, reference_jac_entries


def ideal(ring, *texts):
    return Ideal(ring, [P(t, ring) for t in texts])


def packed_minors(rows, k, ring, row_subsets):
    """The nonzero k x k minors on each row subset, columns in lex order, unpacked."""
    pk, scale, cells = packed_cells(rows, k, ring)
    out = []
    for rs in row_subsets:
        for det in _minor_dets(cells, pk.p, rs, range(len(rows[0]))):
            terms = {pk.monomial(key): c if pk.p else Fraction(c, scale) for key, c in det.items()}
            out.append(Polynomial(ring, terms))
    return out


def all_minors(rows, k, ring):
    """Every nonzero k x k minor of the entry lists: row subsets, then columns, in lex order."""
    return packed_minors(rows, k, ring, combinations(range(len(rows)), k))


class TestMatrixConstruction:
    def test_order_one_is_gradient(self, ring_q2):
        m = jac_matrix(P("x^3+y^2", ring_q2), 1)
        assert m.shape == (1, 2)
        assert [str(e) for e in m.entries[0]] == ["3*x^2", "2*y"]

    def test_order_two_structure(self, ring_q2):
        f = P("x^5-7*x*y", ring_q2)
        m = jac_matrix(f, 2)
        assert m.shape == (3, 5)
        assert m.rows == ((0, 0), (1, 0), (0, 1))
        assert m.cols == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        fx, fy = f.hasse_derivative((1, 0)), f.hasse_derivative((0, 1))
        zero = ring_q2.zero()
        # diagonal entries vanish; dominated columns repeat the gradient
        assert m.entries[1] == (zero, zero, fx, fy, zero)
        assert m.entries[2] == (zero, zero, zero, fx, fy)

    def test_shape_law(self):
        names = ("x", "y", "z", "w")
        for d in range(1, 5):
            ring = RingContext(names[:d], QQ)
            f = ring.variable(0) ** 2 + ring.variable(d - 1) ** 3
            for n in range(1, 5):
                m = jac_matrix(f, n)
                assert m.shape == (math.comb(d - 1 + n, d), math.comb(d + n, d) - 1)
                assert m.shape[0] <= m.shape[1]

    def test_rejects_zero_and_bad_order(self, ring_q2):
        with pytest.raises(ValueError):
            jac_matrix(ring_q2.zero(), 1)
        with pytest.raises(ValueError):
            jac_matrix(P("x", ring_q2), 0)

    def test_pretty_has_header_and_labels(self, ring_q2):
        text = jac_matrix(P("x*y", ring_q2), 2).pretty()
        assert text.splitlines()[0] == "3 x 5"
        assert "(0,1)" in text

    def test_entries_unpacked_on_first_read(self, ring_q2):
        f = P("1/2*x^3+3/7*y^4", ring_q2)
        m, other = jac_matrix(f, 2), jac_matrix(f, 2)
        higher_jacobian_ideal(f, 2)
        assert "entries" not in vars(m)
        # ==, hash() and repr() read (f, n, rows, cols, entries)
        assert m == other and hash(m) == hash(other)
        assert "entries" in vars(m) and "entries" in vars(other)
        assert m != jac_matrix(f, 1) and m != jac_matrix(P("x^3+y^4", ring_q2), 2)
        assert repr(m) == (f"JacobianMatrix(f={f!r}, n=2, rows={m.rows!r}, cols={m.cols!r}, "
                           f"entries={m.entries!r})")
        # each derivative is one polynomial, shared by its cells
        assert m.entries[0][0] is m.entries[1][2] is m.entries[2][3]


@st.composite
def germ_strategy(draw):
    """(f, n): f over Q with non-integer coefficients, or over F_2, F_3 or F_5
    with terms such as x^p whose first binomials vanish mod p; n <= 3, and
    n <= 2 in three variables."""
    field = draw(st.sampled_from((QQ, GF(2), GF(3), GF(5))))
    nvars = draw(st.integers(1, 3))
    ring = RingContext(("x", "y", "z")[:nvars], field)
    p = field.characteristic
    exponent = st.sampled_from((0, 1, 2, 3, p, p + 1, 2 * p)) if p else st.integers(0, 5)
    if p:
        coeff = st.integers(1, 6)
    else:
        coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from((1, 2, 3, 4, 7)))
    f = Polynomial(ring, draw(st.dictionaries(st.tuples(*[exponent] * nvars), coeff, min_size=1, max_size=4)))
    assume(not f.is_zero())
    return f, draw(st.integers(1, 3 if nvars < 3 else 2))


class TestDerivativeTable:
    """jac_matrix's integer derivative table against the cell-by-cell
    construction from Hasse derivatives and the packer of its entries."""

    @settings(max_examples=120, deadline=None)
    @given(germ_strategy())
    def test_matches_cell_by_cell_construction(self, germ):
        f, n = germ
        expected = reference_jac_entries(f, n)
        got = jac_matrix(f, n)
        assert got.entries == expected
        assert [[str(e) for e in row] for row in got.entries] == [[str(e) for e in row] for row in expected]
        reference = minor_ideal(expected, len(expected), f.ring)
        assert [str(g) for g in higher_jacobian_ideal(f, n).generators] == [str(g) for g in reference.generators]
        assert got._packing.width == packed_cells(expected, len(expected), f.ring)[0].width

    @pytest.mark.parametrize("field", [QQ, GF(5)])
    @pytest.mark.parametrize("text, n", [("x^44+y^3", 3), ("x^43+y^3", 3), ("x^5*y^7+y^80", 2)])
    def test_packing_is_the_one_the_minors_need(self, field, text, n):
        # k * top crosses a width boundary: 6 * 43 needs 10 bits, 6 * 42 only 9
        f = P(text, RingContext(("x", "y"), field))
        expected = reference_jac_entries(f, n)
        got = jac_matrix(f, n)
        assert got._packing.width == packed_cells(expected, len(expected), f.ring)[0].width
        assert got.entries == expected


class TestMinors:
    def test_two_by_two(self, ring_q2):
        rows = [[P("x", ring_q2), P("y", ring_q2)], [P("y", ring_q2), P("x", ring_q2)]]
        assert all_minors(rows, 2, ring_q2) == [P("x^2-y^2", ring_q2)]

    def test_node_column_minor_matches_hand_value(self, ring_q2):
        # submatrix on columns 3,4,5 of the order-2 matrix of x*y has
        # determinant -x*y (hand expansion along the first row)
        m = jac_matrix(P("x*y", ring_q2), 2)
        sub = [[m.entries[i][j] for j in (2, 3, 4)] for i in range(3)]
        assert perm_det(sub) == P("-x*y", ring_q2)
        assert P("-x*y", ring_q2) in all_minors(m.entries, 3, ring_q2)

    def test_size_one_returns_entries(self, ring_q2):
        rows = [[P("x", ring_q2), P("y", ring_q2)], [P("1+x", ring_q2), P("y^2", ring_q2)]]
        assert all_minors(rows, 1, ring_q2) == [P("x", ring_q2), P("y", ring_q2), P("1+x", ring_q2), P("y^2", ring_q2)]

    def test_agrees_with_permutation_determinant(self, ring_q3):
        rng = random.Random("minor-oracle")
        texts = ("x", "y", "z", "x+y", "x*z", "y^2", "1", "0", "x-2*z")
        rows = [[P(rng.choice(texts), ring_q3) for _ in range(4)] for _ in range(3)]
        got = all_minors(rows, 3, ring_q3)
        expected = []
        for cols in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            det = perm_det([[rows[i][j] for j in cols] for i in range(3)])
            if not det.is_zero():
                expected.append(det)
        assert got == expected


@st.composite
def matrix_strategy(draw):
    """(ring, entry rows) of random polynomial matrices: rational or F_p
    coefficients, constants, zero entries, exponents up to 200, and few
    monomials per matrix so that products collide and minors cancel, over Z
    or only mod p."""
    field = draw(st.sampled_from((QQ, GF(2), GF(3), GF(5))))
    nvars = draw(st.integers(1, 3))
    ring = RingContext(("x", "y", "z")[:nvars], field)
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(nrows, 5))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 200))
    pool = draw(st.lists(st.tuples(*[exponent] * nvars), min_size=1, max_size=3))
    if field.is_prime_field:
        coeff = st.integers(-6, 6)
    else:
        coeff = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 7)))

    def build(terms):
        return sum((ring.monomial(alpha, c) for alpha, c in terms), ring.zero())

    entry = st.one_of(
        st.just(ring.zero()),
        coeff.map(ring.constant),
        st.lists(st.tuples(st.sampled_from(pool), coeff), min_size=1, max_size=3).map(build),
    )
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return ring, draw(st.lists(row, min_size=nrows, max_size=nrows))


def oracle_minors(rows, k):
    """Every nonzero k x k minor by the permutation sum: row subsets, then columns, in lex order."""
    out = []
    for rs in combinations(range(len(rows)), k):
        for cs in combinations(range(len(rows[0])), k):
            det = perm_det([[rows[i][j] for j in cs] for i in rs])
            if not det.is_zero():
                out.append(det)
    return out


class TestPackedKernel:
    @settings(max_examples=150, deadline=None)
    @given(matrix_strategy())
    def test_maximal_minors_match_permutation_sum(self, matrix):
        ring, rows = matrix
        k = len(rows)
        got = packed_minors(rows, k, ring, [range(k)])
        expected = oracle_minors(rows, k)
        assert got == expected
        assert [str(det) for det in got] == [str(det) for det in expected]

    @settings(max_examples=100, deadline=None)
    @given(matrix_strategy(), st.data())
    def test_minors_and_fitting_generators_match_permutation_sum(self, matrix, data):
        ring, rows = matrix
        k = data.draw(st.integers(1, len(rows)))
        expected = oracle_minors(rows, k)
        got = all_minors(rows, k, ring)
        assert got == expected
        assert [str(det) for det in got] == [str(det) for det in expected]
        assert list(minor_ideal(rows, k, ring).generators) == first_per_scalar_class(expected)


# str(g) of every generator, in order: `ideal ... --json` prints these lists,
# so a kernel change that reorders, rescales or drops one changes CLI output
PINNED_GENERATORS = [
    ('x^3+y^5', 3, 0, 'xy', [
        '729*x^12', '1215*x^10*y^4', '2025*x^8*y^8', '3375*x^6*y^12', '5625*x^4*y^16',
        '-2430*x^10*y^3 - 2025*x^7*y^8', '9375*x^2*y^20', '-8100*x^8*y^7 - 6750*x^5*y^12',
        '-6750*x^6*y^11 - 5625*x^3*y^16', '15625*y^24', '-11250*x^4*y^15 - 9375*x*y^20',
        '-2430*x^10*y^2 - 8100*x^7*y^7 - 5625*x^4*y^12', '4050*x^8*y^6 - 3750*x^2*y^16',
        '20250*x^6*y^10 + 22500*x^3*y^15 + 3125*y^20',
    ]),
    ('x^3+y^5', 3, 5, 'xy', [
        '4*x^12',
    ]),
    ('1/2*x^3+3/7*y^4', 2, 0, 'xy', [
        '27/8*x^6', '27/7*x^4*y^3', '216/49*x^2*y^6', '1728/343*y^9',
        '81/14*x^4*y^2 + 216/49*x*y^6',
    ]),
    ('x*y*z', 2, 0, 'xyz', [
        'y^4*z^4', 'x*y^3*z^4', 'x*y^4*z^3', 'x^2*y^2*z^4', 'x^2*y^3*z^3', 'x^2*y^4*z^2',
        'x^3*y*z^4', 'x^3*y^2*z^3', 'x^3*y^3*z^2', 'x^3*y^4*z', 'x^4*z^4', 'x^4*y*z^3',
        'x^4*y^2*z^2', 'x^4*y^3*z', 'x^4*y^4', 'x*y^2*z^4', 'x*y^3*z^3', 'x*y^4*z^2',
        '-x^2*y*z^4', '-x^2*y^2*z^3', '-x^2*y^3*z^2', '-x^2*y^4*z', 'x^3*y^2*z^2', 'x^3*y*z^3',
        '-x^3*y^3*z', 'x^4*y*z^2', 'x^4*y^2*z',
    ]),
    ('x^3+y^5', 3, 2, 'xy', [
        'x^12', 'x^10*y^4', 'x^8*y^8', 'x^6*y^12', 'x^4*y^16', 'x^7*y^8', 'x^2*y^20',
        'x^3*y^16', 'x^5*y^12', 'y^24', 'x*y^20', 'x^4*y^12', 'y^20',
    ]),
    ('x^2+y^3+x*y^2', 3, 2, 'xy', [
        'y^12', 'y^10 + x*y^10 + y^11', 'y^8 + x^2*y^8 + y^10',
    ]),
    ('x^3+x*y^3', 3, 3, 'xy', [
        'y^18', '2*x*y^15',
    ]),
    # the gradient vanishes mod 3: an all-zero matrix has no minors
    ('x^3+y^3', 1, 3, 'xy', []),
]

# lists too long to spell out, from the largest matrices the minors kernel
# meets in practice: generator count and the first 16 hex digits of the
# sha256 of the generators' str, one per line
PINNED_GENERATOR_DIGESTS = [
    ('x^2+y^3', 5, 0, 'xy', 432, 'a52fe41de52fd252'),  # 15 x 20
    ('x^3+y^7', 5, 5, 'xy', 389, 'dd61bc4da16f7404'),
    ('x^3+y^3+z^3', 3, 0, 'xyz', 3144, '668756184c41d4c6'),  # 10 x 19
    ('x^2+y^3+z^4', 3, 3, 'xyz', 53, '806a0f4957d0c62a'),
]


class TestGeneratorLists:
    @pytest.mark.parametrize("text, n, char, names, expected", PINNED_GENERATORS)
    def test_byte_identical(self, text, n, char, names, expected):
        ring = RingContext(tuple(names), CoefficientField(char))
        got = higher_jacobian_ideal(P(text, ring), n)
        assert [str(g) for g in got.generators] == expected

    @pytest.mark.parametrize("text, n, char, names, count, digest", PINNED_GENERATOR_DIGESTS)
    def test_large_lists_byte_identical(self, text, n, char, names, count, digest):
        ring = RingContext(tuple(names), CoefficientField(char))
        gens = higher_jacobian_ideal(P(text, ring), n).generators
        assert len(gens) == count
        assert hashlib.sha256("\n".join(map(str, gens)).encode()).hexdigest()[:16] == digest

    def test_calls_share_no_state(self, ring_q2):
        f = P("x^3+y^4", ring_q2)
        first = higher_jacobian_ideal(f, 2)
        second = higher_jacobian_ideal(f, 2)
        assert first is not second
        first.standard_basis()
        assert "_basis" in vars(first)
        assert "_basis" not in vars(second)


class TestGeneratorsUnpackedOnFirstRead:
    """J_n's generators stay packed until something reads them."""

    @pytest.mark.parametrize("text", ["x^3+y^4", "x^2*y", "x*y^2+y^5"])
    def test_queries_unpack_nothing(self, ring_q2, text):
        f = P(text, ring_q2)
        jn, sum_ = higher_jacobian_ideal(f, 2), nash_ideal_t(f, 2)
        jn.dimension()
        sum_.dimension()
        # equals of certified ideals compares their bases
        first, second = higher_jacobian_ideal(f, 3), higher_jacobian_ideal(f, 3)
        if first._certified is not None:
            assert first.equals(second)
        # membership in a J_n container, certified or not
        for element in ("x^12", "y^12", "x^2*y^2", "x+y"):
            jn.contains_element(P(element, ring_q2))
        for ideal in (jn, sum_, first, second):
            assert "generators" not in vars(ideal)

    @pytest.mark.parametrize("field", [QQ, GF(3)])
    @pytest.mark.parametrize("text, scalar, n", [
        ("2*x^3+7*y^4", Fraction(3, 14), 2), ("x^2*y", Fraction(-2, 9), 3), ("x*y*z+z^3", Fraction(1, 5), 2),
    ])
    def test_generators_equal_the_eager_unpack(self, field, text, scalar, n):
        ring = RingContext(("x", "y", "z") if "z" in text else ("x", "y"), field)
        f = P(text, ring)
        ideal = nash_ideal_t(f.scalar_mul(scalar) if field is QQ else f, n)
        eager = []
        for entry in ideal._handed:
            if isinstance(entry, Polynomial):
                eager.append(entry)
                continue
            # as the minors were unpacked when they were handed over
            pk, terms, _, scale = entry
            if scale == 1:
                eager.append(pk.polynomial(terms))
            else:
                coeffs = [Fraction(c, scale) for c in terms.values()]
                eager.append(Polynomial(ring, dict(zip(map(pk.monomial, terms), coeffs)), _canonical=True))
        assert "generators" not in vars(ideal)
        assert ideal.generators == tuple(eager)
        assert [str(g) for g in ideal.generators] == [str(g) for g in eager]
        assert ideal.generators is ideal.generators

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
    @pytest.mark.parametrize("text", ["x^2*y", "x*y*z", "x^3+y^4", "x^2+y^2*z", "x*y", "x^3+x*y^3", "x^2*y+y^4*z"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_open_axes_read_off_the_packed_keys(self, field, text, n):
        ring = RingContext(("x", "y", "z") if "z" in text else ("x", "y"), field)
        f = P(text, ring)
        for ideal in (higher_jacobian_ideal(f, n), nash_ideal_t(f, n)):
            axes = ideal._open_axes
            assert "generators" not in vars(ideal)
            assert axes == _open_axes_of(ideal.generators, ring.nvars)


class TestFittingIdeals:
    """Ideals of the k x k minors: the Fitting ideals of the module the
    matrix presents on its columns."""

    @staticmethod
    def minor_ideal(rows, k, ring):
        return minor_ideal(rows, k, ring)

    def test_single_entry(self, ring_q2):
        assert self.minor_ideal([[P("x", ring_q2)]], 1, ring_q2).equals(ideal(ring_q2, "x"))

    def test_monotone_chain(self, ring_q2):
        # each k x k minor is a combination of (k-1) x (k-1) minors (Laplace)
        rng = random.Random("fitting-chain")
        texts = ("x", "y", "x+y", "x*y", "2", "0", "y^2")
        for _ in range(5):
            rows = [[P(rng.choice(texts), ring_q2) for _ in range(3)] for _ in range(3)]
            for k in (3, 2):
                larger = self.minor_ideal(rows, k, ring_q2)
                smaller = self.minor_ideal(rows, k - 1, ring_q2)
                assert smaller.contains_ideal(larger)


class TestHigherJacobianIdeals:
    def test_one_variable_square(self, ring_q1):
        got = higher_jacobian_ideal(P("x^2", ring_q1), 2)
        assert got.equals(ideal(ring_q1, "x^2"))

    def test_node(self, ring_q2):
        got = higher_jacobian_ideal(P("x*y", ring_q2), 2)
        assert got.equals(ideal(ring_q2, "x^3", "x*y", "y^3"))

    def test_char3_quartic_via_minor_oracle(self):
        ring = RingContext(("x", "y"), GF(3))
        f = P("x^4+y^4", ring)
        m = jac_matrix(f, 2)
        expected_gens = []
        for cols in [(a, b, c) for a in range(5) for b in range(a + 1, 5) for c in range(b + 1, 5)]:
            det = perm_det([[m.entries[i][j] for j in cols] for i in range(3)])
            if not det.is_zero():
                expected_gens.append(det)
        oracle_ideal = Ideal(ring, expected_gens)
        got = higher_jacobian_ideal(f, 2)
        assert got.equals(oracle_ideal)
        assert got.equals(ideal(ring, "x^9", "x^6*y^3", "x^3*y^6", "y^9"))

    def test_first_order_consistency(self):
        for char in (0, 3, 5):
            ring = RingContext(("x", "y"), CoefficientField(char))
            for text in ("x*y", "x^3+y^2", "x^2+y^5", "x^3+x*y^3"):
                f = P(text, ring)
                assert higher_jacobian_ideal(f, 1).equals(jacobian_ideal(f))

    def test_row_column_permutation_invariance(self, ring_q2):
        rng = random.Random("perm-invariance")
        for text in ("x^3+y^2", "x*y", "x^2+y^3"):
            f = P(text, ring_q2)
            m = jac_matrix(f, 2)
            reference = higher_jacobian_ideal(f, 2)
            rows = list(range(3))
            cols = list(range(5))
            rng.shuffle(rows)
            rng.shuffle(cols)
            shuffled = [[m.entries[i][j] for j in cols] for i in rows]
            assert minor_ideal(shuffled, 3, ring_q2).equals(reference)


class TestJacobianIdeal:
    def test_classical_gradient(self, ring_q2):
        got = jacobian_ideal(P("x^3+y^2", ring_q2))
        assert got.equals(ideal(ring_q2, "x^2", "y"))

    def test_char_p_powers(self, ring_f3):
        got = jacobian_ideal(P("x^4+y^4", ring_f3))
        assert got.equals(ideal(ring_f3, "x^3", "y^3"))

    def test_quadric(self, ring_q2):
        got = jacobian_ideal(P("x^2+y^2", ring_q2))
        assert got.equals(ideal(ring_q2, "x", "y"))

    def test_zero_rejected(self, ring_q2):
        with pytest.raises(ValueError):
            jacobian_ideal(ring_q2.zero())


class TestClosedForm:
    def test_quadric_expansion(self, ring_q2):
        got = j2_plane_closed_form(P("x^2+y^2", ring_q2))
        # generators expand to 8x^3, 8x^2y, 8xy^2, 8y^3, 8(x^2+y^2)
        expected = ideal(ring_q2, "x^3", "x^2*y", "x*y^2", "y^3", "x^2+y^2")
        assert got.equals(expected)

    def test_node(self, ring_q2):
        assert j2_plane_closed_form(P("x*y", ring_q2)).equals(ideal(ring_q2, "x^3", "x*y", "y^3"))

    def test_matches_minors_route(self):
        for char in (0, 3, 5):
            ring = RingContext(("x", "y"), CoefficientField(char))
            for text in ("x^2+y^2", "x*y", "x^3+y^4", "x^3+y^3", "x^4+y^2", "x^3+x*y^2"):
                f = P(text, ring)
                assert j2_plane_closed_form(f).equals(higher_jacobian_ideal(f, 2))

    def test_wrong_dimension_rejected(self, ring_q1):
        with pytest.raises(ValueError):
            j2_plane_closed_form(P("x^2", ring_q1))

    def test_char_two_rejected(self):
        ring = RingContext(("x", "y"), GF(2))
        with pytest.raises(ValueError, match="higher_jacobian_ideal"):
            j2_plane_closed_form(P("x^2+y^3", ring))
