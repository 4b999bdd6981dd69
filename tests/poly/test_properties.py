"""Property-based tests (hypothesis) for the polynomial algebra.

These pin the algebraic foundations of backward rewriting: the
commutative-ring axioms of the polynomial arithmetic (modulo the
Boolean idempotence ``x**2 = x``) and the semantics of substitution
(substituting then evaluating equals evaluating with the substituted
value), which is exactly what makes a rewriting step equal to an ideal
division step.
"""

from hypothesis import given, settings, strategies as st

from repro.poly import Polynomial, PolyArena, monomial_vars

VARS = st.integers(min_value=1, max_value=6)
MONOMIALS = st.frozensets(VARS, max_size=4)
COEFFS = st.integers(min_value=-8, max_value=8)


@st.composite
def polynomials(draw, max_terms=5):
    terms = draw(st.lists(st.tuples(COEFFS, MONOMIALS), max_size=max_terms))
    return Polynomial.from_terms(terms)


ASSIGNMENTS = st.fixed_dictionaries({v: st.integers(0, 1)
                                     for v in range(1, 7)})


@given(polynomials(), polynomials())
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polynomials(), polynomials(), polynomials())
def test_addition_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polynomials())
def test_additive_inverse(p):
    assert (p + (-p)).is_zero()


@given(polynomials(), polynomials())
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@settings(max_examples=60)
@given(polynomials(max_terms=4), polynomials(max_terms=4),
       polynomials(max_terms=4))
def test_multiplication_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@settings(max_examples=60)
@given(polynomials(max_terms=4), polynomials(max_terms=4),
       polynomials(max_terms=4))
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polynomials())
def test_idempotence_of_variables(p):
    x = Polynomial.variable(1)
    assert x * x == x
    assert (p * x) * x == p * x


@given(polynomials(), ASSIGNMENTS)
def test_evaluation_is_ring_homomorphism_add(p, assignment):
    q = Polynomial.variable(2) + 3
    assert ((p + q).evaluate(assignment)
            == p.evaluate(assignment) + q.evaluate(assignment))


@settings(max_examples=80)
@given(polynomials(max_terms=4), polynomials(max_terms=4), ASSIGNMENTS)
def test_evaluation_is_ring_homomorphism_mul(p, q, assignment):
    assert ((p * q).evaluate(assignment)
            == p.evaluate(assignment) * q.evaluate(assignment))


@settings(max_examples=80)
@given(polynomials(), VARS, polynomials(max_terms=3), ASSIGNMENTS)
def test_substitution_semantics(p, var, replacement, assignment):
    """Substitution agrees with evaluation when the replacement itself
    evaluates to a Boolean value — the soundness core of backward
    rewriting."""
    value = replacement.evaluate(assignment)
    if value not in (0, 1):
        return  # only Boolean-consistent replacements model circuit nodes
    substituted = p.substitute(var, replacement)
    shadowed = dict(assignment)
    shadowed[var] = value
    assert substituted.evaluate(assignment) == p.evaluate(shadowed)


@given(polynomials(), VARS)
def test_substitution_removes_variable(p, var):
    result = p.substitute(var, Polynomial.constant(1))
    assert var not in result.support()


@given(polynomials(), VARS, polynomials(max_terms=3))
def test_substitution_no_op_when_absent(p, var, replacement):
    if var not in p.support():
        assert p.substitute(var, replacement) == p


@given(polynomials())
def test_support_matches_occurrences(p):
    counts = PolyArena.from_polynomial(p).occurrence_index()
    for var in p.support():
        assert counts[var] >= 1
    assert set(counts) == p.support()


@given(polynomials())
def test_print_parse_round_trip(p):
    from repro.poly import parse_polynomial

    text = p.to_string()
    parsed, pool = parse_polynomial(text)
    # map names back: v<k> -> k
    remap = {pool.by_name[name]: int(name[1:]) for name in pool.by_name}
    rebuilt = Polynomial.from_terms(
        (coeff, frozenset(remap[v] for v in monomial_vars(mono)))
        for mono, coeff in parsed.terms())
    assert rebuilt == p
