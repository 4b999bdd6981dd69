"""Randomized differential suite: ``PolyArena`` kernels vs frozenset.

The rewriting engine keeps ``SP_i`` as a :class:`~repro.poly.arena.PolyArena`
(sorted parallel columns).  Its kernels — ``partition_var``,
``partition_pair``, ``rebuild``, ``merge_sorted_columns`` and the
on-demand occurrence count ``count_vars`` — are replayed
over hundreds of random polynomials and checked term for term against
the independent naive reimplementation in
:mod:`tests.poly.frozenset_oracle`, in the exact ring and in a small
modular ring (where coefficients must additionally come out canonical
in ``[0, p)``).

Every resulting arena is also checked for the columnar invariants
(strictly ascending monomials, no stored zeros) and, when it carries an
occurrence column, for index consistency — the column is carried by
delta updates through the kernels, so a drift here means a stale
candidate sort in Algorithm 2.
"""

import random

import pytest

from repro.poly import Polynomial
from repro.poly.arena import PolyArena, merge_sorted_columns
from repro.poly.ring import EXACT, ModularRing
from tests.poly.frozenset_oracle import OraclePoly, mask_to_fs

N_VARS = 10
N_POLYS = 320
MOD_RING = ModularRing(10007)

RINGS = [pytest.param(EXACT, id="exact"),
         pytest.param(MOD_RING, id="modular")]


def random_terms(rng, max_terms=8, max_degree=4, n_vars=N_VARS):
    return [(rng.randint(-8, 8),
             frozenset(rng.sample(range(n_vars),
                                  rng.randrange(max_degree + 1))))
            for _ in range(rng.randrange(max_terms + 1))]


def build_pair(terms, ring):
    """(arena, oracle) for one term list."""
    arena = PolyArena.from_polynomial(Polynomial.from_terms(terms, ring=ring))
    oracle = OraclePoly()
    for coeff, mono in terms:
        oracle = oracle.add(OraclePoly({mono: coeff}))
    return arena, oracle


def oracle_terms(oracle, ring):
    """The oracle's terms canonicalized into ``ring``."""
    mod = ring.modulus
    if mod is None:
        return oracle.to_mask_terms()
    return {m: c % mod for m, c in oracle.to_mask_terms().items()
            if c % mod}


def decoded_occurrences(monos):
    """Variable -> number of monomials containing it, from scratch."""
    counts = {}
    for mono in monos:
        for var in mask_to_fs(mono):
            counts[var] = counts.get(var, 0) + 1
    return counts


def check_invariants(arena, ring):
    monos = arena.monos
    assert all(monos[i] < monos[i + 1] for i in range(len(monos) - 1)), \
        "arena monomial column not strictly ascending"
    assert len(arena.coeffs) == len(monos)
    mod = ring.modulus
    for coeff in arena.coeffs:
        assert coeff != 0, "arena stores a zero coefficient"
        if mod is not None:
            assert 0 < coeff < mod, "non-canonical modular coefficient"
    if arena.occ is not None:
        assert arena.occ == decoded_occurrences(monos), \
            "carried occurrence index drifted"


def assert_matches(arena, oracle, ring, context=""):
    assert dict(zip(arena.monos, arena.coeffs)) == oracle_terms(oracle, ring), \
        context
    check_invariants(arena, ring)


def canonical_terms(arena, sign, ring):
    """``{monomial: sign * coefficient}``, canonical in ``ring``."""
    mod = ring.modulus
    if mod is None:
        return {m: sign * c for m, c in zip(arena.monos, arena.coeffs)}
    return {m: sign * c % mod for m, c in zip(arena.monos, arena.coeffs)}


@pytest.fixture(scope="module")
def pairs():
    out = {}
    for ring in (EXACT, MOD_RING):
        rng = random.Random(20260808)
        out[ring.modulus] = [build_pair(random_terms(rng), ring)
                             for _ in range(N_POLYS)]
    return out


def _ring_pairs(pairs, ring):
    return pairs[ring.modulus]


@pytest.mark.parametrize("ring", RINGS)
def test_roundtrip(pairs, ring):
    for arena, oracle in _ring_pairs(pairs, ring):
        assert_matches(arena, oracle, ring, "roundtrip")
        assert arena.ring is ring
        assert len(arena) == len(oracle.terms)
        assert arena.occurrence_index() == decoded_occurrences(arena.monos)


def _merge(base, other, sign, ring):
    monos, coeffs, added, cancelled = merge_sorted_columns(
        base.monos, base.coeffs, canonical_terms(other, sign, ring),
        ring.modulus)
    merged = PolyArena(monos, coeffs, ring=ring)
    # the merge reports exactly the monomials that entered / cancelled
    assert set(added) == set(other.monos) - set(base.monos)
    assert set(cancelled) == set(base.monos) - set(monos)
    return merged


@pytest.mark.parametrize("ring", RINGS)
def test_add(pairs, ring):
    items = _ring_pairs(pairs, ring)
    for (aa, oa), (ab, ob) in zip(items, reversed(items)):
        assert_matches(_merge(aa, ab, 1, ring), oa.add(ob), ring, "add")


@pytest.mark.parametrize("ring", RINGS)
def test_sub(pairs, ring):
    items = _ring_pairs(pairs, ring)
    for (aa, oa), (ab, ob) in zip(items, reversed(items)):
        assert_matches(_merge(aa, ab, -1, ring), oa.sub(ob), ring, "sub")
        assert_matches(_merge(ab, aa, -1, ring), ob.sub(oa), ring, "rsub")


def _substitute(arena, var, rep, ring):
    """The engine's substitution kernel without vanishing rules:
    partition, accumulate the products, rebuild."""
    keep_m, keep_c, touched = arena.partition_var(var)
    if not touched:
        return arena
    bit = 1 << var
    mod = ring.modulus
    fresh = {}
    for mono, coeff in touched:
        rest = mono ^ bit
        for rm, rc in zip(rep.monos, rep.coeffs):
            key = rest | rm
            total = fresh.get(key, 0) + coeff * rc
            fresh[key] = total if mod is None else total % mod
    return arena.rebuild(keep_m, keep_c, fresh,
                         removed=[m for m, _ in touched])


@pytest.mark.parametrize("ring", RINGS)
def test_substitute(pairs, ring):
    """With and without an occurrence column: ``rebuild`` carries the
    column by delta on low churn and drops it above the threshold."""
    rng = random.Random(31)
    for arena, oracle in _ring_pairs(pairs, ring):
        var = rng.randrange(N_VARS)
        rep, orep = build_pair(random_terms(rng, max_terms=3, max_degree=2),
                               ring)
        want = oracle.substitute_many({var: orep})
        for with_index in (False, True):
            base = PolyArena(arena.monos, arena.coeffs, ring=ring)
            if with_index:
                base.occurrence_index()
            assert_matches(_substitute(base, var, rep, ring), want,
                           ring, f"substitute v{var}")


@pytest.mark.parametrize("ring", RINGS)
def test_partition_pair(pairs, ring):
    rng = random.Random(41)
    for arena, _oracle in _ring_pairs(pairs, ring):
        var_a, var_b = rng.sample(range(N_VARS), 2)
        bit_a, bit_b = 1 << var_a, 1 << var_b
        items = list(zip(arena.monos, arena.coeffs))
        for occ in (None, decoded_occurrences(arena.monos)):
            parts = PolyArena(arena.monos, arena.coeffs, ring=ring,
                              occ=occ).partition_pair(var_a, var_b)
            if any(m & bit_a and m & bit_b for m, _ in items):
                assert parts is None
                continue
            keep_m, keep_c, part_a, part_b = parts
            assert list(zip(keep_m, keep_c)) == [
                (m, c) for m, c in items if not m & (bit_a | bit_b)]
            assert part_a == {m ^ bit_a: c for m, c in items if m & bit_a}
            assert part_b == {m ^ bit_b: c for m, c in items if m & bit_b}


def oracle_occurrences(oracle, ring, mask):
    """Variable -> number of monomials containing it, for the variables
    of ``mask``, counted over the oracle's frozenset monomials."""
    counts = {}
    for mono in oracle_terms(oracle, ring):
        for var in mask_to_fs(mono):
            if mask >> var & 1:
                counts[var] = counts.get(var, 0) + 1
    return counts


@pytest.mark.parametrize("ring", RINGS)
def test_count_vars(pairs, ring):
    """The engine's count of candidate outputs on an arena with no
    occurrence column: only the ``mask`` variables, each counted over
    the whole polynomial though only the tail above the lowest one is
    decoded.  Nothing is cached."""
    rng = random.Random(47)
    for arena, oracle in _ring_pairs(pairs, ring):
        masks = [0, -1, 1 << rng.randrange(N_VARS), 1 << (N_VARS - 1)]
        masks += [sum(1 << var for var in rng.sample(range(N_VARS), k))
                  for k in (2, 5)]
        fresh = PolyArena(arena.monos, arena.coeffs, ring=ring)
        for mask in masks:
            assert fresh.count_vars(mask) == oracle_occurrences(
                oracle, ring, mask & ((1 << N_VARS) - 1)), f"mask {mask:b}"
        assert fresh.occ is None


@pytest.mark.parametrize("ring", RINGS)
def test_tracked_occurrences(pairs, ring):
    """An arena built with a ``tracked`` mask counts only those
    variables, the kernels hand the mask on, and partitioning on an
    untracked variable still finds every monomial containing it."""
    rng = random.Random(53)
    for arena, oracle in _ring_pairs(pairs, ring):
        tracked = 0
        for var in rng.sample(range(N_VARS), 5):
            tracked |= 1 << var

        def counted(monos):
            return {var: count
                    for var, count in decoded_occurrences(monos).items()
                    if tracked >> var & 1}

        base = PolyArena(arena.monos, arena.coeffs, ring=ring,
                         tracked=tracked)
        assert base.occurrence_index() == counted(base.monos)
        var = rng.randrange(N_VARS)
        rep, orep = build_pair(random_terms(rng, max_terms=3, max_degree=2),
                               ring)
        result = _substitute(base, var, rep, ring)
        assert dict(zip(result.monos, result.coeffs)) == oracle_terms(
            oracle.substitute_many({var: orep}), ring), f"substitute v{var}"
        assert result.tracked == tracked
        if result.occ is not None:
            assert result.occ == counted(result.monos)
        assert result.count_vars(tracked) == counted(result.monos)


@pytest.mark.parametrize("ring", RINGS)
def test_substitute_untouched_returns_self(pairs, ring):
    """Partitioning on an absent variable must hand back the columns
    themselves: the engine returns ``SP_i`` unchanged on identity, so a
    no-op substitution costs no rebuild."""
    for arena, _oracle in _ring_pairs(pairs, ring):
        keep_m, keep_c, touched = arena.partition_var(N_VARS + 3)
        assert touched == []
        assert keep_m is arena.monos and keep_c is arena.coeffs
        assert _substitute(arena, N_VARS + 3, arena, ring) is arena


@pytest.mark.parametrize("ring", RINGS)
def test_arena_dict_conversion_roundtrip(pairs, ring):
    """from_polynomial/to_polynomial — the engine's only two conversion
    points — preserve terms and ring exactly."""
    for arena, oracle in _ring_pairs(pairs, ring):
        poly = arena.to_polynomial()
        assert dict(poly.terms()) == oracle_terms(oracle, ring)
        assert poly.ring is ring
        again = PolyArena.from_polynomial(poly)
        assert again.monos == arena.monos and again.coeffs == arena.coeffs


@pytest.mark.parametrize("ring", RINGS)
def test_sorted_terms_match_across_representations(pairs, ring):
    """A remainder converted out of the arena prints exactly like the
    same polynomial built from the oracle's terms."""
    rng = random.Random(43)
    for arena, oracle in _ring_pairs(pairs, ring):
        var = rng.randrange(N_VARS)
        rep, orep = build_pair(random_terms(rng, max_terms=3, max_degree=2),
                               ring)
        out = _substitute(arena, var, rep, ring).to_polynomial()
        want = Polynomial(oracle_terms(oracle.substitute_many({var: orep}),
                                       ring), ring=ring)
        assert out.sorted_terms() == want.sorted_terms()
        assert out.to_string() == want.to_string()


def test_slots_prevent_instance_dicts():
    """Both types are __slots__-only: the rewriting loop allocates
    millions of short-lived instances, and a per-instance __dict__
    would roughly double the allocation volume."""
    poly = Polynomial.variable(3)
    arena = PolyArena.from_polynomial(poly)
    for obj in (poly, arena):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.stray_attribute = 1
