"""The ledger's seeded draws and renumbered copies.

Run from the repository root:
``PYTHONPATH=src python -m pytest benchmarks/ledger -q``.
"""

import pytest

from pools import WORKLOADS, draw_round, traced_designs

ROUNDS = 3
SEEDS = range(6)


def rounds(name, seed):
    return [draw_round(name, seed, index) for index in range(ROUNDS)]


def cold(requests):
    return [request for request in requests if not request.hit]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_requests(name):
    assert rounds(name, 7) == rounds(name, 7)
    assert traced_designs(name, 7) == traced_designs(name, 7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_gives_other_requests(name):
    assert rounds(name, 7) != rounds(name, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_forced_members_are_present(name):
    spec = WORKLOADS[name]
    for seed in SEEDS:
        for requests in rounds(name, seed):
            assert set(spec.forced) <= {r.design for r in cold(requests)}
        assert set(spec.forced) <= set(traced_designs(name, seed))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_round_is_its_pool_once_per_ring(name):
    spec = WORKLOADS[name]
    expected = sorted((design.label, ring) for design in spec.pool
                      for ring in spec.rings)
    for seed in SEEDS:
        for requests in rounds(name, seed):
            assert sorted((r.design.label, r.ring)
                          for r in cold(requests)) == expected
        assert all(design in spec.pool
                   for design in traced_designs(name, seed))


def test_service_hits_resubmit_a_design_already_verified():
    for seed in SEEDS:
        for requests in rounds("service-mix", seed):
            seen = set()
            for request in requests:
                if request.hit:
                    assert request.design in seen
                else:
                    seen.add(request.design)
            assert sum(r.hit for r in requests) == len(seen)


def test_fault_requests_are_paired_across_rings():
    for seed in SEEDS:
        requests = draw_round("fault-sweep", seed, 0)
        for first, second in zip(requests[::2], requests[1::2]):
            assert first.design == second.design
            assert {first.ring, second.ring} == {"exact", "modular"}


def test_renumbered_copy_is_isomorphic_and_renumbered():
    from designs import renumbered_copy
    from repro.aig.simulate import exhaustive_equal
    from repro.genmul.multiplier import generate_multiplier
    from repro.service.fingerprint import design_fingerprint

    aig = generate_multiplier("SP-AR-RC", 4)
    copy = renumbered_copy(aig, "seed")
    assert exhaustive_equal(aig, copy)
    assert design_fingerprint(copy) == design_fingerprint(aig)
    assert [copy.fanins(v) for v in copy.and_vars()] != \
        [aig.fanins(v) for v in aig.and_vars()]
