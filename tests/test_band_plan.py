"""The bound integrals' band plans: whatever they hold, every bound keeps the bits of a cold computation.

`analytic_bounds._band_plan` keeps, per (parts, conditioning kind,
ChannelParams, tier-1 split), the density-free part of a band integral: the
integrator's first level and the kernel rows that depend on the link length
alone, at its nodes, and `analytic_bounds._plan_level` the same at the
deeper levels the plans met last.  Whatever
the plans hold, in whatever order they were filled, and with two threads
filling them at once, every bound must keep its `float.hex`.
"""

import gc
import json
import sys
import threading
import weakref

import numpy as np
import pytest

from coopmac import analytic_bounds as ab
from coopmac.analytic_bounds import averaged_bounds, link_bounds_at_distance, total_throughput_bounds
from coopmac.channel_model import ChannelParams, _p_success, tier_bracket, worst_tier_g
from coopmac.stochastic_geometry import CLASS_RATES, CLASS_TIERS, REGIMES, tier_areas, tier_void_law
from test_bound_bits import FIXTURE, _cells, _key

PARAMS = ChannelParams()
OTHER = ChannelParams(sigma_sh=8.0, alpha=3.5)
# link lengths no quadrature lands on, one per helper regime and one on its edge
OFF_LATTICE = (("C", 70.0001234), ("C", 74.7), ("D1", 81.234567), ("D1", 96.4), ("D2", 97.77), ("D2", 99.99))
# densities at which the D1 band is split at its tier-1 layer, so each has a plan of its own
SPLITTING = (0.02, 0.5, 1e3)
# (regime, density, k, params): every cell of the bit fixture, the splitting densities under
# both conditionings (k = 1000 at 0.044 splits too), and a second ChannelParams
CELLS = ([(*cell, PARAMS) for cell in _cells()]
         + [(g, lam, None, PARAMS) for lam in SPLITTING for g in ("C", "D1", "D2", "total")]
         + [(g, 0.044, 1000, PARAMS) for g in ("D1", "total")]
         + [(g, lam, k, OTHER) for lam, k in ((0.002, None), (0.002, 10), (0.5, None)) for g in ("C", "D1", "D2", "total")])


def _clear():
    ab._band_plan.cache_clear()
    ab._plan_level.cache_clear()


@pytest.fixture(autouse=True)
def cold_plans():
    _clear()
    yield
    _clear()


def _hex(pair):
    return pair.lower.hex(), pair.upper.hex()


def _pair(regime, density, k, params):
    if regime == "total":
        return _hex(total_throughput_bounds(density, k=k, params=params))
    return _hex(averaged_bounds(regime, density, k=k, params=params))


@pytest.fixture(scope="module")
def cold():
    """Each cell's bits with every plan cleared before it."""
    bits = {}
    for cell in CELLS:
        _clear()
        bits[cell] = _pair(*cell)
    return bits


def _plans():
    """The plans of the bit fixture's cells, each looked up as its bound function does."""
    parts = [((a, b, g),) for g, (a, b, _) in REGIMES.items() if g in ("C", "D1", "D2")]
    parts.append(tuple((a, b, CLASS_RATES[c] if c in "AB" else g)
                       for g in ("A", "B", "C", "D1", "D2") for a, b, c in [REGIMES[g]]))
    return [ab._band_plan(p, ppp, PARAMS) for p in parts for ppp in (True, False)]


def _held():
    """Whether the plans hold at most 32 x 2048 deeper nodes: at most `maxsize` levels of at most _LEVEL_NODES nodes."""
    info = ab._plan_level.cache_info()
    return info.currsize <= info.maxsize and info.maxsize * ab._LEVEL_NODES <= 32 * 2048


def _plain_kernel(regime, r, density, k, params):
    """The tier mixture computed from scratch on every call, one tier at a time."""
    link_class = REGIMES[regime][2]
    empty = tier_void_law(tier_areas(r)[:CLASS_TIERS[link_class]], r, density, k)
    lower = upper = empty[-1] * _p_success(r, params) * CLASS_RATES[link_class]
    for p_i, worst, best in zip(empty[:-1] - empty[1:], *tier_bracket(link_class, r, params)):
        lower = lower + p_i * worst
        upper = upper + p_i * best
    return np.stack((lower, upper))


def _sweep():
    for cell in _cells():
        _pair(*cell, PARAMS)


def test_cold_cells_are_the_fixture(cold):
    fixture = json.loads(FIXTURE.read_text())
    got = {_key(*cell[:3]): dict(zip(("lower", "upper"), bits)) for cell, bits in cold.items() if cell[3] is PARAMS}
    assert {key: got[key] for key in fixture} == fixture
    # the second ChannelParams and the splits are cells of their own
    assert len(set(cold.values())) > len(fixture)


def _ordered(history):
    if history == "ascending":
        return sorted(CELLS, key=lambda cell: (cell[1], str(cell)))
    if history == "descending":
        return sorted(CELLS, key=lambda cell: (cell[1], str(cell)), reverse=True)
    if history == "interleaved":
        ascending = _ordered("ascending")
        return [cell for pair in zip(ascending, ascending[::-1]) for cell in pair][:len(CELLS)]
    return [CELLS[i] for i in np.random.default_rng(5).permutation(len(CELLS))]


@pytest.mark.parametrize("history", ["warm", "ascending", "descending", "interleaved", "shuffled"])
def test_every_cell_keeps_its_bits_in_any_history(cold, history):
    cells = _ordered(history)
    if history == "warm":
        for cell in cells:
            _pair(*cell)
    assert {cell: _pair(*cell) for cell in cells} == cold


@pytest.mark.parametrize("n_threads", [2, 4])
def test_threads_sharing_the_plans_keep_the_bits(cold, n_threads):
    # each thread fills the shared plans while the others read them; two racing misses
    # may compute one level twice, but every lookup gets one level's read-only nodes
    got, switch = [{} for _ in range(n_threads)], sys.getswitchinterval()

    def work(i):
        for cell in CELLS[i::n_threads][::(-1) ** i]:
            got[i][cell] = _pair(*cell)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for bits in got:
        assert bits == {cell: cold[cell] for cell in bits}
    assert set().union(*got) == set(CELLS)
    info = ab._band_plan.cache_info()
    assert info.currsize <= info.maxsize
    assert _held()


def test_a_second_pass_finds_every_plan_and_level_held(monkeypatch):
    _sweep()
    info = ab._band_plan.cache_info()
    _plans()
    held = ab._plan_level.cache_info()
    assert ab._band_plan.cache_info().misses == info.misses == 8
    assert 0 < held.currsize and _held()
    fresh = []
    monkeypatch.setattr(ab._BandPlan, "_nodes", lambda plan, x, interval: fresh.append(x.size))
    _sweep()
    assert fresh == []
    assert ab._band_plan.cache_info().misses == info.misses
    again = ab._plan_level.cache_info()
    assert (again.misses, again.currsize) == (held.misses, held.currsize)


def test_plans_stay_under_their_cap_over_many_splitting_densities():
    lams = np.geomspace(0.011, 1e6, 10_000)
    for lam in lams:
        averaged_bounds("D1", float(lam))
    info = ab._band_plan.cache_info()
    assert info.misses == 1 + len(lams)  # the unsplit plan, then one per splitting density
    assert info.currsize <= info.maxsize == 32
    assert _held()


def test_off_lattice_lengths_keep_their_bits_after_a_sweep():
    def bits():
        return [_hex(link_bounds_at_distance(g, r, **kw)) for g, r in OFF_LATTICE for kw in ({"density": 0.003}, {"k": 4})]

    cold = bits()
    _sweep()
    assert bits() == cold


@pytest.mark.parametrize("regime", ["C", "D1", "D2"])
@pytest.mark.parametrize("k", [None, 1, 10])
def test_kernel_matches_the_plain_mixture(regime, k):
    lo, hi, _ = REGIMES[regime]
    r = np.random.default_rng(11).uniform(lo, hi, size=200)
    for params in (PARAMS, OTHER):
        for chunk in (r[:1], r[:7], r[7:], r):
            got = ab._link_bounds(regime, chunk, 0.002, k, params)
            assert got.tobytes() == _plain_kernel(regime, chunk, 0.002, k, params).tobytes()


@pytest.mark.parametrize("regime", ["C", "D1", "D2"])
def test_held_rows_are_the_bracket_kernels_output(regime):
    # the kernel's worst terms and best rows are `tier_bracket`'s, byte for byte, fresh or held in a plan
    lo, hi, link_class = REGIMES[regime]
    n = CLASS_TIERS[link_class]
    r = np.random.default_rng(12).uniform(lo, hi, size=50)
    for params in (PARAMS, OTHER):
        worst, best = tier_bracket(link_class, r, params)
        assert worst_tier_g(params)[1][:n].tobytes() == worst.tobytes()
        assert ab._node_rows(link_class, r, params)[n + 1:].tobytes() == best.tobytes()
        for ppp in (True, False):
            (_, _, r_first, rows), = ab._band_plan(((lo, hi, regime),), ppp, params).first.groups
            assert rows[n + 1:].tobytes() == tier_bracket(link_class, r_first, params)[1].tobytes()


def test_alternating_channel_params_give_each_its_cold_result():
    cold = {}
    for params in (PARAMS, OTHER):
        ab._band_plan.cache_clear()
        cold[params] = [_hex(averaged_bounds(g, 0.002, params=params)) for g in ("C", "D1", "D2")]
    assert cold[PARAMS] != cold[OTHER]
    ab._band_plan.cache_clear()
    for params in (PARAMS, OTHER, PARAMS, OTHER):
        assert [_hex(averaged_bounds(g, 0.002, params=params)) for g in ("C", "D1", "D2")] == cold[params]


def test_deeper_levels_are_held_up_to_their_size_and_count_and_keep_the_bits():
    plan = ab._band_plan(((*REGIMES["D2"][:2], "D2"),), True, PARAMS)
    rng = np.random.default_rng(3)
    small, held = ab._LEVEL_NODES, ab._plan_level.cache_info().maxsize
    # one more level that may be held than the plans hold, then one too large to hold
    levels = [rng.uniform(96.4, 100.0, size=size) for size in [small, *rng.integers(1, small + 1, size=held)]]
    large = rng.uniform(96.4, 100.0, size=small + 1)

    def values(x):
        return plan.values(plan.nodes(x, np.zeros(x.size, dtype=int)), None, 0.004, None).tobytes()

    def cold(x):
        return plan.values(plan._nodes(x, np.zeros(x.size, dtype=int)), None, 0.004, None).tobytes()

    for i, x in enumerate(levels):
        assert values(x) == cold(x)
        assert ab._plan_level.cache_info()[1:] == (i + 1, held, min(i + 1, held))  # (misses, maxsize, currsize)
    # a level above _LEVEL_NODES nodes is computed each time and not held
    assert values(large) == cold(large) and values(large) == cold(large)
    assert ab._plan_level.cache_info() == (0, held + 1, held, held)
    # the held levels, at most 32 x 2048 nodes, are found again with their bits
    assert sum(x.size for x in levels[1:]) <= 32 * 2048
    for x in levels[1:]:
        assert values(x) == cold(x)
    assert ab._plan_level.cache_info() == (held, held + 1, held, held)
    # the least recently used level was dropped, and is rebuilt bit for bit
    assert values(levels[0]) == cold(levels[0])
    assert ab._plan_level.cache_info() == (held, held + 2, held, held)


def test_a_plan_dropped_from_the_cache_is_freed_without_the_cyclic_collector():
    # a plan that held deeper levels and is then pushed out of `_band_plan` by 32 others is freed by its
    # reference count alone; the levels it met stay held under its key, and a rebuilt plan finds them
    lams = np.geomspace(0.011, 1e6, 33)
    gc.disable()
    try:
        averaged_bounds("D1", float(lams[0]))
        layer = ab._tier1_layer(float(lams[0]), None)
        held = ab._band_plan(((*REGIMES["D1"][:2], "D1"),), True, PARAMS, layer)
        x = layer * np.linspace(0.1, 0.9, 7)
        held.nodes(x, np.zeros(x.size, dtype=int))
        plan, key = weakref.ref(held), held.key
        del held
        assert plan() is not None and ab._plan_level.cache_info().currsize == 1
        for lam in lams[1:]:
            averaged_bounds("D1", float(lam))
        assert plan() is None
    finally:
        gc.enable()
    before = ab._plan_level.cache_info()
    ab._band_plan(*key).nodes(x, np.zeros(x.size, dtype=int))
    after = ab._plan_level.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
