"""The bound kernel's node store: the r-only rows it holds give the bits of a cold computation.

`analytic_bounds._node_store` keeps, per link class and ChannelParams, the
kernel rows that depend on the link length alone.  Whatever the store holds,
in whatever order it was filled, every bound must keep its `float.hex`.
"""

import json
import sys
import threading

import numpy as np
import pytest

from coopmac import analytic_bounds as ab
from coopmac.analytic_bounds import averaged_bounds, link_bounds_at_distance
from coopmac.channel_model import ChannelParams, _p_success
from coopmac.stochastic_geometry import CLASS_RATES, CLASS_TIERS, REGIMES, TIER_RATES, tier_areas, tier_void_law
from test_bound_bits import FIXTURE, _bits, _cells, _key

PARAMS = ChannelParams()
OTHER = ChannelParams(sigma_sh=8.0, alpha=3.5)
# link lengths no quadrature lands on, one per helper regime and one on its edge
OFF_LATTICE = (("C", 70.0001234), ("C", 74.7), ("D1", 81.234567), ("D1", 96.4), ("D2", 97.77), ("D2", 99.99))


@pytest.fixture(autouse=True)
def cold_store():
    ab._node_store.cache_clear()
    yield
    ab._node_store.cache_clear()


def _hex(pair):
    return pair.lower.hex(), pair.upper.hex()


def _stored(link_class, params=PARAMS):
    return len(ab._node_store(link_class, params).table[0])


def _plain_kernel(regime, r, density, k, params):
    """The tier mixture computed from scratch on every call, one tier at a time."""
    link_class = REGIMES[regime][2]
    empty = tier_void_law(tier_areas(r)[:CLASS_TIERS[link_class]], r, density, k)
    lower = upper = empty[-1] * _p_success(r, params) * CLASS_RATES[link_class]
    for p_i, (worst, best), rate in zip(empty[:-1] - empty[1:], ab._extremal_g(link_class, r, params), TIER_RATES):
        lower = lower + p_i * (worst * rate)
        upper = upper + p_i * (best * rate)
    return np.stack((lower, upper))


def _sweep():
    for cell in _cells():
        _bits(*cell)


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_every_cell_keeps_its_bits_in_any_order(order):
    fixture = json.loads(FIXTURE.read_text())
    cells = _cells()[::-1] if order == "reversed" else [_cells()[i] for i in np.random.default_rng(5).permutation(120)]
    assert {_key(*cell): _bits(*cell) for cell in cells} == fixture


def test_a_second_pass_finds_every_node_stored():
    _sweep()
    sizes = _stored("C"), _stored("D")
    assert 0 < sizes[0] < sizes[1] <= ab._STORE_CAP
    _sweep()
    assert (_stored("C"), _stored("D")) == sizes


def test_off_lattice_lengths_keep_their_bits_after_a_sweep():
    def bits():
        return [_hex(link_bounds_at_distance(g, r, **kw)) for g, r in OFF_LATTICE for kw in ({"density": 0.003}, {"k": 4})]

    cold = bits()
    _sweep()
    assert bits() == cold


@pytest.mark.parametrize("regime", ["C", "D1", "D2"])
@pytest.mark.parametrize("k", [None, 1, 10])
def test_stored_kernel_matches_the_plain_mixture(regime, k):
    lo, hi, _ = REGIMES[regime]
    r = np.random.default_rng(11).uniform(lo, hi, size=200)
    for params in (PARAMS, OTHER):
        for chunk in (r[:1], r[:7], r[7:], r):  # partly stored, then fully stored
            got = ab._link_bounds(regime, chunk, 0.002, k, params)
            assert got.tobytes() == _plain_kernel(regime, chunk, 0.002, k, params).tobytes()


def test_alternating_channel_params_give_each_its_cold_result():
    cold = {}
    for params in (PARAMS, OTHER):
        ab._node_store.cache_clear()
        cold[params] = [_hex(averaged_bounds(g, 0.002, params=params)) for g in ("C", "D1", "D2")]
    assert cold[PARAMS] != cold[OTHER]
    ab._node_store.cache_clear()
    for params in (PARAMS, OTHER, PARAMS, OTHER):
        assert [_hex(averaged_bounds(g, 0.002, params=params)) for g in ("C", "D1", "D2")] == cold[params]


def test_store_starts_over_at_its_cap_and_keeps_the_bits():
    rng = np.random.default_rng(3)
    batch = ab._STORE_CAP // 3 + 1
    # three batches that pass the cap together, then one that passes it alone
    batches = [rng.uniform(74.7, 100.0, size=batch) for _ in range(3)] + [rng.uniform(74.7, 100.0, ab._STORE_CAP + 1)]
    cold = []
    for r in batches:
        ab._node_store.cache_clear()
        cold.append(ab._link_bounds("D1", r, 0.004, None, PARAMS).tobytes())
    ab._node_store.cache_clear()
    sizes = []
    for r, want in zip(batches, cold):
        assert ab._link_bounds("D1", r, 0.004, None, PARAMS).tobytes() == want
        sizes.append(_stored("D"))
    assert sizes == [batch, 2 * batch, batch, 0]
    # emptied by the batch it could not hold, the store fills again
    assert ab._link_bounds("D1", batches[0], 0.004, None, PARAMS).tobytes() == cold[0]
    assert _stored("D") == batch


def test_threads_sharing_a_store_keep_the_bits():
    # each thread fills the shared store while the others read it; a racing update
    # may drop nodes, but every lookup uses one consistent (keys, rows) pair
    fixture = json.loads(FIXTURE.read_text())
    cells = _cells()
    got, switch = {}, sys.getswitchinterval()

    def work(part):
        for cell in cells[part::4]:
            got[_key(*cell)] = _bits(*cell)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert got == fixture
    assert _stored("D") <= ab._STORE_CAP
