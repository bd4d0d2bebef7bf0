"""Unit tests for the set-associative LRU cache."""

import random

import pytest

from repro.mem.backend import create_backend
from repro.mem.cache import Cache
from repro.sim.config import MEM_BACKENDS, SimConfig
from repro.sim.stats import CoreStats


def test_fill_and_contains():
    c = Cache(8, 2)
    c.fill(5)
    assert c.contains(5)
    assert not c.contains(6)
    assert len(c) == 1


def test_touch_miss_and_hit():
    c = Cache(8, 2)
    assert not c.touch(3)
    c.fill(3)
    assert c.touch(3)


def test_lru_eviction_within_set():
    c = Cache(8, 2)  # 4 sets
    a, b, d = 0, 4, 8  # all map to set 0
    c.fill(a)
    c.fill(b)
    victim = c.fill(d)
    assert victim == a  # least recently used
    assert not c.contains(a)
    assert c.contains(b) and c.contains(d)


def test_touch_refreshes_recency():
    c = Cache(8, 2)
    a, b, d = 0, 4, 8
    c.fill(a)
    c.fill(b)
    c.touch(a)          # a becomes MRU
    victim = c.fill(d)
    assert victim == b


def test_refill_resident_line_updates_recency():
    c = Cache(8, 2)
    a, b, d = 0, 4, 8
    c.fill(a)
    c.fill(b)
    assert c.fill(a) is None  # already resident
    victim = c.fill(d)
    assert victim == b


def test_different_sets_do_not_conflict():
    c = Cache(8, 2)
    for line in range(8):
        c.fill(line)
    assert len(c) == 8  # 4 sets x 2 ways all occupied


def test_invalidate():
    c = Cache(8, 2)
    c.fill(1)
    assert c.invalidate(1)
    assert not c.contains(1)
    assert not c.invalidate(1)


def test_resident_lines_snapshot():
    c = Cache(4, 2)
    c.fill(0)
    c.fill(1)
    assert c.resident_lines() == {0, 1}


def test_invalid_geometry():
    with pytest.raises(ValueError):
        Cache(2, 4)
    with pytest.raises(ValueError):
        Cache(7, 2)


# ------------------------------------------------- lazy sets vs eager reference
class _EagerLRU:
    """Reference LRU with every set's list built up front."""

    def __init__(self, n_lines, assoc):
        self.n_sets = n_lines // assoc
        self.assoc = assoc
        self.sets = [[] for _ in range(self.n_sets)]

    def _ways(self, line):
        return self.sets[line % self.n_sets]

    def contains(self, line):
        return line in self._ways(line)

    def touch(self, line):
        ways = self._ways(line)
        if line not in ways:
            return False
        ways.remove(line)
        ways.append(line)
        return True

    def fill(self, line):
        ways = self._ways(line)
        if line in ways:
            ways.remove(line)
            ways.append(line)
            return None
        victim = ways.pop(0) if len(ways) >= self.assoc else None
        ways.append(line)
        return victim

    def invalidate(self, line):
        ways = self._ways(line)
        if line not in ways:
            return False
        ways.remove(line)
        return True

    def resident_lines(self):
        return {line for ways in self.sets for line in ways}


_TABLE_III = SimConfig()


@pytest.mark.parametrize("n_lines,assoc", [
    (4, 4),                                           # one set
    (8, 2),                                           # 4 sets x 2 ways
    (_TABLE_III.l1_lines, _TABLE_III.l1_assoc),       # 128 sets x 4 ways
    (_TABLE_III.l2_lines, _TABLE_III.l2_assoc),       # 2048 sets x 8 ways
])
@pytest.mark.parametrize("seed", range(4))
def test_lazy_sets_match_eager_reference(n_lines, assoc, seed):
    rng = random.Random(seed)
    cache, ref = Cache(n_lines, assoc), _EagerLRU(n_lines, assoc)
    n_sets = ref.n_sets
    # a few hot sets with more tags than ways force evictions even in the
    # 2048-set L2; the odd line anywhere keeps most sets never filled
    hot = [rng.randrange(n_sets) for _ in range(3)]

    def pick():
        if rng.random() < 0.1:
            return rng.randrange(4 * n_lines)
        return rng.choice(hot) + n_sets * rng.randrange(assoc + 3)

    missed = None   # line the previous op saw miss in a touch
    for _ in range(1500):
        op = rng.choice(("fill", "touch", "touch", "invalidate", "contains"))
        if missed is not None and rng.random() < 0.5:
            op, line = "fill_absent", missed
            got, want = cache.fill_absent(line), ref.fill(line)
        else:
            line = pick()
            got, want = getattr(cache, op)(line), getattr(ref, op)(line)
        assert got == want, (op, line)
        missed = line if op == "touch" and not got else None
        resident = ref.resident_lines()
        assert len(cache) == len(resident)
        assert cache.resident_lines() == resident


# ---------------------------------------------------------- setup cost guard
@pytest.mark.parametrize("mem_backend", MEM_BACKENDS)
def test_backend_caches_build_sets_on_first_fill(mem_backend):
    config = SimConfig(mem_backend=mem_backend)
    backend = create_backend(config)
    shared = backend.l2 if mem_backend == "mesi" else backend.llc
    caches = [*backend.l1, shared]
    assert all(len(c._sets) == 0 for c in caches)
    stats = CoreStats()
    words = config.words_per_line
    for k in range(1, 41):
        backend.access(k % config.n_cores, k * 37 * words, k % 3 == 0, stats)
        assert all(len(c._sets) <= k for c in caches)
    assert len(backend.l1[1]._sets) > 0
