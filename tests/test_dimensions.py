import itertools
import random
import re
import sys
from collections import Counter

import pytest

import dimkit as dk
import oracles
from corpus import random_table_class
from dimkit import dimensions
from dimkit.dimensions import _pseudo_cube_core
from dimkit.psi import all_encoders

C6_ROWS = [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (0, 5)]


def c6():
    return dk.class_from_tables(C6_ROWS, num_labels=6)


def three_hyp():
    return dk.class_from_tables([(0, 1), (1, 0), (2, 2)], num_labels=3)


# ------------------------------------------------------------- pseudo-cube

def test_boolean_cube_is_pseudo_cube():
    assert dk.is_pseudo_cube({(0, 0), (0, 1), (1, 0), (1, 1)})


def test_missing_neighbor_is_not_pseudo_cube():
    assert not dk.is_pseudo_cube({(0, 0), (0, 1)})


def test_six_cycle_is_pseudo_cube():
    assert oracles.pseudo_cube(C6_ROWS)  # direct definition, all 12 checks
    assert dk.is_pseudo_cube(C6_ROWS)


def test_pseudo_cube_rejects_mixed_arity():
    with pytest.raises(dk.PreconditionError):
        dk.is_pseudo_cube({(0, 0), (0,)})


def test_peeled_core_is_union_of_pseudo_cubes():
    rng = random.Random(2003)
    for _ in range(150):
        n = rng.randint(2, 3)
        q = rng.randint(2, 3)
        universe = list(itertools.product(range(q), repeat=n))
        pats = rng.sample(universe, rng.randint(1, min(10, len(universe))))
        union = oracles.pseudo_cube_union(pats)
        assert _pseudo_cube_core(pats) == union, pats
        assert dk.is_pseudo_cube(pats) == oracles.pseudo_cube(pats), pats
        if union:
            assert dk.is_pseudo_cube(union)


def test_six_cycle_minus_one_peels_to_nothing():
    # each removal leaves a neighbor alone on its line, all the way round
    for k in range(len(C6_ROWS)):
        rest = C6_ROWS[:k] + C6_ROWS[k + 1:]
        assert _pseudo_cube_core(rest) == frozenset()
        assert not dk.is_pseudo_cube(rest)
        assert not oracles.pseudo_cube(rest)


def _boxes_and_noise(rng, n, q):
    """Up to about 300 patterns: a few product boxes (pseudo-cubes when
    every side has two labels), some with a pattern taken out, plus noise."""
    pats = set()
    for _ in range(rng.randint(0, 3)):
        box = set(itertools.product(*(rng.sample(range(q), rng.randint(1, q))
                                      for _ in range(n))))
        if box and rng.random() < 0.3:
            box.discard(rng.choice(sorted(box)))
        pats |= box
    universe = q ** n
    for _ in range(rng.randint(0, min(40, universe))):
        pats.add(tuple(rng.randrange(q) for _ in range(n)))
    return sorted(pats)[:300]


@pytest.mark.parametrize("rounds", [0, 1, dimensions._SWEEP_ROUNDS])
def test_core_matches_the_worklist_peel_and_the_union_oracle(rounds, monkeypatch):
    # 0 rounds hands every input to the fallback peel, 1 round most of them
    monkeypatch.setattr(dimensions, "_SWEEP_ROUNDS", rounds)
    rng = random.Random(2314)
    nonempty = 0
    for _ in range(400):
        n, q = rng.randint(1, 5), rng.randint(2, 5)
        pats = _boxes_and_noise(rng, n, q)
        rng.shuffle(pats)
        core = _pseudo_cube_core(pats)
        assert core == oracles.pseudo_cube_core_reference(pats), (n, q, pats)
        nonempty += bool(core)
        assert dk.is_pseudo_cube(core) == bool(core)
        if len(pats) <= 10:
            assert core == oracles.pseudo_cube_union(pats), pats
        if len(pats) <= 60:  # the direct definition is quadratic
            assert dk.is_pseudo_cube(pats) == oracles.pseudo_cube(pats), pats
    assert 100 < nonempty < 400


def _counting_peel(monkeypatch):
    calls = []
    peel = dimensions._peel

    def spy(patterns, keys):
        calls.append(len(patterns))
        return peel(patterns, keys)

    monkeypatch.setattr(dimensions, "_peel", spy)
    return calls


def test_staircase_peels_to_nothing_through_the_fallback(monkeypatch):
    # each sweep of coordinate 0 or 1 drops only the two ends of the chain
    stairs = [(k, k + d) for k in range(10_000) for d in (0, 1)]
    calls = _counting_peel(monkeypatch)
    assert _pseudo_cube_core(stairs) == frozenset()
    assert len(calls) == 1 and calls[0] > 19_000


def test_long_even_cycle_stays_whole(monkeypatch):
    # the six-cycle widened to 2·10^4 patterns: (2k, 2k+1) ~ (2k+2, 2k+1)
    m = 10_000
    cycle = [(2 * k, 2 * k + 1) for k in range(m)]
    cycle += [((2 * k + 2) % (2 * m), 2 * k + 1) for k in range(m)]
    calls = _counting_peel(monkeypatch)
    assert _pseudo_cube_core(cycle) == frozenset(cycle)
    assert dk.is_pseudo_cube(cycle)
    assert calls == []
    # one pattern out, and the rest is a chain that peels away end by end
    assert _pseudo_cube_core(cycle[1:]) == frozenset()
    assert not dk.is_pseudo_cube(cycle[1:])


def test_core_of_small_arities():
    assert _pseudo_cube_core([]) == frozenset()
    assert _pseudo_cube_core([()]) == {()}
    assert _pseudo_cube_core([(3,)]) == frozenset()
    assert _pseudo_cube_core([(0,), (2,), (0,)]) == {(0,), (2,)}
    # fewer than 2^n patterns cannot hold a pseudo-cube
    assert _pseudo_cube_core([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]) == frozenset()


def test_is_pseudo_cube_edge_cases():
    assert not dk.is_pseudo_cube(set())
    assert dk.is_pseudo_cube({()})
    assert dk.is_pseudo_cube({(0,), (1,)})
    assert not dk.is_pseudo_cube({(1,)})
    with pytest.raises(dk.PreconditionError):
        dk.is_pseudo_cube({(0, 1), (0, 1, 2)})


# ------------------------------------------------------ shattering checks

def test_full_class_is_n_shattered_with_smallest_pair():
    cert = dk.is_n_shattered(dk.full_class(2, 3), (0, 1))
    assert cert is not None
    assert cert.payload == ((0, 0), (1, 1))


def test_three_patterns_cannot_n_shatter_two_points():
    assert oracles.n_shattered(three_hyp(), (0, 1)) is False
    assert dk.is_n_shattered(three_hyp(), (0, 1)) is None


def test_singleton_is_never_shattered():
    single = dk.class_from_tables([(1,)], num_labels=2)
    assert dk.is_n_shattered(single, (0,)) is None
    assert dk.is_g_shattered(single, (0,)) is None


def test_full_binary_class_graph_certificate():
    cert = dk.is_g_shattered(dk.full_class(2, 2), (0, 1))
    assert cert is not None and cert.payload == ((0, 0),)


def test_gap_class_graph_certificate_is_all_blank():
    entry = dk.gap_class(3)
    assert oracles.g_shattered(entry.cls, (0, 1, 2))
    cert = dk.is_g_shattered(entry.cls, (0, 1, 2))
    blank = 1 << 3
    assert cert.payload == ((blank, blank, blank),)


def test_six_cycle_ds_certificate_keeps_all_patterns():
    cert = dk.is_ds_shattered(c6(), (0, 1))
    assert cert is not None
    assert set(cert.payload[0]) == set(C6_ROWS)


def test_three_hyp_not_ds_shattered_on_pair():
    assert oracles.ds_shattered(three_hyp(), (0, 1)) is False
    assert dk.is_ds_shattered(three_hyp(), (0, 1)) is None


def test_two_labels_at_one_point_form_a_ds_certificate():
    cert = dk.is_ds_shattered(three_hyp(), (0,))
    assert cert is not None and len(cert.payload[0]) >= 2


def test_psi_shattering_picks_first_working_encoder():
    fam = dk.natarajan_family(3)
    cert = dk.is_psi_shattered(dk.full_class(1, 3), (0,), fam)
    assert cert is not None
    (psibar,) = cert.payload
    assert psibar[0].table == (1, 0, dk.STAR)


def test_all_star_family_shatters_nothing():
    fam = dk.PsiFamily(
        members=(dk.PsiFunction(table=(dk.STAR, dk.STAR)),), num_labels=2
    )
    assert dk.is_psi_shattered(dk.full_class(1, 2), (0,), fam) is None


def test_six_cycle_not_psi_n_shattered_on_pair():
    fam = dk.natarajan_family(6)
    assert oracles.psi_shattered(c6(), (0, 1), fam) is False
    assert dk.is_psi_shattered(c6(), (0, 1), fam) is None


# ------------------------------------------------------------ exact dims

def test_full_class_dimensions():
    full = dk.full_class(2, 3)
    assert dk.exact_dimension(full, "natarajan").value == 2
    assert dk.exact_dimension(full, "graph").value == 2


def test_six_cycle_dimensions():
    cls = c6()
    assert dk.exact_dimension(cls, "ds").value == 2
    assert dk.exact_dimension(cls, "natarajan").value == 1
    assert dk.exact_dimension(cls, "graph").value == 2


def test_singleton_graph_dimension_zero():
    single = dk.class_from_tables([(1, 0)], num_labels=2)
    res = dk.exact_dimension(single, "graph")
    assert res.value == 0 and res.certificate is None


def test_gap_class_dimension_separation():
    entry = dk.gap_class(3)
    assert dk.exact_dimension(entry.cls, "natarajan").value == 1
    assert dk.exact_dimension(entry.cls, "graph").value == 3


def test_vc_requires_binary_alphabet():
    with pytest.raises(dk.PreconditionError):
        dk.exact_dimension(three_hyp(), "vc")
    assert dk.exact_dimension(dk.full_class(3, 2), "vc").value == 3


def test_window_warning_when_supports_are_out_of_reach():
    cls = dk.class_from_supports([{10: 1}, {11: 1}], num_labels=2)
    res = dk.exact_dimension(cls, "natarajan", window=5)
    assert res.value == 0 and res.warning is not None


def test_oracle_class_requires_window():
    oracle = dk.HypothesisClass(num_labels=2, behavior_fn=lambda pts: {(0,) * len(pts)})
    with pytest.raises(dk.PreconditionError):
        dk.exact_dimension(oracle, "natarajan")
    assert dk.exact_dimension(oracle, "natarajan", window=3).value == 0


def test_window_past_the_supports_is_capped():
    cls = dk.class_from_supports([{0: 1, 2: 2}, {1: 2}, {2: 1}], num_labels=3)
    for kind in ("natarajan", "graph", "ds"):
        want = dk.exact_dimension(cls, kind, window=3)
        for window in (2 ** 70, 100_000):
            assert dk.exact_dimension(cls, kind, window=window) == want, (kind, window)
    fam = dk.natarajan_family(3)
    assert (dk.exact_dimension(cls, "psi", psi=fam, window=2 ** 70)
            == dk.exact_dimension(cls, "psi", psi=fam, window=3))


def test_oracle_window_past_maxsize_is_rejected():
    oracle = dk.HypothesisClass(num_labels=2, behavior_fn=lambda pts: {(0,) * len(pts)})
    for window in (sys.maxsize, 2 ** 70):
        with pytest.raises(dk.PreconditionError):
            dk.exact_dimension(oracle, "natarajan", window=window)


# ------------------------------------------------- randomized cross-checks

def test_shattering_agrees_with_bruteforce_oracles():
    rng = random.Random(20250811)
    for _ in range(60):
        n = rng.randint(1, 3)
        q = rng.choice((2, 3))
        cls = random_table_class(rng, n, q, 8)
        points = tuple(range(n))
        assert (dk.is_n_shattered(cls, points) is not None) == oracles.n_shattered(cls, points)
        assert (dk.is_g_shattered(cls, points) is not None) == oracles.g_shattered(cls, points)
        assert (dk.is_ds_shattered(cls, points) is not None) == oracles.ds_shattered(cls, points)
        fam = dk.natarajan_family(q)
        assert (dk.is_psi_shattered(cls, points, fam) is not None) == oracles.psi_shattered(cls, points, fam)


def test_exact_dimension_agrees_with_bruteforce():
    rng = random.Random(99)
    for _ in range(25):
        cls = random_table_class(rng, rng.randint(1, 3), rng.choice((2, 3)), 8)
        window = cls.domain_size - 1
        for kind in ("natarajan", "graph", "ds"):
            assert dk.exact_dimension(cls, kind).value == oracles.dimension(cls, kind, window)


def _sparse_class(rng, window, q, count):
    """Explicit class over the naturals; each hypothesis is nonzero on at
    most two points of [0, window]."""
    supports = set()
    while len(supports) < count:
        xs = rng.sample(range(window + 1), rng.randint(0, 2))
        supports.add(tuple(sorted((x, rng.randint(1, q - 1)) for x in xs)))
    return dk.class_from_supports(sorted(supports), num_labels=q)


def _oracle_class(rows, q):
    """The same behaviors as the table class of ``rows``, through an oracle."""
    return dk.HypothesisClass(
        num_labels=q, behavior_fn=lambda pts: {tuple(r[x] for x in pts) for r in rows})


def test_exact_dimension_matches_bruteforce_on_wide_windows(monkeypatch):
    calls = []
    for name in ("is_ds_shattered", "_encoded_search"):
        shatter = getattr(dimensions, name)
        monkeypatch.setattr(dimensions, name,
                            lambda *a, shatter=shatter: calls.append(a[1]) or shatter(*a))
    rng = random.Random(4242)
    cases = []
    for _ in range(4):
        cls = random_table_class(rng, rng.randint(5, 6), rng.choice((2, 3)), 9)
        cases.append((cls, None))
        cases.append((_sparse_class(rng, rng.randint(4, 5), rng.choice((2, 3)), 9), None))
    # point 0 is constant here, so every candidate containing it is pruned
    rows = [(0,) + r for r in itertools.product((0, 1), repeat=2)] + [(0, 2, 2)]
    cases.append((dk.class_from_tables([r + (0, 1) for r in rows], num_labels=3), None))
    # a six-cycle on points 1 and 2: DS dimension 2, Natarajan dimension 1
    cycle = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)]
    cases.append((dk.class_from_tables([(0, x, y, (x + y) % 3, 1) for x, y in cycle],
                                       num_labels=3), None))
    oracle_rows = [r + (1, 0) for r in rows] + [(0, 1, 1, 2, 2)]
    cases.append((_oracle_class(oracle_rows, 3), 4))
    pruned = 0
    for cls, window in cases:
        q = cls.num_labels
        kinds = [(kind, None) for kind in ("natarajan", "graph", "ds")]
        kinds += [("psi", dk.natarajan_family(q)), ("psi", dk.graph_family(q))]
        if q == 2:
            kinds.append(("vc", None))
        top = window if window is not None else dimensions._default_window(cls)
        for kind, fam in kinds:
            del calls[:]
            res = dk.exact_dimension(cls, kind, psi=fam, window=window)
            tests_without_pruning = 0
            value = 0
            for size in range(1, top + 2):
                first = oracles.first_shattered(cls, kind, top, size, fam)
                combos = list(itertools.combinations(range(top + 1), size))
                tests_without_pruning += len(combos) if first is None else combos.index(first) + 1
                if first is None:
                    break
                value = size
                if size == res.value:
                    assert res.certificate.points == first, (kind, first)
            assert res.value == value, (kind, cls)
            assert (res.certificate is None) == (value == 0)
            assert calls == sorted(set(calls), key=lambda p: (len(p), p))
            assert len(calls) <= tests_without_pruning
            pruned += tests_without_pruning - len(calls)
    assert pruned > 0


def test_prefix_walk_matches_bruteforce_where_whole_prefixes_die(monkeypatch):
    """Seeded explicit classes, dense and over the naturals, with windows of
    up to 17 points and few hypotheses, so that many prefix nodes have no
    search state left: the value, the certificate's points and its payload
    equal the brute-force ones for every coverage kind."""
    dead, walk = [], dimensions._first_shattered

    def spy(size, pool, below, failed, root, grow, leaf):
        def counted(states, node, need):
            child = grow(states, node, need)
            dead.append(child is None)
            return child
        return walk(size, pool, below, failed, root, counted, leaf)
    monkeypatch.setattr(dimensions, "_first_shattered", spy)
    rng = random.Random(26)
    for q, trials, widest in ((2, 12, 16), (3, 6, 12), (4, 3, 6), (5, 2, 5)):
        for _ in range(trials):
            top = rng.randint(3, widest)
            count = rng.randint(2, 7)
            if rng.random() < 0.5:
                rows = {tuple(rng.randrange(q) for _ in range(top + 1)) for _ in range(count)}
                cls = dk.class_from_tables(sorted(rows), num_labels=q)
            else:
                cls = _sparse_class(rng, top, q, count)
            top = dimensions._default_window(cls)
            for kind, fam in _coverage_kinds(q) + [("psi", _random_psi_family(rng, q))]:
                res = dk.exact_dimension(cls, kind, psi=fam)
                value = oracles.dimension(cls, kind, top, fam)
                assert res.value == value, (kind, fam, cls)
                if value:
                    pts = oracles.first_shattered(cls, kind, top, value, fam)
                    assert res.certificate.points == pts, (kind, fam, cls)
                    assert res.certificate.payload == oracles.first_certificate(
                        cls, pts, kind, fam), (kind, fam, cls)
    assert sum(dead) > len(dead) // 2


def test_prefix_walk_builds_each_table_image_once(monkeypatch):
    # each point's images are built on its first use and kept for the call,
    # not rebuilt for every candidate that contains the point
    built = Counter()
    image = dimensions._encoder_image
    monkeypatch.setattr(dimensions, "_encoder_image", lambda column, table: built.update(
        [(id(column), tuple(sorted(table.items())))]) or image(column, table))
    rng = random.Random(1994)
    for _ in range(6):
        q = rng.choice((2, 3))
        rows = {tuple(rng.randrange(q) for _ in range(8)) for _ in range(rng.randint(8, 24))}
        cls = dk.class_from_tables(sorted(rows), num_labels=q)
        for kind, fam in _coverage_kinds(q):
            built.clear()
            dk.exact_dimension(cls, kind, psi=fam)
            assert built and max(built.values()) == 1, (kind, rows)


def _random_states(rng, members, depth):
    """A few coverage states over ``depth`` coordinates: each member is coded
    by one of the 2^depth prefix codes, or left out as if it hit a star."""
    states = []
    for k in range(rng.randint(0, 4)):
        cells = [0] * (1 << depth)
        for member in range(members):
            if rng.random() < 0.9:
                cells[rng.randrange(len(cells))] |= 1 << member
        states.append((tuple(range(k, k + depth)), cells))
    return states


def _random_images(rng, members):
    """A few (zero, one, meta) images: disjoint halves of the members."""
    images = []
    for meta in range(rng.randint(0, 5)):
        zero = one = 0
        for member in range(members):
            side = rng.randrange(3)
            zero |= (side == 0) << member
            one |= (side == 1) << member
        images.append((zero, one, meta))
    return images


def test_extend_yields_the_eager_steps_states_in_order():
    """Over random states and images, and every bound an n-point search
    sets at a depth (1 up to 2^(n-1)), the fail-fast step yields the same
    (metas, cells) sequence as the eager reference, which builds and counts
    every cell of every child."""
    rng = random.Random(35)
    outcomes = Counter()
    for _ in range(300):
        members, n = rng.randint(1, 24), rng.randint(1, 5)
        depth = rng.randrange(n)
        states, images = _random_states(rng, members, depth), _random_images(rng, members)
        for need in range(1, (1 << (n - 1)) + 1):
            got = list(dimensions._extend(iter(states), images, need))
            assert got == list(oracles.extend_reference(states, images, need)), (
                states, images, need)
            if states and images:
                pairs = len(states) * len(images)
                outcomes["none" if not got else "all" if len(got) == pairs else "some"] += 1
    assert set(outcomes) == {"none", "some", "all"}, outcomes
    # a hand-made step where every pair passes, then none at a bound one higher
    states = [((), [0xFF])]
    images = [(0x0F, 0xF0, "a"), (0x33, 0xCC, "b"), (0x55, 0xAA, "c")]
    passing = list(dimensions._extend(iter(states), images, 4))
    assert [metas for metas, _ in passing] == [("a",), ("b",), ("c",)]
    assert passing == list(oracles.extend_reference(states, images, 4))
    assert list(dimensions._extend(iter(states), images, 5)) == []


class _CountingMask(int):
    """An image half that counts the ANDs taken with it."""

    def __new__(cls, value):
        mask = super().__new__(cls, value)
        mask.ands = 0
        return mask

    def __and__(self, other):
        self.ands += 1
        return int(self) & other


def test_extend_stops_a_pair_at_its_first_thin_cell():
    """A pair costs one AND per cell tested, up to its first thin cell, and
    a failing pair builds no child, which would AND every cell again."""
    cells = [0b0011, 0b1100, 0b0101, 0b1010]  # a state over 2 coordinates

    def step(zero, one, need):
        zero, one = _CountingMask(zero), _CountingMask(one)
        got = list(dimensions._extend(iter([((), cells)]), [(zero, one, "m")], need))
        return len(got), zero.ands, one.ands

    # thin at the first cell of the zero half: one AND, the one half untouched
    assert step(0b0000, 0b1111, 1) == (0, 1, 0)
    # thin at the third cell: three ANDs
    assert step(0b1010, 0b1111, 1) == (0, 3, 0)
    # the zero half passes, the one half is thin at its second cell
    assert step(0b1111, 0b0011, 1) == (0, 4, 2)
    # a passing pair tests each half's four cells, then builds its eight
    assert step(0b1001, 0b0110, 1) == (1, 8, 8)
    # the same pair fails at the first cell when each cell needs two members
    assert step(0b1001, 0b0110, 2) == (0, 1, 0)


def _spy_on_leaves(monkeypatch):
    """The candidates ``exact_dimension``'s prefix walks test at their
    leaves, in order.  The one-candidate walks of the single-subset
    predicates, which a leaf on an oracle class starts, go uncounted."""
    leaves, walk = [], dimensions._first_shattered

    def spy(size, pool, below, failed, root, grow, leaf):
        if type(pool) is not range:
            return walk(size, pool, below, failed, root, grow, leaf)
        return walk(size, pool, below, failed, root, grow,
                    lambda states, node: leaves.append(node) or leaf(states, node))
    monkeypatch.setattr(dimensions, "_first_shattered", spy)
    return leaves


def test_face_pruning_skips_subsets_with_an_unshattered_face(monkeypatch):
    # point 0 is constant, so every candidate containing it has the
    # unshattered face (0,) and is skipped; the certificate is still the
    # first pair.  DS and oracle classes test each leaf with the predicate of
    # their kind, and the walk tests the leaves of an explicit class on its
    # own states
    tested = []
    for name in ("is_ds_shattered", "_encoded_search"):
        shatter = getattr(dimensions, name)
        monkeypatch.setattr(dimensions, name,
                            lambda *a, shatter=shatter: tested.append(a[1]) or shatter(*a))
    leaves = _spy_on_leaves(monkeypatch)
    rows = [(0, a, b) for a in (0, 1) for b in (0, 1)]
    explicit = dk.class_from_tables(rows, num_labels=2)
    for cls, kind, window in ((explicit, "natarajan", None), (explicit, "ds", None),
                              (_oracle_class(rows, 2), "natarajan", 2)):
        del tested[:], leaves[:]
        res = dk.exact_dimension(cls, kind, window=window)
        assert res.value == 2 and res.certificate.points == (1, 2)
        # (0, 1, 2) has the skipped face (0, 1)
        assert leaves == [(0,), (1,), (1, 2)], kind
        assert tested == ([] if cls is explicit and kind != "ds" else leaves), kind
    assert not oracles.n_shattered(explicit, (0, 1))


def test_monotonicity_of_shattering():
    rng = random.Random(7)
    for _ in range(40):
        cls = random_table_class(rng, 4, rng.choice((2, 3)), 12)
        for kind, check in (
            ("natarajan", dk.is_n_shattered),
            ("graph", dk.is_g_shattered),
            ("ds", dk.is_ds_shattered),
        ):
            shattered = {
                pts
                for r in range(1, 5)
                for pts in itertools.combinations(range(4), r)
                if check(cls, pts) is not None
            }
            for pts in shattered:
                for r in range(1, len(pts)):
                    for sub in itertools.combinations(pts, r):
                        assert sub in shattered, (kind, pts, sub)


def test_binary_classes_have_coinciding_dimensions():
    rng = random.Random(13)
    for _ in range(40):
        cls = random_table_class(rng, rng.randint(1, 4), 2, 16)
        dims = {
            kind: dk.exact_dimension(cls, kind).value
            for kind in ("vc", "natarajan", "graph", "ds")
        }
        assert len(set(dims.values())) == 1, dims


def test_dimension_order_and_psi_instantiation():
    rng = random.Random(21)
    for _ in range(30):
        cls = random_table_class(rng, rng.randint(1, 4), rng.choice((2, 3, 4)), 16)
        n = dk.exact_dimension(cls, "natarajan").value
        g = dk.exact_dimension(cls, "graph").value
        ds = dk.exact_dimension(cls, "ds").value
        assert n <= g and n <= ds
        q = cls.num_labels
        assert dk.exact_dimension(cls, "psi", psi=dk.natarajan_family(q)).value == n
        assert dk.exact_dimension(cls, "psi", psi=dk.graph_family(q)).value == g


def test_certificates_reverify_and_avoid_constant_points():
    rng = random.Random(5)
    fam_cache = {}
    for _ in range(40):
        cls = random_table_class(rng, rng.randint(1, 4), rng.choice((2, 3)), 12)
        q = cls.num_labels
        fam = fam_cache.setdefault(q, dk.natarajan_family(q))
        for kind in ("natarajan", "graph", "ds", "psi"):
            res = dk.exact_dimension(cls, kind, psi=fam if kind == "psi" else None)
            if res.certificate is None:
                continue
            assert dk.verify_certificate(res.certificate, cls)
            for x in res.certificate.points:
                assert len(dk.restrict(cls, (x,))) >= 2


def test_certificates_equal_first_bruteforce_certificate():
    rng = random.Random(1995)
    searches = {"vc": dk.is_vc_shattered, "natarajan": dk.is_n_shattered,
                "graph": dk.is_g_shattered}
    for _ in range(40):
        cls = random_table_class(rng, rng.randint(1, 3), rng.choice((2, 3, 4)), 16)
        q = cls.num_labels
        families = (dk.natarajan_family(q), dk.graph_family(q))
        for r in range(1, cls.domain_size + 1):
            for pts in itertools.combinations(range(cls.domain_size), r):
                for kind, search in searches.items():
                    if kind == "vc" and q != 2:
                        continue
                    cert = search(cls, pts)
                    got = None if cert is None else cert.payload
                    assert got == oracles.first_certificate(cls, pts, kind), (kind, pts)
                for fam in families:
                    cert = dk.is_psi_shattered(cls, pts, fam)
                    got = None if cert is None else cert.payload
                    assert got == oracles.first_certificate(cls, pts, "psi", fam)


def _random_encoder(rng, q):
    return tuple(rng.randint(0, 1) if rng.random() < 0.8 else dk.STAR for _ in range(q))


def _family_choices(fam):
    """A family's (table, member) pairs as ``oracles.first_cover`` takes
    them at each coordinate: the member's binary table, stars left out."""
    return [({v: b for v, b in enumerate(psi.table) if b != dk.STAR}, psi) for psi in fam.members]


def _drawn_class(pats, q):
    """An oracle class whose behaviors on any points are ``pats``."""
    return dk.HypothesisClass(num_labels=q, behavior_fn=lambda pts: pats)


def _plant_cover(rng, pats, tables, labels):
    """Add to ``pats`` a preimage, over ``labels``, of every code under
    ``tables`` (one per coordinate)."""
    for code in itertools.product((0, 1), repeat=len(tables)):
        pats.add(tuple(rng.choice([v for v in labels if t.get(v) == c])
                       for t, c in zip(tables, code)))


def test_psi_shattering_matches_product_and_cover():
    """Drawn behaviors on an oracle class, through ``is_psi_shattered`` on
    a random point tuple, against the first cover of the full product of
    the family's tables: random families with stars, complements, and
    members that differ only at one label, which agree on every realized
    label when the drawn patterns leave that label out.  Half the time a
    cover is planted under one random table per coordinate."""
    rng = random.Random(2718)
    for _ in range(600):
        n = rng.randint(1, 4)
        q = rng.randint(2, 4)
        fam = _random_psi_family(rng, q)
        choices = [_family_choices(fam)] * n
        labels = sorted(rng.sample(range(q), rng.randint(1, q)))
        cube = list(itertools.product(labels, repeat=n))
        pats = set(rng.sample(cube, rng.randint(0, min(len(cube), 12))))
        planted = [t for t, _ in choices[0] if {t.get(v) for v in labels} >= {0, 1}]
        if rng.random() < 0.5 and planted:
            _plant_cover(rng, pats, [rng.choice(planted) for _ in range(n)], labels)
        pats = tuple(sorted(pats))
        cls = _drawn_class(pats, q)
        pts = tuple(rng.sample(range(8), n))
        cert = dk.is_psi_shattered(cls, pts, fam)
        want = oracles.first_cover(pats, choices)
        payload = None if want is None else (want,)
        assert oracles.first_certificate(cls, pts, "psi", fam) == payload
        assert cert == (None if payload is None else dk.ShatterCertificate(
            kind="psi", points=pts, payload=payload)), (pats, fam)


def test_psi_shattering_counting_bound_prunes_dense_sets():
    """Dense pattern sets (at least 2^n of them) at arities 4-6, where the
    cells pass the emptiness test but not always the counting bound: some
    with a planted cover, some with every preimage of one code under the
    planted tables removed.  Members are partial and complemented."""
    rng = random.Random(4096)
    pruned = planted_found = 0
    for trial in range(60):
        n = rng.randint(4, 6)
        q = rng.randint(2, 3)
        t = ()
        while not {0, 1} <= set(t):
            t = _random_encoder(rng, q)
        members = [t, tuple(b if b == dk.STAR else 1 - b for b in t), _random_encoder(rng, q)]
        rng.shuffle(members)
        fam = dk.PsiFamily(members=tuple(map(dk.PsiFunction, members)), num_labels=q)
        choices = [_family_choices(fam)] * n
        cube = list(itertools.product(range(q), repeat=n))
        pats = set(rng.sample(cube, min(len(cube), (1 << n) + rng.randint(0, 1 << n))))
        planted = [rng.choice([t for t, _ in choices[0] if len(set(t.values())) == 2])
                   for _ in range(n)]
        if trial % 2:
            _plant_cover(rng, pats, planted, range(q))
        else:
            hole = tuple(rng.randint(0, 1) for _ in range(n))
            pats = {p for p in pats if tuple(t.get(v) for t, v in zip(planted, p)) != hole}
        pats = tuple(sorted(pats))
        cls = _drawn_class(pats, q)
        cert = dk.is_psi_shattered(cls, range(n), fam)
        want = oracles.first_cover(pats, choices)
        assert (None if cert is None else cert.payload) == (
            None if want is None else (want,)), (pats, fam)
        planted_found += want is not None
        # the bound is live: some first-level choice leaves every cell
        # nonempty yet one below the 2^(n-1) it needs
        index = dk.restrict(cls, range(n)).index[0]
        for table, _ in choices[0]:
            cells = [sum(index.get(v, 0) for v, b in table.items() if b == c).bit_count()
                     for c in (0, 1)]
            pruned += 0 < min(cells) < 1 << (n - 1)
    assert planted_found and pruned


def test_arity_five_certificates_equal_first_bruteforce_certificate():
    """Seeded classes with at least 2^5 behaviors on five points, where the
    counting bound is checked at every depth of a five-level search."""
    rng = random.Random(55)
    pts = tuple(range(5))
    answers = set()
    for _ in range(6):
        q = rng.choice((2, 3))
        cube = list(itertools.product(range(q), repeat=5))
        cls = dk.class_from_tables(sorted(rng.sample(cube, rng.randint(32, min(len(cube), 80)))), q)
        for kind, search in (("natarajan", dk.is_n_shattered), ("graph", dk.is_g_shattered)):
            cert = search(cls, pts)
            got = None if cert is None else cert.payload
            assert got == oracles.first_certificate(cls, pts, kind), (kind, cls)
            answers.add(got is None)
        for fam in (dk.natarajan_family(q), dk.graph_family(q)):
            cert = dk.is_psi_shattered(cls, pts, fam)
            got = None if cert is None else cert.payload
            assert got == oracles.first_certificate(cls, pts, "psi", fam), (fam, cls)
    assert answers == {True, False}


def _random_psi_family(rng, q):
    """Random {0,1,*} members, shuffled together with complements of some,
    copies differing only at one label, and members that take one value
    off the stars (constant on every set of realized labels)."""
    tables = [tuple(rng.choice((0, 1, dk.STAR)) for _ in range(q))
              for _ in range(rng.randint(1, 4))]
    for t in list(tables):
        if rng.random() < 0.6:
            tables.append(tuple(v if v == dk.STAR else 1 - v for v in t))
        if rng.random() < 0.4:
            y = rng.randrange(q)
            tables.append(t[:y] + (rng.choice((0, 1, dk.STAR)),) + t[y + 1:])
    if rng.random() < 0.5:
        b = rng.randint(0, 1)
        tables.append(tuple(rng.choice((b, dk.STAR)) for _ in range(q)))
    rng.shuffle(tables)
    return dk.PsiFamily(members=tuple(dk.PsiFunction(table=t) for t in tables), num_labels=q)


def _restricted_choices(kind, vals, fam):
    """A coordinate's (table, meta) pairs with the graph and Ψ tables
    restricted to its sorted realized labels ``vals``."""
    if kind == "vc":
        return [({0: 0, 1: 1}, None)]
    if kind == "natarajan":
        return [({a: 1, b: 0}, (a, b)) for a, b in itertools.combinations(vals, 2)]
    if kind == "graph":
        return [({v: int(v == k) for v in vals}, k) for k in vals]
    return [({v: b for v, b in enumerate(m.table) if v in vals and b != dk.STAR}, m)
            for m in fam.members]


def _image(column, table):
    """The masks of the members a binary table codes 0 and 1 at a column."""
    return tuple(sum(column.get(v, 0) for v, b in table.items() if b == bit) for bit in (0, 1))


def test_table_images_keep_the_reference_distinct_tables():
    """``_table_images`` drops a table whose image equals, or swaps the
    halves of, an earlier kept image.  It keeps the (zero, one, meta) of
    exactly the tables ``oracles.distinct_tables`` keeps among the tables
    restricted to the realized labels, in the same order: for every coverage
    kind, on hypothesis masks and on behavior indexes, with random families
    (stars, complements, members equal on the realized labels, members
    constant off their stars) and alphabets of up to 30 labels of which a
    few are realized."""
    rng = random.Random(5150)
    compared = dropped = 0
    for _ in range(150):
        q = rng.choice((2, 3, 4, 5, 30))
        n = rng.randint(1, 4)
        used = [rng.sample(range(q), rng.randint(1, min(q, 4))) for _ in range(n)]
        rows = {tuple(map(rng.choice, used)) for _ in range(rng.randint(1, 12))}
        cls = dk.class_from_tables(sorted(rows), num_labels=q)
        pts = tuple(rng.sample(range(n), rng.randint(1, n)))
        columns = dimensions._hypothesis_masks(cls, pts) + dk.restrict(cls, pts).index
        kinds = [("natarajan", None), ("graph", None), ("psi", _random_psi_family(rng, q))]
        if q <= 5:
            kinds += [("psi", dk.natarajan_family(q)), ("psi", dk.graph_family(q))]
        if q == 2:
            kinds.append(("vc", None))
        for kind, fam in kinds:
            encoders, _ = dimensions._coverage_kind(cls, kind, fam)
            for column in columns:
                vals = sorted(column)
                restricted = _restricted_choices(kind, vals, fam)
                want = [_image(column, table) + (meta,)
                        for table, meta in oracles.distinct_tables(restricted)
                        if all(_image(column, table))]
                got = dimensions._table_images(column, encoders(vals))
                assert got == want, (kind, column)
                compared += 1
                dropped += len(want) < sum(all(_image(column, t)) for t, _ in restricted)
    assert compared > 1000 and dropped > 100


def test_psi_certificates_with_complementary_and_restricted_equal_members():
    rng = random.Random(31415)
    for _ in range(150):
        q = rng.randint(2, 4)
        cls = random_table_class(rng, rng.randint(1, 3), q, 16)
        fam = _random_psi_family(rng, q)
        for r in range(1, cls.domain_size + 1):
            for pts in itertools.combinations(range(cls.domain_size), r):
                cert = dk.is_psi_shattered(cls, pts, fam)
                got = None if cert is None else cert.payload
                assert got == oracles.first_certificate(cls, pts, "psi", fam), (fam, pts)
        res = dk.exact_dimension(cls, "psi", psi=fam)
        assert res.value == oracles.dimension(cls, "psi", cls.domain_size - 1, fam)
        if res.certificate is not None:
            assert dk.verify_certificate(res.certificate, cls)


def _coverage_kinds(q):
    kinds = [("natarajan", None), ("graph", None),
             ("psi", dk.natarajan_family(q)), ("psi", dk.graph_family(q))]
    return kinds + [("vc", None)] if q == 2 else kinds


def _forged(rng, cert, q):
    """A copy of a coverage certificate with one coordinate of its payload
    replaced by another label, label pair or family member."""
    i = rng.randrange(len(cert.points))
    if cert.kind == "natarajan":
        g1, g2 = map(list, cert.payload)
        g1[i], g2[i] = rng.sample(range(q), 2)
        payload = (tuple(g1), tuple(g2))
    elif cert.kind == "graph":
        f = list(cert.payload[0])
        f[i] = rng.randrange(q)
        payload = (tuple(f),)
    else:
        psibar = list(cert.payload[0])
        psibar[i] = dk.PsiFunction(table=tuple(rng.choice((0, 1, dk.STAR)) for _ in range(q)))
        payload = (tuple(psibar),)
    return dk.ShatterCertificate(cert.kind, cert.points, payload)


def test_hypothesis_masks_and_behavior_masks_give_the_same_answers():
    """Explicit classes are searched on per-hypothesis masks and oracle
    classes on per-behavior masks.  Seeded classes with many hypotheses per
    behavior on the projected points, wrapped as oracles, must give the same
    dimensions, certificates and verdicts both ways, and the first brute-force
    certificate."""
    rng = random.Random(1909)
    forged_true = forged_false = 0
    for _ in range(12):
        q = rng.choice((2, 3))
        n = rng.randint(4, 5)
        rows = sorted(rng.sample(list(itertools.product(range(q), repeat=n)),
                                 rng.randint(12, min(q ** n, 60))))
        explicit = dk.class_from_tables(rows, num_labels=q)
        oracle = dk.HypothesisClass(num_labels=q, domain_size=n,
                                    behavior_fn=_oracle_class(rows, q).behavior_fn)
        for kind, fam in _coverage_kinds(q):
            res = dk.exact_dimension(explicit, kind, psi=fam)
            assert res == dk.exact_dimension(oracle, kind, psi=fam), (kind, rows)
            for pts in itertools.combinations(range(n), 2):
                certs = [dimensions._encoded_search(c, pts, kind, fam) for c in (explicit, oracle)]
                assert certs[0] == certs[1]
                want = oracles.first_certificate(explicit, pts, kind, fam)
                assert (None if certs[0] is None else certs[0].payload) == want, (kind, pts)
            cert = res.certificate
            if cert is None:
                continue
            assert cert.payload == oracles.first_certificate(explicit, cert.points, kind, fam)
            assert dk.verify_certificate(cert, explicit) and dk.verify_certificate(cert, oracle)
            if kind == "vc":
                continue
            for _ in range(4):
                forged = _forged(rng, cert, q)
                verdict = dk.verify_certificate(forged, explicit)
                assert verdict == dk.verify_certificate(forged, oracle), forged
                forged_true += verdict
                forged_false += not verdict
        for bad in ((0, n), (n + 3,)):
            want = f"point {bad[-1]} outside domain [0,{n})"
            for cls in (explicit, oracle):
                with pytest.raises(dk.DomainError, match=re.escape(want)):
                    dk.is_n_shattered(cls, bad)
                with pytest.raises(dk.DomainError, match=re.escape(want)):
                    dk.verify_certificate(dk.ShatterCertificate("graph", bad, ((0,) * len(bad),)),
                                          cls)
                with pytest.raises(dk.PreconditionError, match=re.escape("duplicate points")):
                    dk.verify_certificate(dk.ShatterCertificate("graph", (1, 1), ((0, 0),)), cls)
    assert forged_true and forged_false


def test_coverage_kinds_do_not_project_explicit_classes(monkeypatch):
    # explicit classes are searched on their cached hypothesis masks, so only
    # DS projects them, once per tested candidate; oracle classes are
    # projected for every kind
    restricts, tested = [], []
    restrict = dimensions.restrict
    monkeypatch.setattr(dimensions, "restrict",
                        lambda cls, pts: restricts.append(pts) or restrict(cls, pts))
    for name in ("is_ds_shattered", "_encoded_search"):
        shatter = getattr(dimensions, name)
        monkeypatch.setattr(dimensions, name,
                            lambda *a, shatter=shatter: tested.append(a[1]) or shatter(*a))
    # the full cube on points 0-2, with point 3 a copy of point 0
    rows = [r + (r[0],) for r in itertools.product((0, 1), repeat=3)]
    explicit = dk.class_from_tables(rows, num_labels=2)
    oracle = _oracle_class(rows, 2)
    for kind, fam in _coverage_kinds(2) + [("ds", None)]:
        for cls, window in ((explicit, None), (oracle, 3)):
            del restricts[:], tested[:]
            assert dk.exact_dimension(cls, kind, psi=fam, window=window).value == 3
            if kind == "ds" or cls is oracle:
                assert restricts == tested and tested, (kind, window)
            else:
                assert restricts == tested == [], kind
    del restricts[:]
    cert = dk.is_n_shattered(explicit, (0, 1, 2))
    assert restricts == []
    # the certificate check projects every class, independently of the masks
    assert dk.verify_certificate(cert, explicit) and restricts == [(0, 1, 2)]
    assert dk.verify_certificate(cert, oracle) and restricts == [(0, 1, 2)] * 2


def test_oracle_dimension_builds_coverage_tables_once_per_call(monkeypatch):
    # every leaf of an oracle class's walk tests its candidate with the
    # tables built once, before the walk, and finds the brute-force answer
    calls = []
    coverage_kind = dimensions._coverage_kind
    monkeypatch.setattr(dimensions, "_coverage_kind",
                        lambda *a: calls.append(a[1]) or coverage_kind(*a))
    rng = random.Random(89)
    for _ in range(3):
        q, n = rng.choice((2, 3)), rng.randint(4, 5)
        rows = rng.sample(list(itertools.product(range(q), repeat=n)), rng.randint(8, 20))
        oracle = _oracle_class(rows, q)
        for kind, fam in _coverage_kinds(q):
            del calls[:]
            res = dk.exact_dimension(oracle, kind, psi=fam, window=n - 1)
            assert calls == [kind]
            assert res.value == oracles.dimension(oracle, kind, n - 1, fam), (kind, rows)
            cert = res.certificate
            if res.value:
                points = oracles.first_shattered(oracle, kind, n - 1, res.value, fam)
                assert cert.points == points
                assert cert.payload == oracles.first_certificate(oracle, points, kind, fam)
            else:
                assert cert is None


def test_verify_certificate_rejects_certificates_found_on_corrupted_masks(monkeypatch):
    # with bit 0 ORed into every mask, hypothesis 0 takes every label at
    # every point and fills any missing code, so the search finds wrong
    # certificates; the check reads the class's behaviors instead
    rows = [(0, 0), (0, 1), (1, 0)]
    cls = dk.class_from_tables(rows, num_labels=2)
    kinds = _coverage_kinds(2)
    assert {dk.exact_dimension(cls, kind, psi=fam).value for kind, fam in kinds} == {1}
    masks = dimensions._hypothesis_masks
    monkeypatch.setattr(dimensions, "_hypothesis_masks", lambda cls, pts: tuple(
        {v: m | 1 for v, m in column.items()} for column in masks(cls, pts)))
    certs = [dk.exact_dimension(cls, kind, psi=fam).certificate for kind, fam in kinds]
    assert [cert.points for cert in certs] == [(0, 1)] * len(kinds)

    def engine(*args):
        raise AssertionError("the certificate check ran the coverage engine")
    for name in ("_first_shattered", "_coverage_steps", "_extend", "_hypothesis_masks"):
        monkeypatch.setattr(dimensions, name, engine)
    for cert in certs:
        assert not dk.verify_certificate(cert, cls), cert


def test_shattering_of_an_oracle_class_with_no_behaviors():
    empty = dk.HypothesisClass(num_labels=2, behavior_fn=lambda pts: set())
    assert dk.is_n_shattered(empty, (0,)) is None
    assert dk.is_psi_shattered(empty, (0, 1), dk.natarajan_family(2)) is None


def _random_distinguisher(rng, q):
    members = {tuple(rng.choice((0, 1, dk.STAR)) for _ in range(q))
               for _ in range(rng.randint(1, 4))}
    # separate every label pair that no member separates yet
    for y, yp in itertools.combinations(range(q), 2):
        if not any({t[y], t[yp]} == {0, 1} for t in members):
            members.add(tuple(1 if v == y else 0 if v == yp else rng.choice((0, 1, dk.STAR))
                              for v in range(q)))
    fam = dk.PsiFamily(members=tuple(dk.PsiFunction(table=t) for t in sorted(members)),
                       num_labels=q)
    assert dk.is_distinguisher(fam)[0]
    return fam


def test_metamorphic_dimension_relations():
    # Natarajan <= DS <= graph (Daniely & Shalev-Shwartz 2014), and for every
    # distinguisher family Natarajan <= Ψ <= Ψ_all together with graph <=
    # Ψ_all (Ben-David, Cesa-Bianchi, Haussler & Long 1995); Ψ <= graph does
    # not hold in general.  N, G and DS ignore how labels and points are named.
    rng = random.Random(1995)
    everything = {q: dk.PsiFamily(members=all_encoders(q), num_labels=q) for q in (2, 3, 4)}
    for _ in range(300):
        n = rng.randint(1, 4)
        q = rng.randint(2, 4)
        cls = random_table_class(rng, n, q, 14)
        dims = {kind: dk.exact_dimension(cls, kind).value for kind in ("natarajan", "ds", "graph")}
        n_dim, ds_dim, g_dim = dims["natarajan"], dims["ds"], dims["graph"]
        assert n_dim <= ds_dim <= g_dim, dims
        psi_all = dk.exact_dimension(cls, "psi", psi=everything[q]).value
        assert g_dim <= psi_all
        psi_dim = dk.exact_dimension(cls, "psi", psi=_random_distinguisher(rng, q)).value
        assert n_dim <= psi_dim <= psi_all
        labels = list(range(q))
        rng.shuffle(labels)
        order = list(range(n))
        rng.shuffle(order)
        rows = dk.restrict(cls, range(n)).patterns
        renamed = dk.class_from_tables([[labels[r[x]] for x in order] for r in rows],
                                       num_labels=q)
        for kind, value in dims.items():
            assert dk.exact_dimension(renamed, kind).value == value, (kind, rows, labels, order)


def test_corrupted_certificates_fail_verification():
    c6_cls = c6()
    cert = dk.is_n_shattered(dk.full_class(2, 3), (0, 1))
    (g1, g2) = cert.payload
    assert dk.verify_certificate(cert, dk.full_class(2, 3))
    bad = dk.ShatterCertificate("natarajan", (0, 1), ((g2[0], g1[1]), g2))
    assert not dk.verify_certificate(bad, dk.full_class(2, 3))
    short = dk.ShatterCertificate("natarajan", (0, 1), (g1[:1], g2[:1]))
    assert not dk.verify_certificate(short, dk.full_class(2, 3))

    cert = dk.is_g_shattered(c6_cls, (0, 1))
    assert dk.verify_certificate(cert, c6_cls)
    (f,) = cert.payload
    bad = dk.ShatterCertificate("graph", (0, 1), ((1, f[1]),))  # label 1 unrealized at 0
    assert not dk.verify_certificate(bad, c6_cls)

    fam = dk.natarajan_family(3)
    cert = dk.is_psi_shattered(dk.full_class(2, 3), (0, 1), fam)
    assert dk.verify_certificate(cert, dk.full_class(2, 3))
    (psibar,) = cert.payload
    stars = dk.PsiFunction(table=(dk.STAR,) * 3)
    bad = dk.ShatterCertificate("psi", (0, 1), ((psibar[0], stars),))
    assert not dk.verify_certificate(bad, dk.full_class(2, 3))

    three = three_hyp()
    cube = ((0, 0), (0, 1), (1, 0), (1, 1))
    assert dk.is_pseudo_cube(cube)
    assert not dk.verify_certificate(dk.ShatterCertificate("ds", (0, 1), (cube,)), three)
    not_cube = ((0, 1), (1, 0))
    assert set(not_cube) <= dk.restrict(three, (0, 1)).pattern_set
    assert not dk.verify_certificate(dk.ShatterCertificate("ds", (0, 1), (not_cube,)), three)


def test_verify_certificate_refuses_what_the_search_refuses():
    """vc on a ternary class raises the search's PreconditionError, and
    encoders over another alphabet than the class's do not verify, as the
    search refuses their family; both used to verify."""
    three = dk.full_class(2, 3)
    with pytest.raises(dk.PreconditionError, match="^vc shattering requires a binary alphabet$"):
        dk.exact_dimension(three, "vc")
    with pytest.raises(dk.PreconditionError, match="^vc shattering requires a binary alphabet$"):
        dk.verify_certificate(dk.ShatterCertificate("vc", (0,), ()), three)
    binary = dk.full_class(2, 2)
    assert dk.verify_certificate(dk.ShatterCertificate("vc", (0, 1), ()), binary)
    same = dk.ShatterCertificate("psi", (0,), ((dk.PsiFunction(table=(0, 1)),),))
    assert dk.verify_certificate(same, binary)
    wider = dk.ShatterCertificate("psi", (0,), ((dk.PsiFunction(table=(0, 1, 1, 1)),),))
    assert dk.verify_certificate(wider, binary) is False


@pytest.mark.parametrize("kind, payload", [
    ("graph", ()), ("psi", ()), ("natarajan", ((0, 1),)), ("ds", ()), ("psi", ((0, 1),)),
    ("natarajan", ()), ("ds", ((), ())), ("vc", ((0, 1),)),
])
def test_certificate_of_the_wrong_shape_fails_verification(kind, payload):
    # these raised IndexError, ValueError or AttributeError
    cert = dk.ShatterCertificate(kind, (0, 1), payload)
    assert dk.verify_certificate(cert, dk.full_class(2, 2)) is False

    binary = dk.class_from_tables([(0, 0), (0, 1), (1, 0)], num_labels=2)
    assert dk.verify_certificate(dk.ShatterCertificate("vc", (1,), ()), binary)
    assert not oracles.vc_shattered(binary, (0, 1))
    assert not dk.verify_certificate(dk.ShatterCertificate("vc", (0, 1), ()), binary)


@pytest.mark.parametrize("kind, payload", [
    ("graph", (5,)), ("natarajan", (1, 2)), ("ds", ([[0, 0], [0, 1], [1, 0], [1, 1]],)),
    ("ds", (5,)), ("ds", (((0, 0), [0, 1]),)), ("psi", (5,)), ("natarajan", ((0, 1), None)),
], ids=["graph-int", "natarajan-ints", "ds-lists", "ds-int", "ds-mixed", "psi-int",
        "natarajan-none"])
def test_certificate_of_the_wrong_type_fails_verification(kind, payload):
    # these raised TypeError
    cert = dk.ShatterCertificate(kind, (0, 1), payload)
    assert dk.verify_certificate(cert, dk.full_class(2, 2)) is False


def test_certificate_parts_in_lists_still_verify():
    cube = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert dk.verify_certificate(dk.ShatterCertificate("ds", (0, 1), (cube,)),
                                 dk.full_class(2, 2))
    assert dk.verify_certificate(dk.ShatterCertificate("natarajan", (0, 1), ([0, 0], [1, 1])),
                                 dk.full_class(2, 2))


def test_negative_window_is_rejected():
    with pytest.raises(dk.PreconditionError):
        dk.exact_dimension(c6(), "natarajan", window=-5)


# ------------------------------------------------------------ growth bound

def test_sauer_check_three_hypotheses():
    rep = dk.sauer_natarajan_check(three_hyp(), (0, 1), 1)
    assert rep.count == 3 and rep.bound == 2 * 3 ** 2 and rep.holds


def test_sauer_check_singleton_dimension_zero():
    single = dk.class_from_tables([(1, 0)], num_labels=2)
    rep = dk.sauer_natarajan_check(single, (0, 1), 0)
    assert rep.count == 1 and rep.bound == 1 and rep.holds


def test_sauer_check_full_binary_cube():
    rep = dk.sauer_natarajan_check(dk.full_class(3, 2), (0, 1, 2), 3)
    assert rep.count == 8 and rep.bound == 27 * 2 ** 6 and rep.holds


def test_sauer_check_rejects_negative_degree():
    with pytest.raises(dk.PreconditionError):
        dk.sauer_natarajan_check(three_hyp(), (0, 1), -1)
