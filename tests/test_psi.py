import random

import pytest

import dimkit as dk
from corpus import ds2_pair_corpus, random_table_class
from dimkit import psi
from dimkit.psi import STAR, all_encoders
from oracles import decided_reference, image_numbering_reference, refute_ds_reference


def indicator_of_zero(q):
    return dk.PsiFamily(
        members=(dk.PsiFunction(table=tuple(1 if y == 0 else 0 for y in range(q))),),
        num_labels=q,
    )


def test_family_sizes():
    for q in range(2, 8):
        assert len(dk.graph_family(q)) == q
        assert len(dk.natarajan_family(q)) == q * (q - 1)


def test_builtin_families_are_refused_past_the_table_entry_budget():
    """psi_N over q labels holds q(q-1) * q table entries and psi_G q * q;
    both are refused, naming the count, above the 20 * 2^20 entries that
    ``full_class`` keeps, before any member is built."""
    for build, q, message in (
            (dk.natarajan_family, 277, "76452 encoders over 277 labels hold 21177204"),
            (dk.graph_family, 4580, "4580 encoders over 4580 labels hold 20976400"),
            (dk.natarajan_family, 10 ** 9, f"{10 ** 18 - 10 ** 9} encoders over {10 ** 9}")):
        with pytest.raises(dk.PreconditionError) as err:
            build(q)
        assert str(err.value).startswith(message)
        assert str(err.value).endswith("table entries, above the budget of 20971520")


def test_graph_family_has_no_star():
    for m in dk.graph_family(3).members:
        assert STAR not in m.table


def test_natarajan_family_member_shape():
    for m in dk.natarajan_family(3).members:
        assert sorted(m.table) == [0, 1, STAR]


def test_builtin_families_are_distinguishers():
    for q in range(2, 8):
        assert dk.is_distinguisher(dk.natarajan_family(q)) == (True, None)
        assert dk.is_distinguisher(dk.graph_family(q)) == (True, None)


def test_indicator_family_fails_on_nonzero_pair():
    ok, pair = dk.is_distinguisher(indicator_of_zero(3))
    assert not ok and pair == (1, 2)


def test_all_star_family_fails_immediately():
    fam = dk.PsiFamily(members=(dk.PsiFunction(table=(STAR, STAR)),), num_labels=2)
    assert dk.is_distinguisher(fam) == (False, (0, 1))


def test_family_deduplicates_members():
    m = dk.PsiFunction(table=(0, 1))
    fam = dk.PsiFamily(members=(m, m), num_labels=2)
    assert len(fam) == 1


# -------------------------------------------------------- failing families

def test_failing_class_shape_and_witness():
    fam = indicator_of_zero(3)
    cls, witness = dk.failing_psi_class(fam, window=1)
    assert len(cls.hypotheses) == 4
    assert dk.restrict(cls, (0, 1)).patterns == ((1, 1), (1, 2), (2, 1), (2, 2))
    # the indicator maps both 1 and 2 to 0, so bit 1 is blocked coordinatewise
    psi0 = fam.members[0]
    assert witness.evaluate((0, 1), (psi0, psi0)) == (1, 1)
    report = dk.validate_witness(witness, cls, 1)
    assert report.valid


def test_failing_class_has_psi_dimension_zero():
    fam = indicator_of_zero(3)
    cls, _ = dk.failing_psi_class(fam, window=1)
    assert dk.exact_dimension(cls, "psi", psi=fam).value == 0


def test_failing_class_graph_dimension_is_window_plus_one():
    fam = indicator_of_zero(3)
    for window in (0, 1, 2):
        cls, _ = dk.failing_psi_class(fam, window=window)
        assert dk.exact_dimension(cls, "graph").value == window + 1


def test_failing_class_rejects_distinguishers():
    with pytest.raises(dk.PreconditionError):
        dk.failing_psi_class(dk.natarajan_family(2), window=1)


def test_random_non_distinguishers_yield_valid_order1_witnesses():
    rng = random.Random(424242)
    found = 0
    while found < 8:
        q = rng.choice((2, 3, 4))
        size = rng.randint(1, 4)
        members = tuple(
            dk.PsiFunction(table=tuple(rng.choice((0, 1, STAR)) for _ in range(q)))
            for _ in range(size)
        )
        fam = dk.PsiFamily(members=members, num_labels=q)
        ok, _ = dk.is_distinguisher(fam)
        if ok:
            continue
        found += 1
        cls, witness = dk.failing_psi_class(fam, window=2)
        assert witness.order == 1
        assert dk.validate_witness(witness, cls, 2).valid


# ----------------------------------------------------------- DS refutation

def test_refute_rejects_low_ds_dimension():
    three = dk.class_from_tables([(0, 1), (1, 0), (2, 2)], num_labels=3)
    with pytest.raises(dk.PreconditionError):
        dk.refute_ds_expressibility(three)


def test_refute_reads_ds_dimension_2_off_the_pairs_core():
    """On two points DS dimension 2 means the pair is DS-shattered, so the
    refutation refuses exactly the classes exact_dimension puts below 2, and
    it says so ahead of the label budget."""
    rng = random.Random(5772)
    refused = 0
    for _ in range(60):
        q = rng.randint(2, 4)
        cls = random_table_class(rng, 2, q, rng.randint(1, q * q))
        if dk.exact_dimension(cls, "ds").value == 2:
            assert dk.refute_ds_expressibility(cls).pairs_examined == 9 ** q
            continue
        refused += 1
        with pytest.raises(dk.PreconditionError, match="^class must have DS dimension exactly 2$"):
            dk.refute_ds_expressibility(cls)
    assert 0 < refused < 60
    wide = dk.class_from_tables([(0, 1), (1, 0), (10, 10)], num_labels=11)
    with pytest.raises(dk.PreconditionError, match="^class must have DS dimension exactly 2$"):
        dk.refute_ds_expressibility(wide)


def test_refute_rejects_wide_domains():
    with pytest.raises(dk.PreconditionError):
        dk.refute_ds_expressibility(dk.full_class(3, 2))


def test_boolean_cube_is_not_refuted():
    # Binary two-point cube: shattering pairs exist, but the only 4-pattern
    # subclass is the cube itself (DS dimension 2), so no counterexample.
    report = dk.refute_ds_expressibility(dk.full_class(2, 2))
    assert report.pairs_examined == 3 ** 2 * 3 ** 2
    assert report.verdict == "not_refuted"
    assert report.entries and all(not e.subclasses for e in report.entries)


def test_refutation_by_image_pairs_matches_table_pair_reference():
    classes = [dk.six_cycle_class().cls, dk.full_class(2, 2)] + ds2_pair_corpus(5, 30)
    collapsed = one_sided = 0
    verdicts = set()
    for cls in classes:
        got = dk.refute_ds_expressibility(cls)
        want = refute_ds_reference(cls)
        assert got.verdict == want.verdict
        verdicts.add(got.verdict)
        assert got.pairs_examined == want.pairs_examined == 9 ** cls.num_labels
        expanded = list(got.entries)
        assert len(got.entries) == len(expanded)
        assert [(e.psi1, e.psi2, e.subclasses) for e in expanded] == \
            [(e.psi1, e.psi2, e.subclasses) for e in want.entries]
        assert got.distinct_subclasses() == {s for e in expanded for s in e.subclasses}
        pats = dk.restrict(cls, (0, 1)).patterns
        at = [{p[i] for p in pats} for i in (0, 1)]
        collapsed += any(len(labels) < cls.num_labels for labels in at)
        one_sided += bool(at[0] ^ at[1])
    # images collapse (a label unrealized at a point) in most classes but not
    # all, and in many some label is realized at one point only
    assert 0 < collapsed < len(classes) and one_sided >= 10
    assert verdicts == {"refuted", "not_refuted"}


def test_entries_index_like_their_expansion():
    entries = dk.refute_ds_expressibility(dk.full_class(2, 2)).entries
    expanded = tuple(entries)
    assert (entries[0], entries[-1]) == (expanded[0], expanded[-1])
    assert entries[1:9:3] == expanded[1:9:3]
    with pytest.raises(IndexError):
        entries[len(expanded)]


def test_refute_refuses_image_pairs_over_budget(monkeypatch):
    # the six-cycle realizes all 3 labels at each point: 27 x 27 image pairs
    monkeypatch.setattr(psi, "_IMAGE_PAIR_BUDGET", 728)
    with pytest.raises(dk.PreconditionError, match="decides 729 encoder image pairs"):
        dk.refute_ds_expressibility(dk.six_cycle_class().cls)
    monkeypatch.setattr(psi, "_IMAGE_PAIR_BUDGET", 729)
    assert dk.refute_ds_expressibility(dk.six_cycle_class().cls).verdict == "refuted"


def test_split_image_pairs_decide_as_every_image_pair():
    # None where a pair is skipped is None where it is decided, since a pair
    # with an image that does not split leaves two code cells empty
    classes = [dk.six_cycle_class().cls] + [dk.full_class(2, q) for q in (2, 3, 4)] \
        + ds2_pair_corpus(5, 30)
    for cls in classes:
        assert dk.refute_ds_expressibility(cls).entries.decided == decided_reference(cls)


def test_six_cycle_decides_only_its_144_split_image_pairs(monkeypatch):
    # 27 images at each point, 12 of which split: 144 of the 729 pairs
    calls = []
    decide = psi._shattered_subclasses
    monkeypatch.setattr(psi, "_shattered_subclasses",
                        lambda *args: calls.append(1) or decide(*args))
    decided = dk.refute_ds_expressibility(dk.six_cycle_class().cls).entries.decided
    assert len(calls) == 144
    assert (len(decided), len(decided[0])) == (27, 27)
    # a first image that does not split shares one row of None
    dead = [row for row in decided if row.count(None) == len(row)]
    assert len(dead) == 15 and all(row is dead[0] for row in dead)


def test_refute_refuses_decisions_over_budget(monkeypatch):
    # the six-cycle: 12 x 12 splitting image pairs, and C(6, 4) = 15 subsets
    monkeypatch.setattr(psi, "_DECISION_BUDGET", 2159)
    with pytest.raises(dk.PreconditionError, match="makes 2160 subset checks"):
        dk.refute_ds_expressibility(dk.six_cycle_class().cls)
    monkeypatch.setattr(psi, "_DECISION_BUDGET", 2160)
    assert dk.refute_ds_expressibility(dk.six_cycle_class().cls).verdict == "refuted"


def test_images_are_numbered_by_first_occurrence_over_all_tables():
    # a column holds disjoint nonempty behavior masks, one per realized label
    rng = random.Random(25)
    for q in range(1, 6):
        for _ in range(12):
            labels = tuple(sorted(rng.sample(range(q), rng.randint(0, q))))
            owners = list(labels) + [rng.choice(labels) for _ in labels if rng.random() < 0.5]
            rng.shuffle(owners)
            column = {}
            for j, v in enumerate(owners):
                column[v] = column.get(v, 0) | 1 << j
            images, of = image_numbering_reference(column, q)
            assert psi._images(column, labels) == images
            assert psi._image_numbers(q, labels) == of
            assert len(images) == 3 ** len(labels)


def test_encoder_enumeration_is_complete_and_ordered():
    encoders = all_encoders(2)
    assert len(encoders) == 9
    assert len(set(encoders)) == 9
    assert encoders[0].table == (0, 0)
