"""No dimkit module coerces an input value with ``int()``.

Labels, points and encoder outputs must already be exact ints, and the
constructors that take them refuse anything else, so ``int(1.9)`` or
``int("2")`` can never turn a bad entry into a good one.  A call ``int(...)``
may only wrap a comparison, as in ``int(v == k)``, which turns a bool into a
0/1 code, and ``map(int, ...)`` is not allowed at all.  ``cli.py`` parses
argv strings, so it is exempt.  Nor is a label or a weight converted where
it enters: ``empirical_risk`` refuses a sample label outside the alphabet,
and ``FiniteDistribution`` a weight that is not an exact int or a Fraction.
A point tuple, labeling or index set that is not iterable, and a sample
entry or atom that is not a pair, raise a dimkit error naming the value.
"""

import ast
import pathlib
from decimal import Decimal
from fractions import Fraction

import pytest

import dimkit as dk

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dimkit"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "cli.py")


def coercions(source: str) -> list[int]:
    """The line of each call ``int(...)`` whose argument is not a single
    comparison, and of each ``map(int, ...)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        args = node.args
        if node.func.id == "int" and not (
                len(args) == 1 and not node.keywords and isinstance(args[0], ast.Compare)):
            found.append(node.lineno)
        elif node.func.id == "map" and args and isinstance(args[0], ast.Name) \
                and args[0].id == "int":
            found.append(node.lineno)
    return sorted(found)


def test_coercions_are_found():
    source = ("a = int(x)\n"
              "b = int(v == k)\n"
              "c = [int(i in s) for i in r]\n"
              "d = int(s, 2)\n"
              "e = int(x=3)\n"
              "f = tuple(map(int, xs)) + tuple(map(int.bit_count, xs))\n"
              "g = int(y) + int(a < b)\n")
    assert coercions(source) == [1, 4, 5, 6, 7]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_coerces_with_int(module):
    assert coercions((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("label", [9, -1, True, 1.0])
def test_empirical_risk_refuses_a_label_outside_the_alphabet(label):
    """A label the hypothesis cannot take is refused, not counted as a miss
    (or, for a bool or a float equal to a label, as a hit)."""
    h = dk.Hypothesis(num_labels=3, table=(1, 2))
    with pytest.raises(dk.PreconditionError, match=f"sample label {label!r} outside"):
        dk.empirical_risk(h, ((1, 2), (0, label)))


@pytest.mark.parametrize("weight", [0.5, True, "1/2", Decimal("0.5")])
def test_distribution_weights_are_not_converted(weight):
    """A weight is an exact int or a Fraction; ``Fraction(0.5)`` would
    convert a float exactly, and ``Fraction(True)`` a bool."""
    with pytest.raises(dk.RepresentationError, match="is not an exact int or Fraction"):
        dk.FiniteDistribution(atoms=(((0, 0), weight), ((1, 0), Fraction(1, 2))))
    assert dk.FiniteDistribution(atoms=(((0, 0), 1),)).atoms == (((0, 0), Fraction(1)),)


@pytest.mark.parametrize("build, error, message", [
    (lambda: dk.PsiFamily((5,), 2), dk.RepresentationError,
     "family member 5 is not a PsiFunction"),
    (lambda: dk.PsiFamily(5, 2), dk.RepresentationError, "members: 5 is not iterable"),
    (lambda: dk.PsiFunction(5), dk.RepresentationError, "table: 5 is not iterable"),
    (lambda: dk.Witness("psi", 0, lambda points, psibar: (0,), psi=5), dk.PreconditionError,
     "psi 5 is not a PsiFamily"),
    (lambda: dk.empirical_risk(dk.Hypothesis(num_labels=2, table=(0, 1)), (("a", 1),)),
     dk.DomainError, "point 'a' is not a natural"),
    (lambda: dk.PsiFunction((0, 1))(-1), dk.PreconditionError,
     "label -1 outside the encoder's alphabet"),
    (lambda: dk.PsiFunction((0, 1))(5), dk.PreconditionError,
     "label 5 outside the encoder's alphabet"),
    (lambda: dk.PsiFunction((0, 1))(True), dk.PreconditionError,
     "label True outside the encoder's alphabet"),
], ids=["member 5", "members 5", "table 5", "witness psi 5", "point 'a'", "label -1",
        "label 5", "label True"])
def test_wrong_types_raise_a_dimkit_error_where_they_enter(build, error, message):
    """Each raised AttributeError, TypeError or IndexError, or was accepted
    and failed later; ``PsiFunction((0, 1))(-1)`` read the table from its
    end."""
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


def _spec():
    cls = dk.class_from_supports([{0: 1}, {1: 2}], num_labels=3)
    return dk.GoodFunctionSpec(witness=dk.canonical_witness(cls, "natarajan", 1), num_labels=3)


_CLS = dk.full_class(2, 3)
_LEARNER = dk.constant_learner(0, 3, 3)
_H = dk.Hypothesis(num_labels=3, table=(0, 1))
_NOT_ITERABLE = "points: 5 is not iterable"
_NOT_A_PAIR = "sample entry {!r} is not a (point, label) pair"


@pytest.mark.parametrize("build, error, message", [
    (lambda: dk.restrict(_CLS, 5), dk.RepresentationError, _NOT_ITERABLE),
    (lambda: dk.is_n_shattered(_CLS, 5), dk.RepresentationError, _NOT_ITERABLE),
    (lambda: dk.is_ds_shattered(_CLS, 5), dk.RepresentationError, _NOT_ITERABLE),
    (lambda: dk.is_psi_shattered(_CLS, 5, dk.natarajan_family(3)), dk.RepresentationError,
     _NOT_ITERABLE),
    (lambda: dk.sauer_natarajan_check(_CLS, 5, 1), dk.RepresentationError, _NOT_ITERABLE),
    (lambda: dk.verify_certificate(dk.ShatterCertificate("vc", 5, ()), dk.full_class(2, 2)),
     dk.RepresentationError, _NOT_ITERABLE),
    (lambda: dk.good_patterns(_spec(), 5), dk.RepresentationError, _NOT_ITERABLE),
    (lambda: dk.nfl_adversary(_LEARNER, 5, (0, 1), (1, 0)), dk.RepresentationError,
     _NOT_ITERABLE),
    (lambda: dk.nfl_adversary(_LEARNER, (0, 1), 5, (1, 0)), dk.PreconditionError,
     "labeling 5 is not a sequence"),
    (lambda: dk.exact_expected_risk(_LEARNER, 5, (0, 1), 1), dk.RepresentationError,
     _NOT_ITERABLE),
    (lambda: dk.FiniteDistribution.uniform_on_graph(5, (1,)), dk.RepresentationError,
     _NOT_ITERABLE),
    (lambda: _spec().witness.evaluate(5, (0, 1), (1, 0)), dk.RepresentationError,
     _NOT_ITERABLE),
    (lambda: dk.mix_labelings(3, (0, 1), (1, 0)), dk.RepresentationError,
     "index set: 3 is not iterable"),
    (lambda: dk.mix_labelings([[0]], (0, 1), (1, 0)), dk.PreconditionError,
     "index [0] is not an exact int"),
    (lambda: dk.mix_labelings({0}, 5, (1, 0)), dk.PreconditionError,
     "labeling 5 is not a sequence"),
    (lambda: dk.nfl_adversary(_LEARNER, ([0], [1]), (0, 1), (1, 0)), dk.DomainError,
     "point [0] is not a natural"),
    (lambda: dk.empirical_risk(_H, ((0,),)), dk.PreconditionError, _NOT_A_PAIR.format((0,))),
    (lambda: dk.empirical_risk(_H, (5,)), dk.PreconditionError, _NOT_A_PAIR.format(5)),
    (lambda: dk.empirical_risk(_H, ((0, 1, 2),)), dk.PreconditionError,
     _NOT_A_PAIR.format((0, 1, 2))),
    (lambda: dk.erm_augmented(_spec(), ((0,),)), dk.PreconditionError,
     _NOT_A_PAIR.format((0,))),
    (lambda: dk.erm_augmented(_spec(), (5,)), dk.PreconditionError, _NOT_A_PAIR.format(5)),
    (lambda: dk.FiniteDistribution(((0, Fraction(1)),)), dk.RepresentationError,
     "atom (0, Fraction(1, 1)) is not a ((point, label), weight) pair"),
    (lambda: dk.exact_expected_risk(_LEARNER, (0, 1), (0, 1), 1.0), dk.PreconditionError,
     "sample size 1.0 is not an exact int"),
    (lambda: dk.exact_expected_risk(_LEARNER, (0, 1), (0, 1), True), dk.PreconditionError,
     "sample size True is not an exact int"),
    (lambda: dk.is_pseudo_cube([[0, 1], [1, 0]]), dk.PreconditionError,
     "pattern [0, 1] is not a tuple of labels"),
    (lambda: dk.is_pseudo_cube(5), dk.RepresentationError, "patterns: 5 is not iterable"),
], ids=["restrict", "is_n_shattered", "is_ds_shattered", "is_psi_shattered", "sauer",
        "verify_certificate", "good_patterns", "adversary points", "adversary labeling",
        "expected risk points", "uniform_on_graph", "evaluate", "mix_labelings",
        "mix unhashable index", "mix labeling 5", "adversary unhashable points",
        "risk (0,)", "risk 5", "risk (0, 1, 2)", "erm (0,)", "erm 5", "atom", "m 1.0",
        "m True", "cube of lists", "cube 5"])
def test_values_that_are_not_tuples_or_pairs_raise_a_dimkit_error(build, error, message):
    """Each raised a TypeError or ValueError from inside the library, except
    ``m=True``, which was read as a sample size of 1; an unhashable index or
    point raised "unhashable type" from the set that checks it."""
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


_ROWS = [(0, 1), (1, 0), (1, 1), (2, 2)]
_CLASSES = {
    "table": dk.class_from_tables(_ROWS, num_labels=3),
    "support": dk.class_from_supports([{0: 1}, {1: 2}], num_labels=3),
    "oracle": dk.HypothesisClass(num_labels=3, behavior_fn=lambda pts: {
        tuple(r[x] for x in pts) for r in _ROWS}),
}
_PREDICATES = {
    "is_n_shattered": lambda cls, pts: dk.is_n_shattered(cls, pts),
    "is_g_shattered": lambda cls, pts: dk.is_g_shattered(cls, pts),
    "is_ds_shattered": lambda cls, pts: dk.is_ds_shattered(cls, pts),
    "is_psi_shattered": lambda cls, pts: dk.is_psi_shattered(cls, pts, dk.graph_family(3)),
    "sauer": lambda cls, pts: dk.sauer_natarajan_check(cls, pts, 1),
}


@pytest.mark.parametrize("predicate", sorted(_PREDICATES))
@pytest.mark.parametrize("kind", sorted(_CLASSES))
def test_single_subset_predicates_name_an_unhashable_or_bad_point(kind, predicate):
    """``(0, [1])`` raised "unhashable type" from the duplicate check; the
    points are now checked to be naturals first, so a tuple that is both
    duplicated and holds a bad point is refused for the point."""
    cls, check = _CLASSES[kind], _PREDICATES[predicate]
    with pytest.raises(dk.DomainError, match=r"point \[1\] "):
        check(cls, (0, [1]))
    with pytest.raises(dk.DomainError, match="point -1 "):
        check(cls, (-1, -1))
    with pytest.raises(dk.PreconditionError, match=r"duplicate points in \(0, 0\)"):
        check(cls, (0, 0))


@pytest.mark.parametrize("points, bad", [(("a", 0), "'a'"), ((None, 0), "None"),
                                         ((0, [1]), "[1]"), ((-1, 0), "-1"),
                                         ((0.5, 1), "0.5"), ((True, 0), "True")])
def test_witness_evaluate_names_a_point_that_is_not_a_natural(points, bad):
    """A str or None point raised TypeError from the canonicalizing sort, an
    unhashable one from the duplicate check, and the gap witness answered on
    a negative, float or bool point."""
    with pytest.raises(dk.DomainError) as err:
        dk.gap_class(3).witness.evaluate(points, (0, 1), (1, 0))
    assert str(err.value) == f"point {bad} is not a natural"


_PAIR = dk.class_from_tables(_ROWS, num_labels=3)


@pytest.mark.parametrize("build, message", [
    (lambda: dk.is_pseudo_cube([None]), "pattern None is not a tuple of labels"),
    (lambda: dk.is_pseudo_cube([(0,), None]), "pattern None is not a tuple of labels"),
    (lambda: dk.exact_dimension(_PAIR, "psi", psi=(1, 2)), "psi (1, 2) is not a PsiFamily"),
    (lambda: dk.exact_dimension(_CLASSES["oracle"], "psi", psi=(1, 2), window=1),
     "psi (1, 2) is not a PsiFamily"),
    (lambda: dk.is_psi_shattered(_PAIR, (0, 1), (1, 2)), "psi (1, 2) is not a PsiFamily"),
    (lambda: dk.canonical_witness(_PAIR, "psi", 1, psi=(1, 2)), "psi (1, 2) is not a PsiFamily"),
    (lambda: dk.is_distinguisher((1, 2)), "psi (1, 2) is not a PsiFamily"),
    (lambda: dk.psi_witness_from_natarajan(dk.gap_class(3).witness, (1, 2), _PAIR),
     "psi (1, 2) is not a PsiFamily"),
], ids=["cube [None]", "cube [(0,), None]", "dimension", "oracle dimension",
        "is_psi_shattered", "canonical_witness", "is_distinguisher", "from natarajan"])
def test_none_patterns_and_foreign_families_raise_a_precondition_error(build, message):
    """A None pattern raised TypeError, as it met the None sentinel of the
    pattern check, and a family that is not a PsiFamily AttributeError
    'num_labels'."""
    with pytest.raises(dk.PreconditionError) as err:
        build()
    assert str(err.value) == message
