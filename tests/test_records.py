"""The result-record contract, for every record class: equality within one
class, equal hashes for equal records, the repr Name(field=value, ...),
frozen fields, the constructors' keywords and defaults, copies and pickles,
and the key order of each JSON form."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import mild2
from mild2.acceptance import CriterionResult
from mild2.arith import _Record
from mild2.linking import (
    AugmentationResult,
    LinkingData,
    Presentation,
    QuadraticRelator,
    ValidationReport,
    augment,
    eliminate_generator,
    koch_presentation,
)
from mild2.mildness import MildnessReport, Partition, check_mild
from mild2.oracle import DegreeRank, OracleComparison, RankProfile, strongly_free_oracle
from mild2.quadlie import Bracket, Leaf, NcPoly, Square, WeightedAlphabet
from mild2.series import DimensionSequence, IntSeries, WeightSignature

EX1 = (41, 13, 5, 3, 19)


def fields():
    """One keyword set per record class, in field order; built afresh on each
    call, so that two records built from two calls share no field object."""
    profile = RankProfile("F2", (DegreeRank(0, 1, 0, 1), DegreeRank(1, 2, 0, 2)))
    return {
        LinkingData: dict(primes=(41, 13, 5), a=(0, 0, 0), ell=((0, 1, 0), (1, 0, 1), (0, 1, 0))),
        QuadraticRelator: dict(d=3, squares=(0, 1, 0), comms=frozenset({(1, 2)}), owner=2),
        Presentation: dict(
            d=2,
            relators=(QuadraticRelator(2, (1, 0), frozenset(), 1),),
            product_relation=(1, 1),
            primes=(3, 7),
            history=("eliminated x3",),
        ),
        ValidationReport: dict(ok=False, violations=("planted",)),
        AugmentationResult: dict(seed=(13, 3), q_aux=(5, 41), q_last=23, S=(5, 13, 41, 3, 23), attempts=1),
        Partition: dict(S=(1, 3), Sp=(2,)),
        MildnessReport: dict(
            verdict="mild", criterion="rank", witness=Partition((1,), (2,)), oracle_depth=4, notes=("a note",)
        ),
        WeightSignature: dict(e=(1, 1), h=(2,)),
        IntSeries: dict(coeffs=(1, 2, 3)),
        DimensionSequence: dict(kind="reduced_b", start=2, values=(1, 2)),
        DegreeRank: dict(degree=2, ambient=16, rank=4, quotient=12),
        RankProfile: dict(ring="F2", per_degree=profile.per_degree),
        OracleComparison: dict(
            ring="F2",
            n_max=1,
            oracle_dims=(1, 2),
            expected_dims=(1, 2),
            match=True,
            mismatch_degree=None,
            profile=profile,
        ),
        WeightedAlphabet: dict(weights=(1, 2)),
        NcPoly: dict(alphabet=WeightedAlphabet((1, 1)), ring="F2", terms=frozenset({(0, (1, 2))})),
        Leaf: dict(index=1),
        Square: dict(arg=Leaf(2)),
        Bracket: dict(left=Leaf(1), right=Square(Leaf(2))),
        CriterionResult: dict(number=1, name="a name", ok=True, detail="", seconds=0.5),
    }


RECORDS = list(fields())
DEFAULTS = {
    QuadraticRelator: dict(owner=None),
    Presentation: dict(product_relation=None, primes=None, history=()),
    ValidationReport: dict(violations=()),
    WeightSignature: dict(h=()),
}
JSON_KEYS = {
    LinkingData: ["primes", "a", "ell"],
    QuadraticRelator: ["owner", "square", "comms"],
    Presentation: ["primes", "a", "ell", "relators", "product_relation"],
    AugmentationResult: ["seed", "q_aux", "q_last", "S", "attempts"],
    Partition: ["S", "Sp"],
    MildnessReport: ["verdict", "criterion", "witness", "oracle_depth", "notes"],
    DimensionSequence: ["kind", "start", "values"],
    DegreeRank: ["degree", "ambient", "rank", "quotient"],
    RankProfile: ["ring", "per_degree"],
    OracleComparison: ["ring", "n_max", "oracle_dims", "expected_dims", "match", "mismatch_degree", "profile"],
}


def test_every_record_class_is_covered():
    for info in pkgutil.iter_modules(mild2.__path__):
        importlib.import_module(f"mild2.{info.name}")
    assert set(_Record.__subclasses__()) == set(RECORDS)
    assert len(RECORDS) == 19


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_keywords_positions_and_repr(cls):
    kw = fields()[cls]
    record = cls(**kw)
    assert record == cls(*kw.values())
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in kw.items())})"
    assert {name: getattr(record, name) for name in kw} == kw


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_defaults(cls):
    kw = fields()[cls]
    defaults = DEFAULTS.get(cls, {})
    required = list(kw.values())[: len(kw) - len(defaults)]
    record = cls(*required)
    assert {name: getattr(record, name) for name in defaults} == defaults
    with pytest.raises(TypeError):  # the last required field has no default
        cls(*required[:-1])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_records_hash_equally(cls):
    first, second = cls(**fields()[cls]), cls(**fields()[cls])
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_equal_only_within_one_class(cls):
    kw = fields()[cls]
    record = cls(**kw)
    twin = type("Twin", (cls,), {})
    other = twin.__new__(twin)
    other.__dict__.update(vars(record))
    assert record != other and other != record
    assert record != tuple(kw.values())
    assert record != kw


def test_records_of_two_classes_with_the_same_values_differ():
    assert IntSeries((1, 2)) != WeightedAlphabet((1, 2))
    assert Leaf(1) != DegreeRank(1, 1, 1, 1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_are_frozen(cls):
    kw = fields()[cls]
    record = cls(**kw)
    for name in kw:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert record == cls(**kw)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_are_equal(cls):
    record = cls(**fields()[cls])
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("cls", list(JSON_KEYS), ids=lambda cls: cls.__name__)
def test_json_key_order(cls):
    assert list(cls(**fields()[cls]).to_json_dict()) == JSON_KEYS[cls]


def test_which_records_have_a_json_form():
    assert [cls for cls in RECORDS if hasattr(cls, "to_json_dict")] == list(JSON_KEYS)


def test_golden_reprs():
    pres = koch_presentation(EX1)
    assert repr(pres) == (
        "Presentation(d=5, relators=("
        "QuadraticRelator(d=5, squares=(0, 0, 0, 0, 0), comms=frozenset({(1, 2), (1, 4), (1, 5)}), owner=1), "
        "QuadraticRelator(d=5, squares=(0, 0, 0, 0, 0), comms=frozenset({(2, 3), (1, 2), (2, 5)}), owner=2), "
        "QuadraticRelator(d=5, squares=(0, 0, 0, 0, 0), comms=frozenset({(2, 3), (3, 4)}), owner=3), "
        "QuadraticRelator(d=5, squares=(0, 0, 0, 1, 0), comms=frozenset({(4, 5), (3, 4), (1, 4)}), owner=4), "
        "QuadraticRelator(d=5, squares=(0, 0, 0, 0, 1), comms=frozenset({(2, 5), (1, 5)}), owner=5)), "
        "product_relation=(0, 0, 0, 1, 1), primes=(41, 13, 5, 3, 19), history=())"
    )
    assert repr(check_mild(pres)) == (
        "MildnessReport(verdict='mild', criterion='circuit', witness=Partition(S=(1, 3), Sp=(2, 4)),"
        " oracle_depth=None, notes=('eliminated x5 (prime 19); d: 5 -> 4',))"
    )
    assert repr(strongly_free_oracle(eliminate_generator(pres).relators, 4)) == (
        "OracleComparison(ring='F2', n_max=4, oracle_dims=(1, 4, 12, 32, 80), expected_dims=(1, 4, 12, 32, 80),"
        " match=True, mismatch_degree=None, profile=RankProfile(ring='F2', per_degree=("
        "DegreeRank(degree=0, ambient=1, rank=0, quotient=1), DegreeRank(degree=1, ambient=4, rank=0, quotient=4), "
        "DegreeRank(degree=2, ambient=16, rank=4, quotient=12), "
        "DegreeRank(degree=3, ambient=64, rank=32, quotient=32), "
        "DegreeRank(degree=4, ambient=256, rank=176, quotient=80))))"
    )
    assert repr(augment((3, 13))) == (
        "AugmentationResult(seed=(13, 3), q_aux=(5, 41), q_last=23, S=(5, 13, 41, 3, 23), attempts=1)"
    )
