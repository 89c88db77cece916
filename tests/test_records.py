import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairsim import chainmodel as cm
from pairsim import cli
from pairsim import config as cfg
from pairsim import presets
from pairsim.records import Record, field_names, replace


class Pair(Record):
    first: float
    second: float = 2.0


class OtherPair(Record):
    first: float
    second: float = 2.0


def _records(value):
    """Every record inside ``value``, nested records and tuples of them included, outermost first."""
    if isinstance(value, tuple):
        return [r for item in value for r in _records(item)]
    if not isinstance(value, Record):
        return []
    return [value] + [r for name in field_names(value) for r in _records(getattr(value, name))]


def _preset_records() -> list:
    found = []
    for name in presets.preset_names():
        chain, pump = cfg.build_experiment(presets.get_preset(name))
        found += _records((chain, pump, cm.evaluate(chain, pump), cm.predict(chain, pump)))
    return found


PRESET_RECORDS = _preset_records()
SEGMENT = cm.WaveguideSegment("nonlinear", 0.0137, 200.0, 161.0)


class TestDeclaration:
    def test_fields_follow_the_annotations_in_order(self):
        assert field_names(Pair) == field_names(Pair(1.0)) == ("first", "second")
        assert field_names(cm.WaveguideSegment) == ("kind", "length_m", "loss_db_per_m", "gamma_per_w_m")

    def test_class_attributes_are_the_defaults(self):
        assert Pair(1.0).second == 2.0
        assert cm.ExperimentChain.noise_signal == cm.NoiseCoefficients()
        assert cm.FilterSpec(1e9) == cm.FilterSpec(1e9, 0.0, "rectangular", None)

    def test_positional_and_keyword_construction_agree(self):
        assert Pair(1.0, 3.0) == Pair(1.0, second=3.0) == Pair(second=3.0, first=1.0)
        assert SEGMENT == cm.WaveguideSegment(kind="nonlinear", length_m=0.0137, loss_db_per_m=200.0, gamma_per_w_m=161.0)

    @pytest.mark.parametrize(
        "args, kwargs",
        [((), {}), ((), {"second": 1.0}), ((1.0,), {"third": 1.0}), ((1.0,), {"first": 1.0}), ((1.0, 2.0, 3.0), {})],
        ids=["missing", "missing-with-default-given", "unknown", "repeated", "too-many"],
    )
    def test_a_missing_unknown_or_repeated_field_raises_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)

    def test_unknown_field_is_named(self):
        with pytest.raises(TypeError, match="length_cm"):
            cm.WaveguideSegment("passive", 0.01, length_cm=1.0)


class TestFrozen:
    @pytest.mark.parametrize("name", ["length_m", "kind", "not_a_field"])
    def test_assignment_and_deletion_raise(self, name):
        with pytest.raises(AttributeError):
            setattr(SEGMENT, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(SEGMENT, name)
        assert SEGMENT.length_m == 0.0137

    def test_post_init_may_store_a_derived_attribute(self):
        chain = cfg.build_experiment(presets.get_preset("wg-i"))[0]
        assert chain.nonlinear_segment.kind == cm.KIND_NONLINEAR
        # the derived attribute is no field: it enters neither equality nor repr
        assert "nonlinear_index" not in repr(chain)
        assert replace(chain) == chain


class TestValue:
    def test_equality_is_per_type(self):
        assert Pair(1.0) == Pair(1.0)
        assert Pair(1.0) != Pair(1.5)
        assert Pair(1.0) != OtherPair(1.0)
        assert Pair(1.0) != (1.0, 2.0)

    def test_equal_records_hash_equal(self):
        assert hash(Pair(1.0)) == hash(Pair(1.0, 2.0))
        assert len({Pair(1.0), Pair(1.0, 2.0), Pair(3.0)}) == 2

    @pytest.mark.parametrize(
        "record", [Pair(1.0), *{type(r): r for r in PRESET_RECORDS}.values()], ids=lambda r: type(r).__name__
    )
    def test_repr_is_the_frozen_dataclass_text(self, record):
        names = field_names(record)
        twin = dataclasses.make_dataclass(type(record).__qualname__, names, frozen=True)
        assert repr(record) == repr(twin(*(getattr(record, name) for name in names)))

    def test_cli_records_build_and_compare(self):
        table = cli.ResultTable(["x"], [[1.0]], {"k": "v"})
        assert table == cli.ResultTable(columns=["x"], rows=[[1.0]], metadata={"k": "v"})
        assert field_names(table) == ("columns", "rows", "metadata")


class TestReplace:
    def test_replace_changes_only_the_named_fields(self):
        longer = replace(SEGMENT, length_m=0.02)
        assert longer.length_m == 0.02
        assert (longer.kind, longer.loss_db_per_m, longer.gamma_per_w_m) == ("nonlinear", 200.0, 161.0)
        assert SEGMENT.length_m == 0.0137

    def test_replace_runs_the_checks_again(self):
        with pytest.raises(ValueError, match="length_m"):
            replace(SEGMENT, length_m=-1.0)
        with pytest.raises(ValueError, match="passive"):
            replace(SEGMENT, kind="passive")

    def test_replace_rejects_an_unknown_field(self):
        with pytest.raises(TypeError):
            replace(SEGMENT, length_cm=1.0)

    @given(st.sampled_from(PRESET_RECORDS), st.data())
    def test_replacing_with_the_same_values_is_the_same_record(self, record, data):
        names = data.draw(st.lists(st.sampled_from(field_names(record)), unique=True))
        copy = replace(record, **{name: getattr(record, name) for name in names})
        assert type(copy) is type(record)
        assert copy == record
        assert hash(copy) == hash(record)
        assert replace(record) == record
        assert hash(replace(record)) == hash(record)
