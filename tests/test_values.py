"""The one value check for a scalar from outside (errors.check_value): its rules and its
messages."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdpam
from cdpam.errors import ContractError, check_value

KINDS = ("bool", "int", "number", "str")
# the values around the float limit, where an int stops being a finite number
FLOAT_EDGES = [sys.float_info.max, -sys.float_info.max, int(sys.float_info.max),
               int(sys.float_info.max) + 1, -int(sys.float_info.max) - 1, 2 ** 1024, 10 ** 400]
# ints beyond the 4300 digits Python turns into a decimal string
HUGE_INTS = [10 ** 4300, 10 ** 5000, -10 ** 5000]
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 16000, 2 ** 16000),
                         st.floats(), st.text(max_size=8),
                         st.sampled_from(FLOAT_EDGES + HUGE_INTS))
# (lo, hi, open_low), as the package's callers pass them
BOUNDS = st.sampled_from([(None, None, False), (0, None, False), (1, None, False),
                          (0, None, True), (0.0, 40.0, False), (4, 8, False),
                          (0.0, 2.0, True), (None, 12.0, False)])


def reference(value, kind, lo, hi, open_low) -> bool:
    """The rules of check_value, spelled out for the JSON scalar types."""
    if kind in ("bool", "str"):
        return type(value) is {"bool": bool, "str": str}[kind]
    if type(value) not in ((int,) if kind == "int" else (int, float)):
        return False
    if isinstance(value, float) and math.isnan(value) or abs(value) > sys.float_info.max:
        return False
    above_lo = lo is None or (value > lo if open_low else value >= lo)
    return above_lo and (hi is None or value <= hi)


class TestRules:
    @settings(max_examples=500, deadline=None)
    @given(value=JSON_SCALARS, kind=st.sampled_from(KINDS), bounds=BOUNDS)
    def test_accepts_exactly_what_the_rules_allow(self, value, kind, bounds):
        lo, hi, open_low = bounds
        if reference(value, kind, lo, hi, open_low):
            assert check_value("key", value, kind, lo, hi, open_low) is value
        else:  # a TypeError or an OverflowError escapes pytest.raises and fails the test
            with pytest.raises(ContractError) as err:
                check_value("key", value, kind, lo, hi, open_low)
            assert str(err.value).startswith("key must be ")
            try:
                shown = repr(value)
            except ValueError:
                shown = f"an integer of {value.bit_length()} bits"
            assert str(err.value).endswith(f", got {shown}")

    @pytest.mark.parametrize("args,message", [
        (("seed", -1, "int", 0), "seed must be an integer >= 0, got -1"),
        (("k", True, "int", 1), "k must be an integer >= 1, got True"),
        (("lr", 0.0, "number", 0, None, True), "lr must be a finite number > 0, got 0.0"),
        (("rt60", 2.5, "number", 0.0, 2.0, True),
         "rt60 must be a finite number in (0.0, 2.0], got 2.5"),
        (("bits", 9, "int", 4, 8), "bits must be an integer in [4, 8], got 9"),
        (("gain", 13.0, "number", None, 12.0), "gain must be a finite number <= 12.0, got 13.0"),
        (("rating", 10 ** 400, "number"), f"rating must be a finite number, got {10 ** 400}"),
        (("lr", 10 ** 5000, "number", 0, None, True),
         "lr must be a finite number > 0, got an integer of 16610 bits"),
        (("augment", 1, "bool"), "augment must be true or false, got 1"),
        (("out", None, "str"), "out must be a string, got None"),
    ], ids=["below-lo", "bool-int", "open-lo", "above-hi", "int-range", "hi-only", "huge-int",
            "undecimal-int", "int-bool", "none-str"])
    def test_message_names_the_key_the_rule_and_the_value(self, args, message):
        with pytest.raises(ContractError) as err:
            check_value(*args)
        assert str(err.value) == message

    def test_numpy_scalars_of_the_kind_pass_and_numpy_bools_do_not(self):
        assert check_value("n", np.int64(3), "int", lo=1) == 3
        assert check_value("x", np.float64(0.5), "number", 0.0, 1.0) == 0.5
        for kind in ("bool", "int", "number"):
            with pytest.raises(ContractError):
                check_value("flag", np.bool_(True), kind)

    def test_only_errors_spells_out_the_rule(self):
        src = Path(cdpam.__file__).parent
        for path in sorted(src.glob("*.py")):
            if path.name != "errors.py":
                text = path.read_text(encoding="utf-8")
                for spelling in ("numbers.", "math.isfinite", "sys.float_info"):
                    assert spelling not in text, f"{path.name} spells out {spelling}"

