import json
import math

import numpy as np
import pytest

from pairsim import elementwise

GRID = np.geomspace(1e-3, 1e6, 997)

CASES = {
    # exp and expm1 take -x, as an attenuation does: exp(x) overflows past 709
    "exp": (elementwise.exp, math.exp, -GRID),
    "expm1": (elementwise.expm1, math.expm1, -GRID),
    "log1p": (elementwise.log1p, math.log1p, GRID),
}


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_argument_matches_math_bit_for_bit(name):
    f, reference, x = CASES[name]
    assert _bits(f(x)) == _bits([reference(v) for v in x.tolist()])
    for v in x[::100].tolist():
        assert type(f(v)) is float and _bits(f(v)) == _bits(reference(v))


def test_power_matches_pow_bit_for_bit():
    power = elementwise.power
    exponents = np.linspace(-2.0, 2.0, GRID.size)
    assert _bits(power(GRID, exponents)) == _bits([pow(b, e) for b, e in zip(GRID.tolist(), exponents.tolist())])
    # arr**2 is x * x, which differs from pow on some elements
    assert _bits(power(GRID, 2.0)) == _bits([pow(b, 2.0) for b in GRID.tolist()])
    # a loss in dB over the grid, as db_to_linear computes it
    assert _bits(power(10.0, -GRID / 10.0)) == _bits([pow(10.0, -v / 10.0) for v in GRID.tolist()])
    for b, e in zip(GRID[::100].tolist(), exponents[::100].tolist()):
        assert type(power(b, e)) is float and _bits(power(b, e)) == _bits(pow(b, e))


# numpy loaded after the module: an array made then is still an array, and
# each ufunc is built at its first one.  The floats go through JSON, whose
# repr round-trips every float exactly
LATE_NUMPY = """\
import json, sys
from pairsim import elementwise
assert "numpy" not in sys.modules
import numpy as np
grid = np.geomspace(1e-3, 1e6, 997)
args = {"exp": (-grid,), "expm1": (-grid,), "log1p": (grid,), "power": (grid, np.linspace(-2.0, 2.0, grid.size))}
out = {}
for name, arrays in args.items():
    f = getattr(elementwise, name)
    floats = list(zip(*(a.tolist() for a in arrays)))[::100]
    float64s = list(zip(*arrays))[::100]
    out[name] = {
        "array": f(*arrays).tolist(),
        "float": [f(*v) for v in floats],
        "float_types": sorted({type(f(*v)).__name__ for v in floats}),
        "float64": [float(f(*v)) for v in float64s],
    }
holds = elementwise.holds
out["holds"] = [bool(holds(grid > 0)), bool(holds(grid > 1)), holds(True), holds(False)]
print(json.dumps(out))
"""


def test_numpy_loaded_after_the_module_matches_math(fresh_python):
    out = json.loads(fresh_python(LATE_NUMPY))
    references = {name: (reference, (x,)) for name, (_, reference, x) in CASES.items()}
    references["power"] = (pow, (GRID, np.linspace(-2.0, 2.0, GRID.size)))
    for name, (reference, arrays) in references.items():
        expected = [reference(*v) for v in zip(*(a.tolist() for a in arrays))]
        assert _bits(out[name]["array"]) == _bits(expected), name
        assert _bits(out[name]["float"]) == _bits(expected[::100]), name
        assert out[name]["float_types"] == ["float"], name
        assert _bits(out[name]["float64"]) == _bits(expected[::100]), name
    assert out["holds"] == [True, False, True, False]
