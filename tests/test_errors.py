"""Every malformed input ends in a named error: the argument doors and a static check of `raise`."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import nmecut
from nmecut.channels import QuantumChannel, conjugate_channel, measure_prepare_channel, unitary_channel
from nmecut.errors import InvalidParameterError, NmecutError, OutOfRangeError, ZeroShotsError
from nmecut.estimator import MAX_SHOTS, RandomSource, allocate_shots, estimate_cut_expectation, exact_expectation
from nmecut.experiment import ExperimentConfig
from nmecut.linalg import I2, H, Z, DensityOperator, PureState, as_matrix, kron
from nmecut.qpd import QpdTerm, QuasiProbDecomposition, nme_wire_cut, reconstruct_channel
from nmecut.states import m_distillation_norm

# Each public function or constructor that takes an array, called with `a` in that place.
ARRAY_ARGUMENTS = {
    "exact_expectation": lambda a: exact_expectation(a, Z),
    "estimate_cut_expectation": lambda a: estimate_cut_expectation(nme_wire_cut(0.5), a, Z, 10, RandomSource(1)),
    "unitary_channel": unitary_channel,
    "measure_prepare_channel": measure_prepare_channel,
    "kron": lambda a: kron(a, I2),
    "as_matrix": as_matrix,
    "DensityOperator": DensityOperator,
    "PureState": PureState,
    "QuantumChannel": lambda a: QuantumChannel([a]),
    "m_distillation_norm": lambda a: m_distillation_norm(a, 2),
}

# Inputs that are not numeric arrays.  The first three numpy cannot turn into a complex array; each used to
# escape as a bare ValueError or TypeError.  numpy parses the numeric strings as numbers, so each door used to
# accept the one of its own shape.
NOT_NUMERIC = {
    "string": "abc",
    "ragged": [[1.0, 0.0], [0.0]],
    "dict": {"a": 1},
    "numeric-string-matrix": [["1", "0"], ["0", "1"]],
    "numeric-string-vector": ["1", "0"],
}


@pytest.mark.parametrize("value", NOT_NUMERIC.values(), ids=NOT_NUMERIC.keys())
@pytest.mark.parametrize("call", ARRAY_ARGUMENTS.values(), ids=ARRAY_ARGUMENTS.keys())
def test_array_door_names_a_non_numeric_argument(call, value):
    with pytest.raises(InvalidParameterError):
        call(value)


@pytest.mark.parametrize(
    "coeffs, message",
    [(["a", 0.1], "coefficients must be a numeric array"), ([1j, 0], "coefficients must be real")],
    ids=["string", "complex"],
)
def test_distillation_norm_names_a_non_real_coefficient(coeffs, message):
    with pytest.raises(InvalidParameterError, match=message):
        m_distillation_norm(coeffs, 2)


def test_distillation_norm_takes_a_complex_typed_real_coefficient_without_a_warning():
    # pytest turns warnings into errors, so a ComplexWarning from a float cast would fail here.
    assert m_distillation_norm([np.complex128(0.9), 0], 2) == 0.9


QPD = nme_wire_cut(0.5)

# Each former hand-written integer range check, with the name its message must carry.
INTEGER_RANGES = {
    "seed": (lambda: RandomSource(2**64), "seed", OutOfRangeError),
    "stream_id": (lambda: RandomSource(0, -1), "stream_id", OutOfRangeError),
    "allocate-negative": (lambda: allocate_shots(QPD, -1), "total", OutOfRangeError),
    "allocate-above-max": (lambda: allocate_shots(QPD, MAX_SHOTS + 1), "total", OutOfRangeError),
    "budget-above-max": (
        lambda: estimate_cut_expectation(QPD, I2, Z, MAX_SHOTS + 1, RandomSource(0)), "total_shots", OutOfRangeError
    ),
    "budget-zero": (lambda: estimate_cut_expectation(QPD, I2, Z, 0, RandomSource(0)), "total_shots", ZeroShotsError),
    "budget-negative": (
        lambda: estimate_cut_expectation(QPD, I2, Z, -3, RandomSource(0)), "total_shots", ZeroShotsError
    ),
    "n_states-zero": (lambda: ExperimentConfig(n_states=0), "n_states", OutOfRangeError),
    "n_states-above-cap": (lambda: ExperimentConfig(n_states=2**22 + 1), "n_states", OutOfRangeError),
    "shot_grid-zero": (lambda: ExperimentConfig(shot_grid=(0, 10)), "shot_grid", OutOfRangeError),
    "shot_grid-above-max": (lambda: ExperimentConfig(shot_grid=(2**49,)), "shot_grid", OutOfRangeError),
    "m-zero": (lambda: m_distillation_norm((1.0, 0.0), 0), "m", OutOfRangeError),
}


@pytest.mark.parametrize("call, name, error", INTEGER_RANGES.values(), ids=INTEGER_RANGES.keys())
def test_integer_door_names_the_argument_and_keeps_its_error_type(call, name, error):
    with pytest.raises(error, match=rf"^{name} must"):
        call()


def test_open_bound_is_not_printed():
    with pytest.raises(OutOfRangeError) as lower:
        m_distillation_norm((1.0, 0.0), 0)
    with pytest.raises(OutOfRangeError) as upper:
        estimate_cut_expectation(QPD, I2, Z, MAX_SHOTS + 1, RandomSource(0))
    assert str(lower.value) == "m must be >= 1, got 0"
    assert str(upper.value) == f"total_shots must be <= {MAX_SHOTS}, got {MAX_SHOTS + 1}"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: estimate_cut_expectation(None, I2, Z, 10, RandomSource(1)), "QuasiProbDecomposition, got NoneType"),
        (lambda: allocate_shots(None, 10), "QuasiProbDecomposition, got NoneType"),
        (lambda: reconstruct_channel(None), "QuasiProbDecomposition, got NoneType"),
        # Each of these three used to end in a bare AttributeError or TypeError, or be accepted.
        (lambda: QuasiProbDecomposition((1.0,)), "QpdTerm, got float"),
        (lambda: QuasiProbDecomposition(5), "iterable of QpdTerm, got int"),
        (lambda: QpdTerm(1.0, "chan"), "QuantumChannel, got str"),
        (lambda: QpdTerm(1.0, measure_prepare_channel(I2), consumes_resource="no"), "bool, got str"),
        # These two used to end in a bare AttributeError on `in_dim`.
        (lambda: conjugate_channel(H, "x"), "QuantumChannel, got str"),
        (lambda: conjugate_channel(H, np.eye(2)), "QuantumChannel, got ndarray"),
    ],
    ids=[
        "estimate_cut_expectation",
        "allocate_shots",
        "reconstruct_channel",
        "decomposition-term",
        "decomposition-not-iterable",
        "term-channel",
        "term-flag",
        "conjugate-string",
        "conjugate-bare-matrix",
    ],
)
def test_wrong_type_is_named(call, message):
    with pytest.raises(InvalidParameterError, match=f"^expected an? {message}$"):
        call()


@pytest.mark.parametrize("kraus", [5, np.eye(2)], ids=["int", "bare-matrix"])
def test_channel_takes_one_kraus_stack(kraus):
    with pytest.raises(InvalidParameterError, match="^Kraus operators must be 3-d"):
        QuantumChannel(kraus)


SRC = Path(nmecut.__file__).parent


def unnamed_raises(source, namespace):
    """`raise` statements in `source` whose exception is not an NmecutError subclass of `namespace`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:  # a bare re-raise keeps the caught error
            continue
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        raised = namespace.get(target.id) if isinstance(target, ast.Name) else None
        if not (isinstance(raised, type) and issubclass(raised, NmecutError)):
            found.append(f"line {node.lineno}: raise {ast.unparse(node.exc)}")
    return found


def test_static_check_flags_a_builtin_error():
    source = "try:\n    pass\nexcept OSError:\n    raise\nraise InvalidParameterError('x')\nraise TypeError\nraise ValueError('y')\n"
    assert unnamed_raises(source, {"InvalidParameterError": InvalidParameterError}) == [
        "line 6: raise TypeError",
        "line 7: raise ValueError('y')",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_raises_only_named_errors(path):
    module = nmecut if path.stem == "__init__" else importlib.import_module(f"nmecut.{path.stem}")
    assert unnamed_raises(path.read_text(encoding="utf-8"), vars(module)) == []
