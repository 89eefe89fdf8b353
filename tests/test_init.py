"""Tests for the package's public namespace and the README quickstart that uses it."""

from pathlib import Path

import numpy as np

import nmecut

# The README quickstart imports six of these and bench/workloads.py reads all
# twelve as nmecut.X; every other name is imported from its submodule.
TOP_LEVEL = {
    "RandomSource",
    "estimate_cut_expectation",
    "exact_expectation",
    "haar_random_unitary",
    "harada_wire_cut",
    "nme_state",
    "nme_wire_cut",
    "overlap_f_pure",
    "reconstruct_channel",
    "teleportation_channel",
    "teleportation_circuit_channel",
    "unitary_channel",
}


def test_top_level_names_are_exactly_the_quickstart_and_bench_names():
    assert sorted(nmecut.__all__) == sorted(TOP_LEVEL)


def test_every_exported_name_resolves():
    missing = [name for name in nmecut.__all__ if not hasattr(nmecut, name)]
    assert missing == []


def readme_quickstart() -> str:
    """The python block under the README's "## Library quickstart" heading."""
    section = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").split("## Library quickstart\n")[1]
    return section.split("```python\n")[1].split("```")[0]


def test_readme_quickstart_runs(capsys):
    namespace = {}
    exec(compile(readme_quickstart(), "README.md", "exec"), namespace)
    assert np.abs(nmecut.reconstruct_channel(namespace["qpd"]) - namespace["identity"]).max() <= 1e-10
    assert "estimate" in namespace and capsys.readouterr().out.count("\n") >= 3
