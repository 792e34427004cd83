"""Package surface: every public name resolves, and a cold import loads little."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oligocycle
from oligocycle.cli import build_parser
from oligocycle.codec import SCHEMES


def loaded_after(statement):
    # the child imports the same oligocycle as this process, installed or not
    package_root = str(Path(oligocycle.__file__).resolve().parent.parent)
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    probe = subprocess.run(
        [sys.executable, "-c", f"{statement}; import sys; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env,
    )
    assert probe.returncode == 0, probe.stderr
    return set(probe.stdout.split())


def test_import_loads_neither_codec_nor_bits_nor_json():
    loaded = loaded_after("import oligocycle")
    assert "oligocycle" in loaded
    assert not loaded & {"oligocycle.codec", "oligocycle.bits", "json"}


def test_cli_import_loads_neither_codec_nor_bits():
    loaded = loaded_after("import oligocycle.cli")
    assert "oligocycle.cli" in loaded
    assert not loaded & {"oligocycle.codec", "oligocycle.bits"}


def test_cli_import_loads_neither_cost_nor_sequence():
    # only the commands that use them import them, so the others compile neither
    loaded = loaded_after("import oligocycle.cli")
    assert not loaded & {"oligocycle.cost", "oligocycle.sequence"}


def test_counting_import_loads_no_sequence():
    loaded = loaded_after("import oligocycle.counting")
    assert "oligocycle.counting" in loaded
    assert "oligocycle.sequence" not in loaded


def test_commands_that_never_count_load_no_counting():
    loaded = loaded_after("import oligocycle.cli, oligocycle.capacity, oligocycle.cost")
    assert {"oligocycle.cli", "oligocycle.capacity", "oligocycle.cost"} <= loaded
    assert "oligocycle.counting" not in loaded


PUBLIC_NAMES = [
    "CorruptDataError", "CostParams", "CountCache", "DomainError", "EncodedBatch", "Oligo",
    "RateRow", "SupersequenceSpec", "alternating_prefix", "balanced_params", "binary_entropy",
    "brute_force_count", "cap_fixed_length", "cap_flexible", "capacity_root_fixed",
    "capacity_root_flexible", "cost_at_capacity", "decode_payload", "empirical_cap",
    "encode_payload", "min_cycles_under", "minimize_over_alphabet", "minimize_over_rho",
    "multisize_rate", "optimal_alpha", "rate_table", "rho_peak", "rho_star",
    "subsequence_count", "subsequence_rank", "subsequence_unrank",
]
# string-level wrappers of the block codes and test oracles, no longer public
REMOVED_NAMES = [
    "balanced_block_decode", "balanced_block_encode", "base_decode", "base_encode",
    "knuth_balance", "knuth_unbalance", "materialize", "offer_gap", "synthesis_cycles",
]


def test_public_surface_is_pinned():
    assert oligocycle.__all__ == PUBLIC_NAMES
    for name in REMOVED_NAMES:
        with pytest.raises(AttributeError, match=name):
            getattr(oligocycle, name)


def test_every_public_name_resolves_to_its_home_module_object():
    star = {}
    exec("from oligocycle import *", star)
    assert sorted(oligocycle.__all__) == oligocycle.__all__
    assert set(oligocycle.__all__) <= set(dir(oligocycle))
    for name in oligocycle.__all__:
        value = getattr(oligocycle, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("oligocycle.")
        assert getattr(home, name) is value
        assert star[name] is value
    assert set(star) - {"__builtins__"} == set(oligocycle.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        oligocycle.no_such_name  # noqa: B018
    assert not hasattr(oligocycle, "codec_payload")


def test_cli_scheme_choices_are_the_codec_schemes():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    scheme = next(a for a in sub.choices["encode"]._actions if a.dest == "scheme")
    assert list(scheme.choices) == sorted(SCHEMES)
