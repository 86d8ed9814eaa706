"""The benchmark workloads' JSON tables keep their exact bytes.

Each case runs the CLI on a config from perfbench/workloads.py, loaded by
path as the benchmark loads it, and compares the SHA-256 of the table it
writes with a pin. These commands run in mpmath alone, so their bits do
not depend on the BLAS build; `capacity` and `predict`, whose float64
Symm solve does, are left out.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from landaucap.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# The pinned SHA-256 of each case's table. A change that alters one of
# these outputs on purpose updates its pin and says why in CHANGES.md.
PINS = {
    "toeplitz-offcenter-seed1": (
        ("toeplitz", "offcenter_config", 1, ()),
        "07c4e1f1a7a6a777c3617969636e5f70b46485fbd6bea560fcd70e96a090303c"),
    "toeplitz-offcenter-seed7": (
        ("toeplitz", "offcenter_config", 7, ()),
        "a7ef93d46cf8c84f6529bf009a8123b5870d2d608b989a35e05694f765beb9ea"),
    "toeplitz-ball-level1": (
        ("toeplitz", "ball_config", 1, ("--precision", "256")),
        "3346e9e935cef9b8f1637f88cf1876623ba000a8e29a02fec1f15001d1c103e6"),
    "orthopoly-square-seed1": (
        ("orthopoly", "square_config", 1, ()),
        "b0b41251b159c10774470981141ecfe2c8638b25a140269a80558bed5363d4b1"),
    "orthopoly-square-seed7": (
        ("orthopoly", "square_config", 7, ()),
        "918b15c06aa8fd1792188fad850df97c9acffdae6c2a7719211edf206aa2ffc8"),
}


def load_workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        # dataclass reads the module's namespace from sys.modules
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("case", PINS)
def test_output_bytes_match_the_pin(tmp_path, case):
    (command, config, seed, extra), pin = PINS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(getattr(load_workloads(), config)(seed)))
    out = tmp_path / "out.json"
    assert main([command, "--config", str(cfg), "--format", "json", "--output", str(out),
                 *extra]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pin
