"""Every config of the benchmark corpus loads.

``perfbench/workloads.py`` builds its configs as plain data, without this
package.  Here each one goes through ``parse_config``, for every workload,
seeds 1-3, tiny and full, so a change to what a config may hold cannot
refuse the benchmark's inputs unseen.  The module reads ``perfbench/`` and
writes nothing there.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, build  # noqa: E402

from shrinktarget.config import parse_config  # noqa: E402


@pytest.mark.parametrize("tiny", [True, False], ids=["tiny", "full"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_config_loads(name, seed, tiny):
    systems = build(name, seed, tiny).systems
    assert systems
    for system in systems:
        parse_config(system.config)
