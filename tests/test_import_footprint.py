"""scipy is loaded by the first ARIMA fit, and by nothing before it.

scipy (signal, optimize, linalg, stats) is about 67 MB of every process
that imports it, and only ``ArimaModel`` uses it.  The check runs in a
fresh interpreter: this test process may already have scipy loaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SCRIPT = textwrap.dedent(
    """
    import sys

    import repro, repro.cli, repro.scale, repro.runtime, repro.harness.experiment
    from repro.harness.experiment import ExperimentConfig, run_experiment

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    assert not scipy_modules(), ("after import", scipy_modules()[:5])
    run_experiment(ExperimentConfig(system="samya-majority", duration=10.0, seed=3))
    assert not scipy_modules(), ("after a sim run", scipy_modules()[:5])

    from repro.prediction.arima import ArimaModel

    model = ArimaModel(p=1, d=0, q=1)
    model.fit([float((7 * i) % 13) for i in range(64)])
    assert {"scipy.optimize", "scipy.signal"} <= set(scipy_modules())
    """
)


def test_scipy_loads_at_the_first_arima_fit():
    src = str(Path(repro.__file__).parent.parent)
    process = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr[-2000:]
