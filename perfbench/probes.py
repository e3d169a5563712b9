"""Layer probes: isolated calls to public ccdsim functions at fixed sizes.

    python3 perfbench/probes.py SRC_DIR

Run as its own process, untraced; prints one JSON object. Each probe times
``REPEATS`` calls after one warm-up call and reports the median. Sample,
step and row counts are counted at the call boundary (the size of the
argument handed to the function), not inside it.
"""
import json
import statistics
import sys
import time

REPEATS = 15
#: time samples per Hamiltonian.coefficients call and steps per su2_exp call
SAMPLES = 1 << 16
#: calls of propagator_unitary over one modulation period
PERIOD_REPEATS = 60
#: dataset rows: the default chevron grid, 41 detunings x 256 durations
GRID = (41, 256)


def _median_s(fn, repeats=REPEATS):
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    import numpy as np

    from ccdsim.dataset import Dataset, emit_dataset
    from ccdsim.drive import (
        Scheme,
        default_config,
        first_frame_hamiltonian,
        lab_hamiltonian,
        second_frame_hamiltonian,
    )
    from ccdsim.experiments import AxisDef
    from ccdsim.propagator import ROTATING_SPEC, propagator_unitary, su2_exp

    from child import require_checkout

    require_checkout(sys.argv[1])
    cfg = default_config(Scheme.CMCCD)
    times = np.linspace(0.0, 2e-6, SAMPLES)
    out = {}
    for frame, build in (
        ("first", first_frame_hamiltonian),
        ("second", second_frame_hamiltonian),
        ("lab", lab_hamiltonian),
    ):
        ham = build(cfg)
        seconds = _median_s(lambda: ham.coefficients(times))
        out[f"drive.coeff_ns_per_sample.{frame}"] = seconds / times.size * 1e9

    coeffs = second_frame_hamiltonian(cfg).coefficients(times)
    dt = float(times[1] - times[0])
    seconds = _median_s(lambda: su2_exp(coeffs, dt))
    out["propagator.su2_exp_ns_per_step"] = seconds / coeffs.shape[0] * 1e9

    second = second_frame_hamiltonian(cfg)
    period = cfg.mod_period
    seconds = _median_s(
        lambda: propagator_unitary(second, 0.0, period, ROTATING_SPEC), PERIOD_REPEATS
    )
    out["propagator.period_unitary_us"] = seconds * 1e6

    rows, cols = GRID
    data = Dataset(
        meta={"scheme": "cm", "seed": 0},
        axes=(
            AxisDef("detuning", "rad/s", np.linspace(-2.5e7, 2.5e7, rows)),
            AxisDef("duration", "s", np.arange(cols) * period),
        ),
        value_names=("p_up",),
        values=np.linspace(0.0, 1.0, rows * cols).reshape(rows, cols, 1),
        config_text="scheme = cm\n",
    )
    seconds = _median_s(lambda: emit_dataset(data), 5)
    out["dataset.emit_us_per_row"] = seconds / (rows * cols) * 1e6

    sizes = {
        "coefficient_samples": SAMPLES,
        "su2_exp_steps": SAMPLES,
        "period_s": period,
        "period_spec": "ROTATING_SPEC",
        "dataset_rows": rows * cols,
        "repeats": REPEATS,
    }
    print(json.dumps({"metrics": out, "sizes": sizes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
