"""Output checks: stored references, invariants, and the checker's self-test.

Outputs are flattened to ``{name: [float, ...]}``: every CSV column plus the
numeric fidelity fields of the header for CLI workloads, and the real and
imaginary parts of the 2x2 unitary for ``lab_trace``.

At the seed a reference was generated with (or at any seed, for workloads
whose inputs do not depend on it) every stored value must match within the
reference's ``atol``. Every output, at any seed, must also satisfy the
workload's invariants: populations in [0, 1], |signal| <= 1, unitarity
defect <= 1e-10, and the expected row count. Comparisons are written so that
NaN fails them.
"""
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")

#: slack on [0, 1] bounds, as in ccdsim's own SweepGrid check
BOUND_SLACK = 1e-9
UNITARITY_LIMIT = 1e-10
#: size of the single-value perturbation the self-test must catch
SELF_TEST_PERTURBATION = 1e-5

FIDELITY_FIELDS = ("meta.clifford_fidelity", "meta.average_gate_fidelity")
#: the value column of each workload and its length
MAIN_VALUE = {
    "sweep_lattice": "p_up",
    "sequence_noise": "p_up",
    "rb_long": "signal",
    "lab_trace": "u.re",
}
EXPECTED_ROWS = {"sweep_lattice": 41 * 256, "sequence_noise": 64, "rb_long": 9, "lab_trace": 4}


def parse_output(workload, payload):
    """Flatten one output file's bytes to ``{name: [float, ...]}``."""
    text = payload.decode("utf-8")
    if workload == "lab_trace":
        u = json.loads(text)["u"]
        cells = [cell for row in u for cell in row]
        return {"u.re": [c[0] for c in cells], "u.im": [c[1] for c in cells]}
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(cell) for cell in line.split(",")])
    if header is None:
        raise ValueError("output has no header row")
    values = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    for key in FIDELITY_FIELDS:
        if key in meta:
            values[key] = [float(meta[key])]
    return values


def _in_bounds(xs, low, high):
    return all(low <= x <= high for x in xs)


def _unitarity_defect(values):
    u = [complex(r, i) for r, i in zip(values["u.re"], values["u.im"])]
    a, b, c, d = u
    # (U^dagger U - I) entries for U = [[a, b], [c, d]]
    entries = (
        abs(a.conjugate() * a + c.conjugate() * c - 1.0),
        abs(a.conjugate() * b + c.conjugate() * d),
        abs(b.conjugate() * a + d.conjugate() * c),
        abs(b.conjugate() * b + d.conjugate() * d - 1.0),
    )
    return max(entries)


def invariant_problems(workload, values):
    """Seed-independent checks on one flattened output."""
    name, rows = MAIN_VALUE[workload], EXPECTED_ROWS[workload]
    if len(values.get(name, ())) != rows:
        return [f"{name}: expected {rows} values, got {len(values.get(name, ()))}"]
    problems = []
    if workload in ("sweep_lattice", "sequence_noise"):
        if not _in_bounds(values["p_up"], -BOUND_SLACK, 1.0 + BOUND_SLACK):
            problems.append("p_up outside [0, 1]")
    elif workload == "rb_long":
        if not _in_bounds(values["signal"], -1.0 - BOUND_SLACK, 1.0 + BOUND_SLACK):
            problems.append("|signal| > 1")
        for key in FIDELITY_FIELDS:
            if not _in_bounds(values.get(key, [math.nan]), 0.0, 1.0):
                problems.append(f"{key} missing or outside [0, 1]")
    else:
        defect = _unitarity_defect(values)
        if not defect <= UNITARITY_LIMIT:
            problems.append(f"unitarity defect {defect:.3e} > {UNITARITY_LIMIT:.0e}")
    return problems


def load_reference(workload):
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def reference_applies(reference, seed):
    return not reference["seed_dependent"] or seed == reference["seed"]


def reference_problems(reference, values):
    """Stored values that the output misses by more than the reference's atol."""
    atol = reference["atol"]
    problems = []
    for name, expected in reference["values"].items():
        got = values.get(name)
        if got is None or len(got) != len(expected):
            problems.append(f"{name}: shape differs from the reference")
            continue
        worst = max((abs(g - e) for g, e in zip(got, expected)), default=0.0)
        if not worst <= atol:
            problems.append(f"{name}: max |diff| {worst:.3e} > atol {atol:.0e}")
    return problems


def check_output(workload, payload, seed, reference):
    """All problems with one output file; empty when it is correct."""
    try:
        values = parse_output(workload, payload)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparsable output: {exc}"]
    problems = invariant_problems(workload, values)
    if reference_applies(reference, seed):
        problems += reference_problems(reference, values)
    return problems


def _render(workload, values):
    """Output bytes carrying ``values``, in the workload's own file format."""
    if workload == "lab_trace":
        pairs = [[r, i] for r, i in zip(values["u.re"], values["u.im"])]
        return json.dumps({"u": [pairs[:2], pairs[2:]]}).encode("utf-8")
    lines = [f"# {key}={values[key][0]!r}" for key in FIDELITY_FIELDS if key in values]
    columns = [name for name in values if name not in FIDELITY_FIELDS]
    lines.append(",".join(columns))
    lines += [",".join(repr(x) for x in row) for row in zip(*(values[c] for c in columns))]
    return ("\n".join(lines) + "\n").encode("utf-8")


def self_test(workloads):
    """Show that a reference passes and a 1e-5 change to one value fails.

    Returns the checker defects found; empty when the checker works.
    """
    defects = []
    for workload in workloads:
        reference = load_reference(workload)
        values = {name: list(xs) for name, xs in reference["values"].items()}
        seed = reference["seed"]
        original = _render(workload, values)
        if check_output(workload, original, seed, reference):
            defects.append(f"{workload}: the stored reference fails its own checks")
        name = MAIN_VALUE[workload]
        values[name][len(values[name]) // 2] += SELF_TEST_PERTURBATION
        perturbed = _render(workload, values)
        if perturbed == original or not check_output(workload, perturbed, seed, reference):
            defects.append(f"{workload}: a {SELF_TEST_PERTURBATION:g} change to {name} passed")
    return defects
