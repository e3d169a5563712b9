"""One workload process: set up, mark readiness, compute, write the output.

Spawned by ``run.py`` with a single JSON argument::

    {"kind": "cli" | "lab", "argv": [...], "out": PATH, "ready": PATH,
     "setup_only": bool, "trace": PATH or null, "src": PATH}

Set-up is everything up to the readiness mark: interpreter start, importing
ccdsim and building the inputs (the parsed command line for CLI workloads,
the lab-frame Hamiltonian for ``lab``). The readiness time is written to
``ready`` as a CLOCK_MONOTONIC reading, which the parent subtracts from its
own reading taken just before the spawn. With ``setup_only`` the process
exits at the mark. With ``trace`` the public ccdsim functions are wrapped in
spans (see ``tracer.py``) and the spans are written to that path at the end.

Nothing but the standard library is imported before ccdsim, so that the
import-time trace (``python -X importtime``) attributes numpy and scipy to
the ccdsim modules that pull them in.
"""
import functools
import json
import os
import sys
import time


def require_checkout(src):
    """Refuse an installed ccdsim: the benchmark measures the checkout's sources."""
    import ccdsim

    here = os.path.realpath(os.path.dirname(ccdsim.__file__))
    if here != os.path.realpath(os.path.join(src, "ccdsim")):
        raise SystemExit(f"ccdsim imported from {here}, not from {src}")


def _import_ccdsim(kind, src):
    if kind == "cli":
        import ccdsim.cli
    else:
        import ccdsim.drive
        import ccdsim.propagator
    require_checkout(src)


def _lab_inputs():
    from ccdsim.drive import Scheme, default_config, lab_hamiltonian

    return lab_hamiltonian(default_config(Scheme.CMCCD))


def _lab_compute(ham, out):
    from ccdsim.propagator import LAB_SPEC, propagator_unitary

    u = propagator_unitary(ham, 0.0, 2e-6, LAB_SPEC)
    doc = {"u": [[[z.real, z.imag] for z in row] for row in u.tolist()]}
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, sort_keys=True) + "\n")
    return 0


def main():
    job = json.loads(sys.argv[1])
    kind = job["kind"]
    _import_ccdsim(kind, job["src"])
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if kind == "cli":
        import ccdsim.cli

        argv = job["argv"] + ["--out", job["out"]]
        ccdsim.cli.build_parser().parse_args(argv)
        compute = functools.partial(ccdsim.cli.main, argv)
    else:
        ham = _lab_inputs()
        compute = functools.partial(_lab_compute, ham, job["out"])
    with open(job["ready"], "w", encoding="utf-8") as handle:
        handle.write(repr(time.monotonic()))
    if job.get("setup_only"):
        return 0
    code = tracer.root(compute) if tracer else compute()
    if tracer:
        tracer.dump(job["trace"])
    return code


if __name__ == "__main__":
    sys.exit(main())
