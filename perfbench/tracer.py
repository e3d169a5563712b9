"""Spans around calls into the ccdsim layers, recorded from outside the package.

``Tracer.install`` wraps every public function (the callables in a loaded
ccdsim module's ``__all__``) and rebinds every module attribute that refers
to it, because ``experiments``, ``pulses``, ``rb`` and ``cli`` import these
functions by name. It also wraps:

* the ``coefficients`` of each Hamiltonian returned by the three
  ``*_hamiltonian`` builders (spans ``drive.coefficients.<frame>``);
* the experiment callable handed to ``noise_average`` (``experiments.noise_shot``);
* ``scipy.optimize.curve_fit`` where a ccdsim module imported it by name
  (``<module>.curve_fit``).

A span is ``[name, start, end, parent, counts]``, kept in memory in a list
per thread until ``dump`` writes them all. ``parent`` indexes the same
thread's list (-1 for none), so self time is computed per thread. Counts
are taken at the call boundary from arguments and results. Nothing here
changes what the wrapped functions compute.
"""
import dataclasses
import functools
import inspect
import json
import math
import sys
import threading
from time import perf_counter

_HAMILTONIAN_BUILDERS = {
    "lab_hamiltonian": "lab",
    "first_frame_hamiltonian": "first",
    "second_frame_hamiltonian": "second",
}

#: public functions whose calls carry counts taken from their arguments
_COUNTED = {
    "pulses.simulate_program",
    "rb.randomized_benchmarking",
    "dataset.emit_dataset",
    "experiments.noise_average",
}


def _leading_size(shape):
    return math.prod(shape[:-1]) if shape else 1


class Tracer:
    """In-memory span recorder for one process; see the module docstring."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # (thread ident, span list, is main thread)

    # -- recording -------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            main = threading.current_thread() is threading.main_thread()
            with self._lock:
                self._threads.append((threading.get_ident(), local.spans, main))
        return local.spans, local.stack

    def call(self, name, fn, args=(), kwargs=None, counts=None):
        spans, stack = self._state()
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, counts]
        stack.append(len(spans))
        spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            record[2] = perf_counter()
            stack.pop()

    def root(self, fn):
        """Run the workload's compute step as the root span of the main thread."""
        return self.call("root", fn)

    def dump(self, path):
        threads = [
            {"thread": ident, "main": main, "spans": spans}
            for ident, spans, main in self._threads
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"threads": threads}, handle)

    # -- wrapping --------------------------------------------------------
    def _coefficients(self, ham, frame):
        inner = ham.coefficients
        name = f"drive.coefficients.{frame}"

        def coefficients(times):
            return self.call(
                name, inner, (times,), counts={"samples": getattr(times, "size", 1)}
            )

        return dataclasses.replace(ham, coefficients=coefficients)

    def _counts(self, name, signature, args, kwargs):
        """Counts for one call, and the arguments to call with."""
        if name == "propagator.su2_exp":
            return {"exps": _leading_size(getattr(args[0], "shape", ()))}, args, kwargs
        if name not in _COUNTED:
            return None, args, kwargs
        given = signature.bind(*args, **kwargs)
        given.apply_defaults()
        arguments = given.arguments
        if name == "pulses.simulate_program":
            counts = {"segments": len(arguments["program"].segments)}
        elif name == "rb.randomized_benchmarking":
            noise = arguments["noise"]
            counts = {
                "sequences": len(arguments["m_list"]) * arguments["k_randomizations"],
                "shots": 1 if arguments["ideal"] or noise is None else noise.samples,
            }
        elif name == "dataset.emit_dataset":
            counts = {"rows": _leading_size(arguments["data"].values.shape)}
        else:  # experiments.noise_average: count the shots it runs
            experiment = arguments["experiment"]
            arguments["experiment"] = lambda *shot: self.call(
                "experiments.noise_shot", experiment, shot
            )
            return None, given.args, given.kwargs
        return counts, args, kwargs

    def _wrap(self, name, fn):
        """Wrapper recording one span per call, with counts for some names."""
        frame = _HAMILTONIAN_BUILDERS.get(name.partition(".")[2])
        signature = inspect.signature(fn) if name in _COUNTED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if frame is not None:
                return self._coefficients(self.call(name, fn, args, kwargs), frame)
            try:
                counts, args, kwargs = self._counts(name, signature, args, kwargs)
            except (AttributeError, IndexError, KeyError, TypeError):
                counts = None  # a changed signature leaves the counts absent
            result = self.call(name, fn, args, kwargs, counts)
            if name == "dataset.emit_dataset" and counts is not None:
                counts["bytes"] = len(result)
            return result

        return wrapper

    def install(self):
        """Wrap the public functions of every loaded ccdsim module."""
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if key == "ccdsim" or key.startswith("ccdsim.")
        ]
        wrappers = {}  # id of the original function -> its wrapper
        for module in modules:
            if module.__name__ == "ccdsim.cli":
                continue  # cli.main is the root span; its glue is the root's self time
            layer = module.__name__.rpartition(".")[2]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if (
                    callable(fn)
                    and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == module.__name__
                ):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        fit = getattr(sys.modules.get("scipy.optimize"), "curve_fit", None)
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:  # the wrappers keep the originals alive
                    setattr(module, attr, wrappers[id(value)])
                elif fit is not None and value is fit:
                    setattr(module, attr, self._wrap(f"{layer}.curve_fit", fit))
