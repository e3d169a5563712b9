"""One failure class per exit code: what ``src/`` raises and how ``main`` maps it."""
import ast
import builtins
import importlib
import json
from pathlib import Path

import pytest

from ccdsim import experiments
from ccdsim.cli import main

SOURCE = Path(__file__).resolve().parents[1] / "src" / "ccdsim"
#: the run failures, one class per exit code
FAILURES = {"ConfigError", "NumericalError"}
#: programming errors, which ``main`` does not map: (module, function, class)
PROGRAMMING_ERRORS = {("propagator", "su2_power", "TypeError")}


def modules():
    for path in sorted(SOURCE.glob("*.py")):
        yield path.stem, importlib.import_module(f"ccdsim.{path.stem}"), ast.parse(path.read_text())


def resolve(module, node):
    """The object a base-class expression names in ``module``, or None."""
    name = ast.unparse(node)
    value = getattr(module, name.split(".")[0], getattr(builtins, name.split(".")[0], None))
    for part in name.split(".")[1:]:
        value = getattr(value, part, None)
    return value


def test_the_only_exception_classes_are_the_two_in_errors():
    found = set()
    for stem, module, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, type) and issubclass(base, BaseException)
                for base in (resolve(module, b) for b in node.bases)
            ):
                found.add((stem, node.name))
    assert found == {("errors", name) for name in FAILURES}


def test_every_raise_names_a_failure_class():
    strays = set()
    for stem, _, tree in modules():
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                    name = ast.unparse(node.exc.func)
                    if name not in FAILURES:
                        strays.add((stem, function.name, name))
    assert strays == PROGRAMMING_ERRORS


CHEVRON = ["chevron", "--detuning-points", "2", "--durations", "4"]


def test_an_unexpected_exception_leaves_main_with_its_traceback(tmp_path, monkeypatch, capsys):
    def broken(*args):
        raise ValueError("an internal fault")

    monkeypatch.setattr(experiments, "evolve_grid", broken)
    out = tmp_path / "c.csv"
    with pytest.raises(ValueError, match="an internal fault"):
        main(CHEVRON + ["--out", str(out)])
    assert not out.exists()
    assert capsys.readouterr().err == ""


def error_record(capsys):
    return json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("make", [lambda path: None, lambda path: path.mkdir()],
                         ids=["missing", "directory"])
def test_an_unreadable_config_file_is_an_io_error(tmp_path, capsys, make):
    config = tmp_path / "run.cfg"
    make(config)
    out = tmp_path / "c.csv"
    assert main(CHEVRON + ["--config", str(config), "--out", str(out)]) == 4
    assert error_record(capsys)["kind"] == "io"
    assert not out.exists()


@pytest.mark.parametrize("option", ["--config", "--program"])
def test_a_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys, option):
    path = tmp_path / "bytes"
    path.write_bytes(b"\xff\xfe")
    out = tmp_path / "o.csv"
    command = ["dressed", "--rabi-hz", "2.2e6", option, str(path), "--out", str(out)]
    assert main(command) == 2
    record = error_record(capsys)
    assert record["kind"] == "config"
    assert record["message"].startswith(f"{option} file {str(path)!r} is not UTF-8: ")
    assert "utf-8" in record["message"]
    assert not out.exists()
