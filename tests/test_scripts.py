"""The scripts run against the bundled sample corpus."""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import urllib.request
from array import array
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_sms_benchmark_runs_on_sample_corpus():
    flags = ["--input", "tests/data/sample_messages.tsv", "--stem", "on",
             "--stop-words", "top:5"]
    for extra in ([], ["--variant", "bernoulli"]):
        result = _run_script("scripts/sms_benchmark.py", *flags, *extra)
        assert result.returncode == 0, result.stderr
        assert any(line.startswith("accuracy:") for line in result.stdout.splitlines())
        # the script is nbtext evaluate with the paper's settings, then the wall time
        cli = _run_script("-m", "nbtext.cli", "evaluate", "--variant", "multinomial",
                          "--seed", "42", *flags, *extra)
        report, wall_time = result.stdout.rstrip("\n").rsplit("\n", 1)
        assert wall_time.startswith("wall time: ")
        assert report + "\n" == cli.stdout


def test_fetch_sms_corpus_leaves_an_existing_file_alone(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "fetch_sms_corpus", ROOT / "scripts" / "fetch_sms_corpus.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    dest = tmp_path / "SMSSpamCollection"
    dest.write_bytes(b"ham\tkeep me\n")

    def no_network(*args, **kwargs):
        raise AssertionError("fetch_sms_corpus.py opened a URL")

    monkeypatch.setattr(urllib.request, "urlopen", no_network)
    monkeypatch.setattr(sys, "argv", ["fetch_sms_corpus.py", "--dest", str(dest)])
    assert script.main() == 0
    assert capsys.readouterr().out == f"{dest} already exists; nothing to do\n"
    assert dest.read_bytes() == b"ham\tkeep me\n"


def test_toy_example_prints_the_papers_decisions():
    result = _run_script("scripts/toy_example.py")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "decision: +" in lines
    assert "decision under uniform priors: -" in lines


SAMPLE = "tests/data/sample_messages.tsv"


@pytest.mark.parametrize("command", [
    ["evaluate", "--input", SAMPLE, "--variant", "multinomial", "--weighting",
     "tfidf", "--ngram", "2", "--stem", "on", "--stop-words", "top:5", "--seed", "3"],
    ["predict", "--probs", "--model", "MODEL"],
], ids=["evaluate", "predict"])
def test_traced_cli_matches_untraced(tmp_path, command):
    """perfbench/tracer.py looks up every function it traces by name, so a
    rename in nbtext breaks traced benchmark runs; its output must also equal
    the plain CLI's."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )

    def run(*argv, stdin=None):
        return subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=env, input=stdin,
            capture_output=True, timeout=120,
        )

    model = tmp_path / "model.json"
    trained = run("-m", "nbtext.cli", "train", "--input", SAMPLE, "--model",
                  str(model), "--variant", "bernoulli", "--stem", "on")
    assert trained.returncode == 0, trained.stderr
    command = [str(model) if arg == "MODEL" else arg for arg in command]
    texts = b"".join(
        line.split(b"\t", 1)[1] for line in (ROOT / SAMPLE).read_bytes().splitlines(True)
    )
    plain = run("-m", "nbtext.cli", *command, stdin=texts)
    assert plain.returncode == 0, plain.stderr
    traced = run("perfbench/tracer.py", str(tmp_path / "spans"), "test", "--",
                 *command, stdin=texts)
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert (tmp_path / "spans.json").exists()
    # the archive stems, so the tracer must have caught porter_stem
    counts = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))["counts"]
    assert counts["porter.calls"] > 0


def test_traced_evaluate_records_the_split(tmp_path):
    """evaluate splits its corpus with evaluation.split, so a traced run times
    the split as a span of its own."""
    spans = tmp_path / "spans"
    result = _run_script("perfbench/tracer.py", str(spans), "test", "--", "evaluate",
                         "--input", SAMPLE, "--variant", "multinomial", "--seed", "3")
    assert result.returncode == 0, result.stderr
    header = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    names = array("H")  # the first of the arrays in spans.bin: one name id per span
    with open(tmp_path / "spans.bin", "rb") as fh:
        names.fromfile(fh, header["n_spans"])
    assert names.count(header["names"].index("evaluation.split")) >= 1


def test_every_traced_name_is_a_function():
    """perfbench/tracer.py rebinds each name in its TRACED table; its source is
    read, not imported, so that nothing under perfbench/ runs or is written."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    traced, = (
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    )
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"nbtext.{layer}")
        for name in names:
            # porter_stem is a function under functools.lru_cache
            traced_fn = inspect.unwrap(getattr(module, name, None))
            assert inspect.isfunction(traced_fn), f"nbtext.{layer}.{name}"
