#!/usr/bin/env python3
"""Offline benchmark of the nbtext command-line program.

Run from the repository root:

    python3 perfbench/run.py --workload sms_train_stem --seed 1 --seconds 20 --trace 0

The benchmark generates seeded corpora (see ``corpus.py``), runs
``python -m nbtext.cli`` from ``src/`` in a child process for each timed
command, checks every output, and prints each metric as ``name value unit``
followed by one JSON result line. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced commands with
commands run in-process under ``tracer.py`` and reports per-layer metrics
derived from the spans. Workloads and metrics are described in README.md.
"""

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from corpus import SMS, TOPICS, CorpusGenerator, write_labelled, write_texts  # noqa: E402
from tracer import ARRAYS, TRACED  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Sizes. The corpora are regenerated from the seed on every run.
SMS_TRAIN_DOCS = 5000  # sms_train_stem training corpus
SMS_ARCHIVE_DOCS = 20000  # corpus behind both predict archives
SMS_HELDOUT_DOCS = 3000  # sms_train_stem accuracy set
BERNOULLI_BATCH = 150  # documents per predict command
BERNOULLI_BATCHES = 16  # distinct batches, cycled through the run
PACED_DOCS = 1200  # documents per paced stream
PACED_RATE = 800.0  # documents per second offered to predict
TOPICS_DOCS = 1000  # documents per topics_evaluate_tfidf corpus
TOPICS_CORPORA = 6  # distinct corpora, cycled through the run
SETUP_DOCS = 40  # tiny corpus behind the train/evaluate set-up commands
STOP_WORDS = "top:20"
SETUPS_PER_ROUND = 2  # set-up commands run before each full command
MIN_ROUNDS = 3  # timed rounds per run, even when --seconds is shorter


@dataclass
class Command:
    """One invocation of the CLI and what it is expected to produce."""

    args: List[str]
    n_docs: int
    stdin: Optional[Path] = None
    truth: Optional[List[str]] = None  # true labels of predict input, in order
    rate: Optional[float] = None  # paced stdin, documents per second
    output: Optional[Path] = None  # archive or report the command writes
    check: Optional[Callable[["Command", "Outcome"], List[str]]] = None


@dataclass
class Outcome:
    wall: float
    first_output: Optional[float]
    cpu: float
    rss_mb: float
    code: int
    lines: List[bytes]
    arrivals: List[float]  # seconds after launch, one per stdout line
    late: List[float] = field(default_factory=list)  # paced sender lateness
    ok: bool = True  # exit status 0 and every check passed


@dataclass
class Plan:
    """Inputs and checks of one workload at one seed."""

    setup: Command
    full: List[Command]  # cycled through the timed rounds
    params: dict
    accuracy: Callable[[List[Command], List[Outcome]], float]
    majority: float  # share of the most common label among scored documents


def child_env() -> Dict[str, str]:
    """Environment for every nbtext child: no PYTHON* settings inherited
    (PYTHONUNBUFFERED changes when output appears), a fixed hash seed, and
    bytecode cached under the work directory so imports are warm after the
    first command, as for an installed package."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def run_child(argv: List[str], cmd: Command, env: Dict[str, str], err_path: Path) -> Outcome:
    """Run one child, timestamp each stdout line, and account its resources
    with os.wait4 (RUSAGE_CHILDREN would give a maximum over all children)."""
    paced = cmd.rate is not None
    paced_lines = cmd.stdin.read_bytes().splitlines(keepends=True) if paced else []
    late = [0.0] * len(paced_lines)
    with open(err_path, "wb") as err_fh, ExitStack() as files:
        if paced:
            stdin = subprocess.PIPE
        elif cmd.stdin is not None:
            stdin = files.enter_context(open(cmd.stdin, "rb"))
        else:
            stdin = subprocess.DEVNULL
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=str(ROOT), stdin=stdin, stdout=subprocess.PIPE, stderr=err_fh
        )
    sender = None
    try:
        if paced:
            sender = threading.Thread(
                target=_send_paced, args=(proc.stdin, paced_lines, cmd.rate, t0, late)
            )
            sender.start()
        lines, arrivals = [], []
        for line in proc.stdout:
            arrivals.append(time.perf_counter() - t0)
            lines.append(line)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        if sender is not None:
            sender.join()
        proc.stdout.close()
    return Outcome(
        wall=wall,
        first_output=arrivals[0] if arrivals else None,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        lines=lines,
        arrivals=arrivals,
        late=late,
    )


def _send_paced(pipe, lines, rate, t0, late):
    """Open-loop sender: document i is due at t0 + i / rate, whatever the
    program has answered so far."""
    try:
        for i, line in enumerate(lines):
            due = t0 + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            pipe.write(line)
            pipe.flush()
            late[i] = time.perf_counter() - due
    except BrokenPipeError:
        pass
    finally:
        try:
            pipe.close()
        except BrokenPipeError:
            pass


# ---------------------------------------------------------------- checks


def _nbtext():
    import nbtext

    return nbtext


def check_predict(labels: List[str]) -> Callable[[Command, Outcome], List[str]]:
    """Every non-empty input line gets one output line ``label<TAB>l=p ...``
    with the label drawn from the model, posteriors over exactly the model's
    labels summing to 1 within print rounding, and the label at the top."""
    label_set = set(labels)
    tolerance = len(labels) * 5e-7 + 1e-9

    def check(cmd: Command, out: Outcome) -> List[str]:
        expected = sum(1 for ln in cmd.stdin.read_text(encoding="utf-8").splitlines() if ln.strip())
        if len(out.lines) != expected:
            return [f"{len(out.lines)} output lines for {expected} documents"]
        for line in out.lines:
            label, _, probs = line.decode("utf-8").rstrip("\n").partition("\t")
            pairs = dict(item.split("=") for item in probs.split())
            if label not in label_set or set(pairs) != label_set:
                return [f"labels outside the model's set: {line!r}"]
            values = {k: float(v) for k, v in pairs.items()}
            if abs(sum(values.values()) - 1.0) > tolerance:
                return [f"posteriors do not sum to 1: {line!r}"]
            if values[label] < max(values.values()) - 1e-6:
                return [f"predicted label is not the most probable: {line!r}"]
        return []

    return check


def check_train(labels: List[str]) -> Callable[[Command, Outcome], List[str]]:
    """The archive loads with ``load_archive`` and has the corpus's labels."""

    def check(cmd: Command, out: Outcome) -> List[str]:
        nbtext = _nbtext()
        try:
            archive = nbtext.load_archive(cmd.output)
        except (nbtext.ArchiveError, OSError, ValueError) as exc:
            return [f"archive does not load: {exc}"]
        if set(archive.model.priors.labels) != set(labels):
            return ["archive labels differ from the corpus labels"]
        return []

    return check


def check_evaluate(labels: List[str]) -> Callable[[Command, Outcome], List[str]]:
    """The JSON report covers round(0.2 n) test documents, its labels come
    from the corpus, and its accuracy matches its confusion matrix."""

    def check(cmd: Command, out: Outcome) -> List[str]:
        try:
            report = json.loads(cmd.output.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"no readable report: {exc}"]
        corpus_labels = set(labels)
        confusion = report["confusion"]
        n_test = int(cmd.n_docs * 0.2 + 0.5)
        if report["n_test"] != n_test:
            return [f"n_test {report['n_test']}, expected {n_test}"]
        if not set(confusion) <= corpus_labels:
            return ["report labels outside the corpus"]
        total = sum(sum(row.values()) for row in confusion.values())
        hits = sum(row.get(t, 0) for t, row in confusion.items())
        if total != n_test or abs(hits / n_test - report["accuracy"]) > 1e-12:
            return ["accuracy disagrees with the confusion matrix"]
        return []

    return check


def predict_accuracy(cmds: List[Command], outs: List[Outcome]) -> float:
    """Printed labels against the true ones, over the distinct batches."""
    scored = {id(cmd): (cmd, out) for cmd, out in zip(cmds, outs)}.values()
    hits = total = 0
    for cmd, out in scored:
        predicted = [ln.split(b"\t", 1)[0].decode("utf-8") for ln in out.lines]
        hits += sum(p == t for p, t in zip(predicted, cmd.truth))
        total += len(cmd.truth)
    return hits / total


# ------------------------------------------------------------- workloads


def _cli(*args) -> List[str]:
    return [sys.executable, "-m", "nbtext.cli", *args]


def _train_archive(env, corpus: Path, model: Path, flags: List[str]) -> None:
    """Build a predict workload's archive with the CLI itself (untimed)."""
    args = ["train", "--input", str(corpus), "--model", str(model), *flags]
    res = subprocess.run(_cli(*args), env=env, cwd=str(ROOT), capture_output=True)
    if res.returncode != 0:
        raise RuntimeError(f"preparing {model.name} failed: {res.stderr.decode()[-500:]}")


def _majority(labels: List[str]) -> float:
    return max(labels.count(lab) for lab in set(labels)) / len(labels)


def _labels(docs) -> List[str]:
    return [label for label, _ in docs]


def plan_train(work: Path, seed: int, env) -> Plan:
    gen = CorpusGenerator(SMS, seed)
    train = gen.documents(SMS_TRAIN_DOCS)
    heldout = gen.documents(SMS_HELDOUT_DOCS)
    tiny = gen.documents(SETUP_DOCS)
    flags = ["--variant", "multinomial", "--stem", "on", "--stop-words", STOP_WORDS]

    def command(name, docs):
        corpus, model = work / f"{name}.tsv", work / f"{name}.json"
        write_labelled(corpus, docs)
        return Command(
            ["train", "--input", str(corpus), "--model", str(model), *flags],
            n_docs=len(docs),
            output=model,
            check=check_train(_labels(docs)),
        )

    full = command("train", train)

    def accuracy(cmds, outs):
        # scored in this process from the archive the commands wrote
        nbtext = _nbtext()
        archive = nbtext.load_archive(full.output)
        hits = sum(
            nbtext.classify(archive.model, archive.encode_text(text)) == label
            for label, text in heldout
        )
        return hits / len(heldout)

    return Plan(
        setup=command("tiny", tiny),
        full=[full],
        params={"corpus": SMS.describe(), "train_docs": SMS_TRAIN_DOCS,
                "heldout_docs": SMS_HELDOUT_DOCS, "stop_words": STOP_WORDS},
        accuracy=accuracy,
        majority=_majority(_labels(heldout)),
    )


def _predict_plan(work, seed, env, flags, batches, batch_docs, rate) -> Plan:
    gen = CorpusGenerator(SMS, seed)
    write_labelled(work / "archive.tsv", gen.documents(SMS_ARCHIVE_DOCS))
    model = work / "model.json"
    _train_archive(env, work / "archive.tsv", model, flags)
    check = check_predict(_nbtext().load_archive(model).model.priors.labels)
    args = ["predict", "--model", str(model), "--probs"]

    def command(name, docs, rate=None):
        write_texts(work / f"{name}.txt", docs)
        return Command(args, n_docs=len(docs), stdin=work / f"{name}.txt",
                       truth=_labels(docs), rate=rate, check=check)

    full = [command(f"batch{b}", gen.documents(batch_docs), rate) for b in range(batches)]
    return Plan(
        setup=command("one", gen.documents(1)),
        full=full,
        params={"corpus": SMS.describe(), "archive_docs": SMS_ARCHIVE_DOCS,
                "archive_flags": list(flags), "batch_docs": batch_docs,
                "batches": batches, "rate_docs_per_s": rate},
        accuracy=predict_accuracy,
        majority=_majority([t for cmd in full for t in cmd.truth]),
    )


def plan_bernoulli(work: Path, seed: int, env) -> Plan:
    return _predict_plan(
        work, seed, env, ["--variant", "bernoulli", "--stem", "off"],
        BERNOULLI_BATCHES, BERNOULLI_BATCH, None,
    )


def plan_paced(work: Path, seed: int, env) -> Plan:
    return _predict_plan(
        work, seed, env,
        ["--variant", "multinomial", "--stem", "on", "--stop-words", STOP_WORDS],
        1, PACED_DOCS, PACED_RATE,
    )


def plan_topics(work: Path, seed: int, env) -> Plan:
    gen = CorpusGenerator(TOPICS, seed)
    # tf-idf weights are fractions of a count; with the default alpha of 1
    # the smoothing swamps them and accuracy follows the class sizes
    flags = ["--variant", "multinomial", "--weighting", "tfidf", "--ngram", "2",
             "--alpha", "0.01"]

    def command(name, docs):
        corpus, report = work / f"{name}.tsv", work / f"{name}.report.json"
        write_labelled(corpus, docs)
        return Command(
            ["evaluate", "--input", str(corpus), "--report-out", str(report), *flags],
            n_docs=len(docs),
            output=report,
            check=check_evaluate(_labels(docs)),
        )

    corpora = [gen.documents(TOPICS_DOCS) for _ in range(TOPICS_CORPORA)]
    full = [command(f"topics{k}", docs) for k, docs in enumerate(corpora)]

    def accuracy(cmds, outs):
        # pooled over the distinct corpora
        reports = [json.loads(c.output.read_text(encoding="utf-8"))
                   for c in {id(c): c for c in cmds}.values()]
        hits = sum(r["accuracy"] * r["n_test"] for r in reports)
        return hits / sum(r["n_test"] for r in reports)

    return Plan(
        setup=command("tiny", gen.documents(SETUP_DOCS)),
        full=full,
        params={"corpus": TOPICS.describe(), "docs": TOPICS_DOCS,
                "corpora": TOPICS_CORPORA, "test_fraction": 0.2},
        accuracy=accuracy,
        majority=_majority([lab for docs in corpora for lab in _labels(docs)]),
    )


WORKLOADS = {
    "sms_train_stem": plan_train,
    "sms_predict_bernoulli": plan_bernoulli,
    "sms_predict_paced": plan_paced,
    "topics_evaluate_tfidf": plan_topics,
}


# --------------------------------------------------------------- metrics


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def latencies(cmd: Command, out: Outcome) -> List[float]:
    """Seconds from each document's due time to its answer. A predict
    document's answer is its output line; it is due when the paced sender
    should send it, or at launch for a batch on stdin. Train and evaluate
    answer every document with the archive or report, at exit."""
    if cmd.stdin is None:
        return [out.wall]
    rate = cmd.rate
    return [t - (i / rate if rate else 0.0) for i, t in enumerate(out.arrivals)]


def e2e_metrics(rounds, setups, accuracy) -> Dict[str, tuple]:
    """Timings are the run's best command: other tenants of a shared machine
    only ever slow a command down, and they do so in phases that can last
    longer than a run, so a run's median moves with them while its fastest
    command stays put. Latency percentiles are taken over each command's
    documents first."""
    lat = [latencies(cmd, out) for cmd, out in rounds]
    outs = [out for _, out in rounds]
    return {
        "setup_s": (min(o.wall for o in setups), "s"),
        "docs_per_s": (max(c.n_docs / o.wall for c, o in rounds), "docs/s"),
        "first_output_s": (min(o.first_output for o in outs), "s"),
        "latency_p50_ms": (min(quantile(x, 0.50) for x in lat) * 1e3, "ms"),
        "latency_p99_ms": (min(quantile(x, 0.99) for x in lat) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(o.rss_mb for o in outs), "MB"),
        "accuracy": (accuracy, "ratio"),
    }


def read_spans(out: Path):
    header = json.loads(Path(f"{out}.json").read_text(encoding="utf-8"))
    n = header["n_spans"]
    arrays = {}
    with open(f"{out}.bin", "rb") as fh:
        for key, code in ARRAYS:
            arrays[key] = array(code)
            arrays[key].fromfile(fh, n)
    return header, arrays


def layer_metrics(header, arrays) -> Dict[str, float]:
    """Per-layer figures of one traced command. A span's self time is its
    duration minus the durations (and tracer bookkeeping) of its children."""
    names = header["names"]
    name_of = [names[i] for i in arrays["name"]]
    start, end, parent, ovh = arrays["start"], arrays["end"], arrays["parent"], arrays["overhead"]
    n = len(name_of)
    dur = [end[i] - start[i] for i in range(n)]
    self_ns = list(dur)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            self_ns[p] -= dur[i] + ovh[i]
    layer_self: Dict[str, float] = {layer: 0 for layer in TRACED}
    total: Dict[str, float] = {}
    for i in range(n):
        layer_self[name_of[i].split(".")[0]] += self_ns[i]
        total[name_of[i]] = total.get(name_of[i], 0) + dur[i]
    scores = [dur[i] for i in range(n) if name_of[i] == "models.posterior_scores"]
    counts = header["counts"]

    def s(ns):
        return ns / 1e9

    calls = counts["porter.calls"]
    return {
        "cli.self_s": s(layer_self["cli"]),
        "evaluation.self_s": s(layer_self["evaluation"]),
        "evaluation.load_corpus_s": s(total.get("evaluation.load_corpus", 0)),
        "evaluation.split_s": s(total.get("evaluation.split", 0)),
        "evaluation.tally_s": s(total.get("evaluation.tally", 0)),
        "pipeline.self_s": s(layer_self["pipeline"]),
        "pipeline.stop_list_s": s(total.get("pipeline.build_stop_list", 0)),
        "pipeline.docs": counts["pipeline.docs"],
        "pipeline.tokens_in": counts["pipeline.tokens_in"],
        "pipeline.tokens_out": counts["pipeline.tokens_out"],
        "porter.self_s": s(layer_self["porter"]),
        "porter.calls": calls,
        "porter.distinct": counts["porter.distinct"],
        "porter.useful_ratio": counts["porter.distinct"] / calls if calls else 0.0,
        "vectorize.vocab_s": s(total.get("vectorize.build_vocabulary", 0)),
        "vectorize.vocab_size": counts["vectorize.vocab_size"],
        "vectorize.self_s": s(layer_self["vectorize"]),
        "vectorize.entries": counts["vectorize.entries"],
        "vectorize.oov_tokens": counts["vectorize.oov_tokens"],
        "models.fit_s": s(total.get("models.fit_multinomial", 0) + total.get("models.fit_bernoulli", 0)),
        "models.score_s": s(total.get("models.posterior_scores", 0)),
        "models.score_calls": len(scores),
        "models.score_us_p50": quantile(scores, 0.5) / 1e3 if scores else 0.0,
        "models.score_us_p99": quantile(scores, 0.99) / 1e3 if scores else 0.0,
        "models.first_score_s": s(scores[0]) if scores else 0.0,
        "models.degenerate": counts["models.degenerate"],
        "archive.save_s": s(total.get("archive.save_archive", 0)),
        "archive.bytes_written": counts["archive.bytes_written"],
        "archive.load_s": s(total.get("archive.load_archive", 0)),
        "archive.bytes_read": counts["archive.bytes_read"],
        "trace.bookkeeping_s": s(sum(ovh)),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if "_us_" in name:
        return "us"
    if ".bytes_" in name:
        return "B"
    return "count"


# ------------------------------------------------------------------ main


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "nbtext" / "cli.py").is_file():
        print(f"error: no nbtext sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    nbtext = _nbtext()
    if Path(nbtext.__file__).resolve().parent != (SRC / "nbtext").resolve():
        print(f"error: imported nbtext from {nbtext.__file__}, not {SRC}", file=sys.stderr)
        return 2

    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    env = child_env()
    try:
        t_prep = time.perf_counter()
        plan = WORKLOADS[workload](work, seed, env)
        meta["params"] = plan.params
        meta["prepare_s"] = time.perf_counter() - t_prep
        runner = Runner(plan, env, work)
        if trace:
            result = runner.traced_rounds(seconds, workload, seed)
        else:
            result = runner.timed_rounds(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, info = result
    meta.update(info)
    meta["attempted"] = runner.attempted
    meta["failed"] = runner.failed
    meta["failed_share"] = runner.failed / runner.attempted
    meta["problems"] = runner.problems[:10]
    meta["loadavg_after"] = os.getloadavg()
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {meta['failed_share']:.6g} ratio")
    print("meta " + json.dumps(meta, sort_keys=True))
    correct = runner.failed == 0 and not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or None


class Runner:
    """Runs a plan's commands, checks each, and counts attempts and failures."""

    def __init__(self, plan: Plan, env, work: Path):
        self.plan = plan
        self.env = env
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _run(self, argv, cmd: Command) -> Outcome:
        out = run_child(argv, cmd, self.env, self.work / "stderr.txt")
        self.attempted += 1
        problems = [] if out.code == 0 else [f"exit status {out.code}"]
        if not problems:
            problems = cmd.check(cmd, out)
        if problems:
            out.ok = False
            self.failed += 1
            err = (self.work / "stderr.txt").read_text(errors="replace")[-300:]
            self.problems += [f"{cmd.args[0]}: {p} {err}".strip() for p in problems]
        return out

    def command(self, cmd: Command) -> Outcome:
        return self._run(_cli(*cmd.args), cmd)

    def warm_up(self):
        self.command(self.plan.setup)
        self.command(self.plan.full[0])

    def timed_rounds(self, seconds: float):
        """Interleave set-up commands with full commands until the time is
        spent; report each run's best command (see e2e_metrics)."""
        plan = self.plan
        self.warm_up()
        start = time.perf_counter()
        rounds, setups, round_s = [], [], []
        while True:
            t = time.perf_counter()
            setups += [self.command(plan.setup) for _ in range(SETUPS_PER_ROUND)]
            cmd = plan.full[len(rounds) % len(plan.full)]
            rounds.append((cmd, self.command(cmd)))
            round_s.append(time.perf_counter() - t)
            if len(rounds) >= MIN_ROUNDS and (
                time.perf_counter() + statistics.median(round_s) > start + seconds
            ):
                break
        rounds = [(c, o) for c, o in rounds if o.ok]
        setups = [o for o in setups if o.ok]
        if not rounds or not setups:
            raise RuntimeError("every command failed: " + "; ".join(self.problems[:3]))
        # accuracy covers every input, however many rounds the time allowed
        ran = {id(c) for c, _ in rounds}
        scored = rounds + [(c, self.command(c)) for c in plan.full if id(c) not in ran]
        scored = [(c, o) for c, o in scored if o.ok]
        accuracy = plan.accuracy([c for c, _ in scored], [o for _, o in scored])
        if accuracy <= plan.majority:
            self.problems.append(
                f"accuracy {accuracy:.4f} does not beat the majority rate {plan.majority:.4f}"
            )
        metrics = e2e_metrics(rounds, setups, accuracy)
        walls = [o.wall for _, o in rounds]
        info = {"rounds": len(rounds), "setup_samples": len(setups),
                "majority_rate": plan.majority,
                "wall_s_min": min(walls), "wall_s_median": statistics.median(walls),
                "setup_s_median": statistics.median(o.wall for o in setups),
                "cpu_s_median": statistics.median(o.cpu for _, o in rounds)}
        late = [x for _, o in rounds for x in o.late]
        if late:
            info["sender_late_ms_p99"] = quantile(late, 0.99) * 1e3
            info["sender_late_ms_max"] = max(late) * 1e3
        return metrics, info

    def traced_rounds(self, seconds: float, workload: str, seed: int):
        """Alternate an untraced command with the same command run under
        tracer.py (inputs fed whole, never paced) and compare their outputs."""
        cmd = dataclasses.replace(self.plan.full[0], rate=None)
        self.warm_up()
        start = time.perf_counter()
        plain, traced, per_run = [], [], []
        while True:
            out = self.command(cmd)
            reference = (out.lines, cmd.output.read_bytes() if cmd.output else None)
            plain.append(out.wall)
            spans = self.work / f"spans{len(traced)}"
            run_id = f"{workload}-{seed}-{len(traced)}"
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), run_id, "--", *cmd.args]
            out = self._run(argv, cmd)
            traced.append(out.wall)
            if (out.lines, cmd.output.read_bytes() if cmd.output else None) != reference:
                self.problems.append("traced output differs from the untraced output")
            if out.ok:
                per_run.append(layer_metrics(*read_spans(spans)))
            if len(traced) >= 2 and time.perf_counter() - start > seconds:
                break
        if not per_run:
            raise RuntimeError("every traced command failed: " + "; ".join(self.problems[:3]))
        metrics = {
            name: (statistics.median(m[name] for m in per_run), layer_unit(name))
            for name in per_run[0]
            if not name.startswith("trace.")
        }
        overhead = min(traced) - min(plain)
        metrics["trace.overhead_s"] = (overhead, "s")
        info = {
            "traced_runs": len(traced),
            "untraced_wall_s": min(plain),
            "traced_wall_s": min(traced),
            "trace_bookkeeping_s": statistics.median(m["trace.bookkeeping_s"] for m in per_run),
            "per_stage_s": {
                k: v for k, (v, u) in metrics.items() if u == "s" and k != "trace.overhead_s"
            },
            "roles": roles(workload, metrics, min(traced)),
        }
        return metrics, info


def roles(workload: str, metrics, wall: float) -> Dict[str, bool]:
    """The role each workload was chosen for, as seen in this traced run."""
    m = {k: v for k, (v, _) in metrics.items()}
    if workload == "sms_train_stem":
        selfs = {k: v for k, v in m.items() if k.endswith(".self_s")}
        return {"porter.self_s is the largest layer self time":
                max(selfs, key=selfs.get) == "porter.self_s"}
    if workload == "sms_predict_bernoulli":
        return {"models.score_s is over half the wall time": m["models.score_s"] > wall / 2,
                "porter.calls is 0": m["porter.calls"] == 0}
    if workload == "topics_evaluate_tfidf":
        return {"porter.calls is 0": m["porter.calls"] == 0}
    return {"porter.calls is above 0": m["porter.calls"] > 0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
