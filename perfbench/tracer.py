"""Run the nbtext CLI in-process with a span around each layer's public functions.

    python perfbench/tracer.py OUT RUN_ID -- <nbtext arguments>

Every ``nbtext.*`` module attribute that is one of the functions in
``TRACED`` is rebound to a wrapper, so calls through ``from .x import f``
names are caught as well as calls inside the defining module. Each call
becomes a span (name, start, end, parent) kept in memory; counters are
updated at the same boundaries. When ``nbtext.cli.main`` returns, the spans
are written to ``OUT.bin`` (five arrays) and ``OUT.json`` (names, run id,
counters), and the process exits with the CLI's exit code.

A wrapper's own bookkeeping around a call is timed and stored with the
span, so the analysis can charge it to tracing rather than to the caller.
"""

import array
import importlib
import json
import os
import sys
import time

# layer -> public functions whose calls become spans. The layers are the
# nbtext modules; cli.main is the root of every run.
TRACED = {
    "cli": ("main",),
    "evaluation": ("load_corpus", "split", "tally", "evaluate"),
    "pipeline": ("run_pipeline", "tokenize", "build_stop_list"),
    "porter": ("porter_stem",),
    "vectorize": ("build_vocabulary", "vectorize"),
    "models": ("fit_multinomial", "fit_bernoulli", "posterior_scores"),
    "archive": ("save_archive", "load_archive"),
}

# order of the arrays in OUT.bin
ARRAYS = (("name", "H"), ("parent", "q"), ("start", "q"), ("end", "q"), ("overhead", "q"))


class Tracer:
    def __init__(self):
        self.names = []
        self.arrays = {key: array.array(code) for key, code in ARRAYS}
        self.stack = [-1]
        self.counts = {
            "pipeline.docs": 0,
            "pipeline.tokens_in": 0,
            "pipeline.tokens_out": 0,
            "porter.calls": 0,
            "vectorize.vocab_size": 0,
            "vectorize.entries": 0,
            "vectorize.oov_tokens": 0,
            "models.degenerate": 0,
            "archive.bytes_written": 0,
            "archive.bytes_read": 0,
        }
        self.stem_inputs = set()

    def wrap(self, name, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        a = self.arrays
        name_ids, parents, starts, ends, overheads = (
            a["name"], a["parent"], a["start"], a["end"], a["overhead"]
        )
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            entered = clock()
            idx = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            overheads.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if hook is not None:
                hook(idx, args, result)
            overheads[idx] = (start - entered) + (clock() - end)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every nbtext module attribute that is a traced function."""
        for layer in TRACED:
            importlib.import_module(f"nbtext.{layer}")
        hooks = {
            "pipeline.run_pipeline": self._on_pipeline,
            "pipeline.tokenize": self._on_tokenize,
            "porter.porter_stem": self._on_stem,
            "vectorize.build_vocabulary": self._on_vocabulary,
            "vectorize.vectorize": self._on_vectorize,
            "models.posterior_scores": self._on_score,
            "archive.save_archive": self._on_save,
            "archive.load_archive": self._on_load,
        }
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "nbtext"]
        entry = None
        for layer, functions in TRACED.items():
            module = sys.modules[f"nbtext.{layer}"]
            for fname in functions:
                name = f"{layer}.{fname}"
                fn = getattr(module, fname)
                wrapper = self.wrap(name, fn, hooks.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                if name == "cli.main":
                    entry = wrapper
        return entry

    def _on_pipeline(self, idx, args, stream):
        self.counts["pipeline.docs"] += 1
        self.counts["pipeline.tokens_out"] += len(stream)

    def _on_tokenize(self, idx, args, tokens):
        parent = self.arrays["parent"][idx]
        if parent >= 0 and self.names[self.arrays["name"][parent]] == "pipeline.run_pipeline":
            self.counts["pipeline.tokens_in"] += len(tokens)

    def _on_stem(self, idx, args, stem):
        self.counts["porter.calls"] += 1
        self.stem_inputs.add(args[0])

    def _on_vocabulary(self, idx, args, vocab):
        self.counts["vectorize.vocab_size"] = len(vocab)

    def _on_vectorize(self, idx, args, vec):
        stream, vocab = args[0], args[1]
        known = vocab.token_to_id
        self.counts["vectorize.entries"] += len(vec.entries)
        self.counts["vectorize.oov_tokens"] += sum(1 for tok in stream if tok not in known)

    def _on_score(self, idx, args, report):
        self.counts["models.degenerate"] += bool(report.degenerate_evidence)

    def _on_save(self, idx, args, _):
        self.counts["archive.bytes_written"] += os.path.getsize(args[1])

    def _on_load(self, idx, args, archive):
        self.counts["archive.bytes_read"] += os.path.getsize(args[0])
        if archive.vocab is not None:
            self.counts["vectorize.vocab_size"] = len(archive.vocab)

    def write(self, out, run_id):
        with open(f"{out}.bin", "wb") as fh:
            for key, _ in ARRAYS:
                self.arrays[key].tofile(fh)
        counts = dict(self.counts, **{"porter.distinct": len(self.stem_inputs)})
        header = {
            "run_id": run_id,
            "names": self.names,
            "n_spans": len(self.arrays["name"]),
            "counts": counts,
        }
        with open(f"{out}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py OUT RUN_ID -- <nbtext arguments>", file=sys.stderr)
        return 2
    out, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    entry = tracer.install()
    code = entry(cli_args)
    sys.stdout.flush()
    tracer.write(out, run_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
