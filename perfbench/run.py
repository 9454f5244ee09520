#!/usr/bin/env python3
"""hwcsum benchmark: one workload per process, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-shape --seed 1 --seconds 10 --trace 0

Workloads: ``prep-lcsts`` and ``experiment-synthetic`` (BENCHMARK.json says
why each exists), and ``paper-shape``, which BENCHMARK.json leaves out: its
two init_params calls alone take about 40 s a run on 2 cores, too long for
the benchmark's time budget, and its wall-clock spread over 10 seeds reached
30-45%. Run it by hand for paper-shape numbers (E = H = 500, |V| = 4000). With ``--trace 0`` the result
holds the end-to-end metrics; with ``--trace 1`` the program is wrapped
by perfbench/tracing.py and the result holds the per-layer metrics. The
last stdout line is the JSON result; a copy with the environment stamp
goes to .perfbench/results/ and the spans of a traced run to
.perfbench/traces/.

Every workload prints every end-to-end metric:

- ``setup_s``: median over the run's set-ups of a fresh hwcsum import plus
  program set-up, in wall seconds. paper-shape: the init_params call
  inside train(), two set-ups; prep-lcsts: the CLI parser and loading the
  300k-entry lexicon; experiment-synthetic: the CLI parser, experiment
  config and its lexicon.
- ``task_ref``: median cost of one unit of work in reference units, the
  wall time divided by the time of a fixed reference loop sampled while
  the work ran (perfbench/reference.py), so that a host whose speed
  drifts moves it less than it moves wall time. paper-shape: a beam-5
  decode of one article; prep-lcsts: one CLI walk through vocab and eval;
  experiment-synthetic: one ``hwcsum experiment``. The results file keeps
  each unit's wall seconds and the reference loop's time next to it.
- ``peak_rss_mb``: peak resident set size of the process.

The run's ``attempted``/``failed`` count the output checks.
"""

import argparse
import contextlib
import ctypes
import importlib
import json
import math
import os
import platform
import re
import resource
import shutil
import sys
import time
import traceback
import types
from pathlib import Path

import numpy as np

import reference
import tracing
import workloads

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
PACKAGE = "hwcsum"
REQUIRED = ("src/hwcsum/__init__.py", workloads.EXPERIMENT_CONFIG)


class Ops:
    """Checked operations: every check is one attempt; a false one fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what[:300])


class Context:
    def __init__(self, seed: int, seconds: float, trace: bool, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracing.Tracer() if trace else None
        # the traced run samples the reference only between units of work
        self.reference = reference.Reference(sampling=not trace)
        self.ops = Ops()
        self.layer: dict[str, float] = {}
        self.info: dict = {}
        self.traced_s = 0.0

    def fresh_import(self):
        """Drop every loaded hwcsum module and import the layers again.

        Returns (namespace of layer modules, seconds the import took).
        numpy is already loaded, so this times the package's own import.
        """
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in tracing.LAYERS}
        elapsed = time.perf_counter() - t0
        src = (ROOT / "src").resolve()
        if Path(mods["cli"].__file__).resolve().parents[1] != src:
            raise RuntimeError(f"{PACKAGE} imported from {mods['cli'].__file__}, not {src}")
        return types.SimpleNamespace(**mods), elapsed

    @contextlib.contextmanager
    def session(self, run_id: int):
        """Trace the enclosed calls as one run id (no-op when not tracing)."""
        if self.tracer is None:
            yield
            return
        self.tracer.run_id = run_id
        self.tracer.install(PACKAGE)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.traced_s += time.perf_counter() - t0
            self.tracer.uninstall()


# ---- environment -------------------------------------------------------------


def _blas_threads():
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", f.read())))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": min(threads, nproc) if threads else None,
        "nproc": nproc,
    }


# ---- per-layer metrics from the spans ------------------------------------------

# (metric, unit, span names, scale): per-call timings -> p50, tail, sample count
TIMED = [
    ("model.init_params_s", "s", ["model.init_params"], 1),
    ("model.sequence_loss_s", "s", ["model.sequence_loss"], 1),
    ("model.encode_sequence_s", "s", ["model.encode_sequence"], 1),
    ("model.beam_ms_per_article", "ms", ["model.beam_search"], 1000),
    ("model.save_checkpoint_s", "s", ["model.save_checkpoint"], 1),
    ("numerics.backward_s", "s", ["numerics.Tape.backward"], 1),
    ("numerics.adagrad_step_s", "s", ["numerics.Adagrad.step"], 1),
    ("tokenizer.segment_s", "s", ["tokenizer.word_segment"], 1),
    ("tokenizer.lexicon_load_s", "s", ["tokenizer.Lexicon.from_file"], 1),
    ("tokenizer.build_vocab_s", "s", ["tokenizer.build_vocab"], 1),
    ("tokenizer.encode_pair_s", "s", ["tokenizer.encode_pair_hwc", "tokenizer.encode_pair_chars"], 1),
    ("corpus.parse_s", "s", ["corpus.parse_lcsts"], 1),
    ("corpus.read_jsonl_s", "s", ["corpus.read_jsonl"], 1),
    ("corpus.split_s", "s", ["corpus.split_train_validation"], 1),
    ("dedup.clean_s", "s", ["dedup.clean_part1"], 1),
    ("rouge.evaluate_s", "s", ["rouge.evaluate_corpus"], 1),
    ("harness.seed_s", "s", ["harness._run_seed"], 1),
]
CLI_STAGES = ("parse", "clean", "filter", "split", "vocab", "eval", "experiment")
# values a workload reports itself; 0 where the workload has none
WORKLOAD_VALUES = [
    ("model.train_loss", "nats"),
    ("model.decode_mean_len", "tokens"),
    ("harness.valid_loss", "nats"),
    ("rouge.lead_rouge_l_f1", "ratio"),
    ("numerics.pairs_trained", "count"),
]


def per_layer_specs():
    """Every per-layer metric as (name, unit), in report order."""
    specs = []
    for metric, unit, _, _ in TIMED:
        specs += [(metric, unit), (metric + ".tail", unit), (metric + ".n", "count")]
    for stage in CLI_STAGES:
        m = f"cli.stage_s.{stage}"
        specs += [(m, "s"), (m + ".tail", "s"), (m + ".n", "count")]
    specs += [(f"{layer}.self_s", "s") for layer in tracing.LAYERS]
    specs += [
        ("rng.draws", "count"),
        ("numerics.tape_nodes_per_pair", "count"),
        ("tokenizer.segment_calls", "count"),
        ("tokenizer.segment_chars_per_s", "1/s"),
        ("corpus.parse_issues", "count"),
        ("dedup.removed", "count"),
        ("rouge.pairs_per_s", "1/s"),
        ("trace.spans", "count"),
        ("trace.overhead_share", "ratio"),
    ]
    return specs + WORKLOAD_VALUES


def _calibrate() -> tuple[float, float]:
    """Seconds a span wrapper and an rng draw wrapper add per call."""
    n = 20000
    probe = tracing.Tracer()

    def ident(x):
        return x

    wrapped = probe._span("calibrate", ident)
    t0 = time.perf_counter()
    for i in range(n):
        ident(i)
    t1 = time.perf_counter()
    for i in range(n):
        wrapped(i)
    t2 = time.perf_counter()
    span_cost = max(0.0, ((t2 - t1) - (t1 - t0)) / n)

    base_cls = sys.modules[f"{PACKAGE}.rng"].MT19937
    traced_cls = type("TracedMT", (base_cls,), {})
    for attr in ("uniform", "random_float", "next_u32"):
        setattr(traced_cls, attr, probe._rng(getattr(base_cls, attr), attr == "next_u32"))
    plain, traced = base_cls(1), traced_cls(1)
    t0 = time.perf_counter()
    for _ in range(n):
        plain.uniform(0.0, 1.0)
    t1 = time.perf_counter()
    for _ in range(n):
        traced.uniform(0.0, 1.0)
    t2 = time.perf_counter()
    rng_cost = max(0.0, ((t2 - t1) - (t1 - t0)) / n)
    return span_cost, rng_cost


def layer_metrics(ctx: Context) -> dict:
    tr = ctx.tracer
    spans = tr.spans
    N, S, E, X = tracing.NAME, tracing.START, tracing.END, tracing.EXTRA
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[N], []).append(s)
    values: dict[str, float] = {}

    def put_timing(metric, durations):
        p50, tail, n = tracing.timing_stats(durations)
        values[metric], values[metric + ".tail"], values[metric + ".n"] = p50, tail, n

    for metric, _, names, scale in TIMED:
        put_timing(metric, [(s[E] - s[S]) * scale for name in names for s in by_name.get(name, ())])
    for stage in CLI_STAGES:
        put_timing(f"cli.stage_s.{stage}",
                   [s[E] - s[S] for s in by_name.get("cli.main", ()) if s[X] == stage])

    self_s = tracing.self_times(spans)
    for layer in tracing.LAYERS:
        values[f"{layer}.self_s"] = sum(t for s, t in zip(spans, self_s)
                                        if s[N].split(".", 1)[0] == layer)
    values["rng.self_s"] = tr.rng[3]
    values["rng.draws"] = tr.rng[1]

    def total(name, field):
        return sum((s[E] - s[S]) if field == "dur" else (s[X] or 0) for s in by_name.get(name, ()))

    pairs = ctx.layer.get("numerics.pairs_trained", 0)
    values["numerics.tape_nodes_per_pair"] = total("numerics.Tape.backward", "x") / pairs if pairs else 0
    values["tokenizer.segment_calls"] = len(by_name.get("tokenizer.word_segment", ()))
    seg_s = total("tokenizer.word_segment", "dur")
    values["tokenizer.segment_chars_per_s"] = total("tokenizer.word_segment", "x") / seg_s if seg_s else 0.0
    values["corpus.parse_issues"] = total("corpus.parse_lcsts", "x")
    values["dedup.removed"] = total("dedup.clean_part1", "x")
    ev_s = total("rouge.evaluate_corpus", "dur")
    values["rouge.pairs_per_s"] = total("rouge.evaluate_corpus", "x") / ev_s if ev_s else 0.0
    span_cost, rng_cost = _calibrate()
    overhead = len(spans) * span_cost + tr.rng[2] * rng_cost
    values["trace.spans"] = len(spans)
    values["trace.overhead_share"] = overhead / ctx.traced_s if ctx.traced_s else 0.0
    for name, _ in WORKLOAD_VALUES:
        values[name] = ctx.layer.get(name, 0)
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_specs()}


E2E_UNITS = {"setup_s": "s", "task_ref": "ref", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be a 32-bit unsigned integer")

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from the root of an hwcsum checkout; missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = Context(args.seed, args.seconds, bool(args.trace), workdir)
    try:
        e2e = workloads.WORKLOADS[args.workload](ctx)
        if ctx.tracer is not None:
            # compare with an untraced run's end-to-end numbers to see the overhead
            ctx.info["traced_end_to_end"] = e2e
            metrics = layer_metrics(ctx)
            (OUT / "traces").mkdir(exist_ok=True)
            ctx.tracer.write(OUT / "traces" / f"{tag}.jsonl")
        else:
            e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": ctx.ops.attempted + 1,
                          "failed": ctx.ops.failed + 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        ctx.ops.check(False, f"non-finite metrics {bad}")
    result = {"correct": ctx.ops.failed == 0, "attempted": ctx.ops.attempted,
              "failed": ctx.ops.failed, "metrics": metrics}
    env = environment()
    (OUT / "results").mkdir(exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w", encoding="utf-8") as f:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "environment": env, "info": ctx.info,
                   "check_failures": ctx.ops.notes}, f, indent=1, sort_keys=True)
    for note in ctx.ops.notes:
        print(f"check failed: {note}", file=sys.stderr)
    print(f"environment: {json.dumps(env, sort_keys=True)}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
