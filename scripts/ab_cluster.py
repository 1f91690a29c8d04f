#!/usr/bin/env python3
"""Time the document commands of two source trees on the many-cluster map.

Usage, from the repository root:

    python3 scripts/ab_cluster.py --base /path/to/other/checkout --pairs 5
    python3 scripts/ab_cluster.py --base /path/to/other/checkout --rows 1000000 --text
    python3 scripts/ab_cluster.py --aa --pairs 5

The workload is a uniform map whose clusters number in the tens of
thousands: `--rows` points (default 200k) drawn uniformly from [0, 1000)^2
with `--seed`, clustered at 1000x1000 with `--bandwidth 1 --merge-distance 0`
and the automatic viewport. Its CSV is written once per seed, row count and
column set into `.ab_work/` at the repository root (git-ignored). Each run
writes its outputs into a fresh directory there, removed after the run, so
that no run starts with the previous run's output files. With `--text` the
CSV has a third column, `text`, of two to four words drawn with the same
seed from a fixed list, and each run also times `label --text-col text` on
the document `cluster` wrote, with the layers in LABEL_LAYERS (their keys
start with `label:`; `io.labels_json` makes the labels file's text, which
`io.write_json` writes), and then `label --merge` (`merge_cmd`), which writes
the document it read back with the labels in it (`merge:io.write_json`, the
document's text and its writing).

Each run is a fresh interpreter that imports `densitycluster` from one tree's
`src/`, runs `cluster` in-process once to warm up, then once timed, with
every layer function below wrapped to sum its calls' wall time (inclusive
of the layers it calls). It then times `render` of the document
(`render_cmd`, without an underlay) and `sql` for one cluster id drawn with
`--seed` (`sql_cmd`): each is called once to warm up, then five times, and
its time is the median of the five. For every timed command it records the
cyclic garbage collector's pauses per call, from `gc.callbacks`: their ms
(`<command>:gc`) and their number (`median_collections`). The map tables
have two layers of their own: the row-run scanner (`clustering._scan_runs`,
or `_runs` in trees without it), which every run and truncation scan goes
through (and, in trees that scan side maps, every side scan), and `clustering.ClusterMap._trace_rings`, which includes the
boundary segment table it reads.

A pair is four runs in ABBA order: the base, the change twice, the base
again (the change first in odd pairs), so that a drift across the pair
weighs on both trees alike; each tree's value in a pair is the mean of its
two runs. With `--aa` the base is a copy of the change's own `src/`, made in
a temporary directory under `.ab_work/` and removed afterwards: the two
trees run the same code, and their difference is the harness's own spread.
The last line printed is JSON: per-layer medians and quartiles over pairs
in ms for each tree, how many pairs the change (`--change`, default this
checkout) was faster in, the
cluster count and the document and SVG sha256 of each tree, the number
of CPUs the runs could use (smoothing and initial clustering split their
work over them), and `median_peak_rss_mb`: the median over each tree's runs
of the child interpreter's peak resident set (`ru_maxrss`), which covers
every command the run timed and their warm-ups. `output_ms` sums the layers
that turn the cluster map into the document: shapes, `to_data_space`,
`cluster_document` and `write_json`.
"""
from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POINTS, GRID = 200_000, 1000
FLAGS = ["--width", str(GRID), "--height", str(GRID), "--bandwidth", "1",
         "--merge-distance", "0"]
LAYERS = {
    "io": ("load_points", "cluster_document", "write_json"),
    "density": ("auto_viewport", "bin_points", "smooth"),
    "clustering": ("initial_clusters", "build_neighborhood_graph",
                   "union_clusters", "truncate_clusters", "_scan_runs",
                   "ClusterMap._trace_rings"),
    "geometry": ("shape_for_cluster", "to_data_space", "color_clusters",
                 "count_color_conflicts"),
}
# a layer's function under its former name, timed in trees that predate it
FORMER = {"clustering._scan_runs": "_runs"}
OUTPUT = ("geometry.shape_for_cluster", "geometry.to_data_space",
          "io.cluster_document", "io.write_json")
# render and sql each take under a second on the default map, too short for
# one call to tell a 10% change from the host's noise
QUERY_CALLS = 5
# a tree without io.labels_json builds the labels file's rows in cli.label
# and encodes them in io.write_json
LABEL_LAYERS = ("io.load_points", "labeling.assign_documents", "labeling.ctfidf_labels",
                "io.labels_json", "io.write_json")
WORDS = ("harbor", "violin", "basalt", "nebula", "sonnet", "glacier", "maple",
         "cipher", "lagoon", "ember", "quartz", "meadow")


def write_points(seed: int, rows: int, text: bool, path: Path) -> None:
    import numpy as np
    rng = np.random.default_rng(seed)
    xs, ys = rng.uniform(0.0, float(GRID), (2, rows)).tolist()
    if not text:
        path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys)))
        return
    words = np.array(WORDS)[rng.integers(0, len(WORDS), (rows, 4))].tolist()
    counts = rng.integers(2, 5, rows).tolist()
    path.write_text("x,y,text\n" + "".join(
        f"{x!r},{y!r},{' '.join(w[:k])}\n" for x, y, w, k in zip(xs, ys, words, counts)))


def child(src: str, csv: str, out: str, text: bool, seed: int) -> None:
    """One tree's timed run; prints {layer: ms}, the collections of each
    timed command, the cluster count, the sha256 of the document and of its
    SVG, union's counts, with `text` the sha256 of the labels and of the
    merged document, and the interpreter's peak resident set in MB (Linux
    reports `ru_maxrss` in KiB)."""
    sys.path.insert(0, src)
    import densitycluster.cli as cli
    layers = {m: list(fs) for m, fs in LAYERS.items()}
    for name in LABEL_LAYERS if text else ():
        mod, func = name.split(".")
        if func not in layers.setdefault(mod, []):
            layers[mod].append(func)
    totals = dict.fromkeys((f"{m}.{f}" for m, fs in layers.items() for f in fs), 0.0)
    union = {}

    def count_union(fn):
        # counted from the columns, outside the timed call
        @functools.wraps(fn)
        def wrapper(graph, *args, **kwargs):
            result = fn(graph, *args, **kwargs)
            nodes_in = int((graph.peak >= 0).sum())
            nodes_out = int((result[0].peak >= 0).sum())
            union.update(nodes_in=nodes_in, nodes_out=nodes_out,
                         edges_in=len(graph.edges), edges_out=len(result[0].edges),
                         merges=nodes_in - nodes_out)
            return result
        return wrapper

    def timed(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[name] += time.perf_counter() - t0
        return wrapper

    wrapped = {}
    for mod, funcs in layers.items():
        for func in funcs:
            name = f"{mod}.{func}"
            owner = sys.modules[f"densitycluster.{mod}"]
            if "." in func:  # a method: wrapped on its class
                cls, func = func.split(".")
                owner = getattr(owner, cls)
                setattr(owner, func, timed(name, getattr(owner, func)))
                continue
            fn = getattr(owner, func, None) or getattr(owner, FORMER.get(name, ""), None)
            if fn is not None:
                wrapped[id(fn)] = timed(name, fn)
                if func == "union_clusters":
                    wrapped[id(fn)] = count_union(wrapped[id(fn)])
    for name, module in list(sys.modules.items()):
        if name.startswith("densitycluster."):
            namespace = vars(module)
            for key, val in list(namespace.items()):
                if id(val) in wrapped:
                    namespace[key] = wrapped[id(val)]
    gc_pause = {"started": 0.0, "ms": 0.0, "collections": 0}

    def on_collection(phase, info):
        if phase == "start":
            gc_pause["started"] = time.perf_counter()
        else:
            gc_pause["ms"] += (time.perf_counter() - gc_pause["started"]) * 1000.0
            gc_pause["collections"] += 1

    gc.callbacks.append(on_collection)
    commands, collections = {}, {}

    def timed_command(name: str, argv: list[str], calls: int = 1) -> None:
        """Times `calls` calls of the command after a warm-up call: the
        median of their ms, collector pause ms and collections go into
        `commands` and `collections` under `name`, and `totals` holds the
        layers of the timed calls, summed."""
        samples = []
        with open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                cli.main(argv)  # warm-up
                for key in totals:
                    totals[key] = 0.0
                for _ in range(calls):
                    gc.collect()
                    gc_pause.update(ms=0.0, collections=0)
                    t0 = time.perf_counter()
                    rc = cli.main(argv)
                    seconds = time.perf_counter() - t0
                    if rc != 0:
                        raise SystemExit(f"{argv[0]} exited {rc}")
                    samples.append((seconds * 1000.0, gc_pause["ms"],
                                    gc_pause["collections"]))
            finally:
                sys.stdout = stdout
        ms, pause, count = (statistics.median(col) for col in zip(*samples))
        commands[name], commands[f"{name}:gc"], collections[name] = ms, pause, count

    timed_command("cluster_cmd", ["cluster", "--input", csv, "--output", out, *FLAGS])
    ms = {f"{m}.{f}": totals[f"{m}.{f}"] * 1000.0 for m, fs in LAYERS.items() for f in fs}
    ms["output_ms"] = sum(ms[k] for k in OUTPUT)
    with open(out, "rb") as fh:
        data = fh.read()
    # each record, and nothing else in the text, starts with {"id": (a label
    # holding those characters is written with its quotes escaped)
    cluster_id = random.Random(seed).choice(
        list(map(int, re.findall(rb'\{"id":(-?\d+)', data))))
    svg = out + ".svg"
    timed_command("render_cmd", ["render", "--cluster-json", out, "--output", svg],
                  QUERY_CALLS)
    timed_command("sql_cmd", ["sql", "--cluster-json", out, "--cluster-id", str(cluster_id)],
                  QUERY_CALLS)
    with open(svg, "rb") as fh:
        svg_sha256 = hashlib.sha256(fh.read()).hexdigest()
    result = {"ms": ms, "collections": collections, "clusters": data.count(b'{"id":'),
              "sha256": hashlib.sha256(data).hexdigest(), "svg_sha256": svg_sha256,
              "union": union}
    if text:
        labels = out + ".labels.json"
        timed_command("label_cmd", ["label", "--input", csv, "--text-col", "text",
                                    "--cluster-json", out, "--output", labels])
        ms.update({f"label:{k}": totals[k] * 1000.0 for k in LABEL_LAYERS})
        merged = out + ".merged.json"
        timed_command("merge_cmd", ["label", "--input", csv, "--text-col", "text", "--merge",
                                    "--cluster-json", out, "--output", merged])
        ms["merge:io.write_json"] = totals["io.write_json"] * 1000.0
        for key, path in (("labels_sha256", labels), ("merged_sha256", merged)):
            with open(path, "rb") as fh:
                result[key] = hashlib.sha256(fh.read()).hexdigest()
    ms.update(commands)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


def run(tree: Path, csv: Path, work: Path, text: bool, seed: int) -> dict:
    """One child run of `tree`, writing into a fresh directory under `work`
    that is removed afterwards."""
    out_dir = Path(tempfile.mkdtemp(dir=work, prefix="run-"))
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", str(tree / "src"), str(csv),
             str(out_dir / "clusters.json"), "--text" if text else "--no-text",
             "--seed", str(seed)],
            check=True, capture_output=True, text=True)
    finally:
        shutil.rmtree(out_dir)
    return json.loads(proc.stdout.splitlines()[-1])


def pair_values(runs: list[dict]) -> list[dict]:
    """Each pair's {layer: ms} of one tree: the mean of its two runs."""
    return [{k: (a["ms"][k] + b["ms"][k]) / 2 for k in a["ms"]}
            for a, b in zip(runs[0::2], runs[1::2])]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    trees = ap.add_mutually_exclusive_group()
    trees.add_argument("--base", type=Path, help="the other source tree (repository root)")
    trees.add_argument("--aa", action="store_true",
                       help="run the change against a copy of its own src/")
    ap.add_argument("--change", type=Path, default=ROOT,
                    help="the changed tree (default: this checkout)")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rows", type=int, default=POINTS, help="CSV rows (default %(default)s)")
    ap.add_argument("--text", action=argparse.BooleanOptionalAction, default=False,
                    help="add a text column and also time `label --text-col text`")
    ap.add_argument("--child", nargs=3, metavar=("SRC", "CSV", "OUT"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(*args.child, args.text, args.seed)
        return 0
    if args.base is None and not args.aa:
        ap.error("one of --base and --aa is required")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.rows < 1:
        ap.error("--rows must be at least 1")

    work = ROOT / ".ab_work"
    work.mkdir(exist_ok=True)
    csv = work / f"uniform-{args.rows}-{GRID}-seed{args.seed}{'-text' * args.text}.csv"
    if not csv.is_file():
        write_points(args.seed, args.rows, args.text, csv)
    change = args.change.resolve()
    copy = Path(tempfile.mkdtemp(dir=work, prefix="aa-")) if args.aa else None
    try:
        if copy is not None:
            shutil.copytree(change / "src", copy / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
        tree = {"base": copy or args.base.resolve(), "change": change}
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            first, second = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in (first, second, second, first):
                runs[side].append(run(tree[side], csv, work, args.text, args.seed))
    finally:
        if copy is not None:
            shutil.rmtree(copy)
    pairs = {s: pair_values(runs[s]) for s in runs}
    layers = list(pairs["base"][0])
    result = {
        "workload": {"points": args.rows, "grid": GRID, "seed": args.seed, "flags": FLAGS,
                     "text": args.text,
                     "clusters": {s: runs[s][0]["clusters"] for s in runs},
                     "sha256": {s: sorted({r["sha256"] for r in runs[s]}) for s in runs},
                     "svg_sha256": {s: sorted({r["svg_sha256"] for r in runs[s]})
                                    for s in runs},
                     "union": {s: runs[s][0]["union"] for s in runs},
                     **{key: {s: sorted({r.get(key) for r in runs[s]}) for s in runs}
                        if args.text else None
                        for key in ("labels_sha256", "merged_sha256")}},
        "aa": args.aa,
        "pairs": args.pairs,
        "order": "ABBA: base, change, change, base in even pairs; the change first in odd",
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                       else os.cpu_count(),
        "median_ms": {s: {k: round(statistics.median(p[k] for p in pairs[s]), 2)
                          for k in layers} for s in pairs},
        "quartiles_ms": {s: {k: [round(q, 2) for q in statistics.quantiles(
                                 [p[k] for p in pairs[s]], n=4)[0::2]]
                             for k in layers} for s in pairs}
                        if args.pairs > 1 else None,
        "change_wins": {k: sum(c[k] < b[k] for b, c in zip(pairs["base"], pairs["change"]))
                        for k in layers},
        "median_collections": {s: {k: statistics.median(r["collections"][k] for r in runs[s])
                                   for k in runs[s][0]["collections"]} for s in runs},
        "median_peak_rss_mb": {s: round(statistics.median(r["peak_rss_mb"] for r in runs[s]), 1)
                               for s in runs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
