#!/usr/bin/env python3
"""densitycluster benchmark: whole commands and the library path, per workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload mixture-1000 --seed 1 --seconds 50 --trace 0

Each run is one fresh interpreter and one closed loop: a single caller runs
one operation after another, with no extra threads or processes while timing.
A round is the library path (`auto_viewport` -> `bin_points` -> `smooth` ->
`cluster_density_map` -> `shape_for_cluster` + `to_data_space` per cluster ->
`color_clusters`), then the `cluster`, `render --underlay` and
`label --text-col text` commands, then `sql --cluster-id` for a seeded sample
of cluster ids. Commands are in-process calls to `densitycluster.cli.main`.
Rounds repeat until the round boundary nearest to `--seconds`; every run
does at least one. In untraced runs a round repeats each quick operation
until it has taken `MIN_OP_SECONDS`, so that its median rests on several
samples, and queries half of the sampled cluster ids.

The host's speed changes under other machines' load, so end-to-end timings
are medians of samples scaled to a nominal host speed by a fixed reference
unit of work timed between the operations (see `Reference`). Raw medians and
tails are in the line before the last. Garbage is collected and frozen
before each timed operation (see `collect_garbage`).

Inputs are generated from `--seed` by `perfbench/inputs.py` in a child
process before timing; `setup_s` times fresh interpreters importing
`densitycluster.cli`. Every operation's output is checked (see `checks.py`)
and must be byte-identical across rounds and, for the seed recorded in
`digests.json`, match the recorded digests. `--write-digests` records them.

With `--trace 0` the last line holds the end-to-end metrics. With
`--trace 1`, untraced and traced rounds alternate and the last line holds
per-layer self times and counters per traced round (see `spans.py`), the
tracing overhead, and the share of traced wall time the layers account for.
The line before the last holds sample counts, tail percentiles and problems.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

SQL_SAMPLES = 20         # cluster ids sampled per run for `sql`
SETUP_SAMPLES = 9
MIN_OP_SECONDS = 0.5     # untraced rounds repeat quick operations to this total
REF_SECONDS = 0.07       # nominal duration of one reference unit, see Reference
REF_WINDOW = 8           # reference units before and after a sample that scale it

TIMINGS = ("pipeline_s", "cluster_cmd_s", "label_cmd_s", "render_cmd_s", "sql_cmd_s")

# per-layer counters reported besides every layer's self_ms; `taps` is per
# call, every other value is per traced round
COUNTERS = {
    "io.load_points": ("rows",),
    "io.write_json": ("bytes",),
    "io.read_cluster_document": ("calls",),
    "density.bin_points": ("points",),
    "density.smooth": ("taps", "macs_computed", "bytes_computed"),
    "clustering.initial_clusters": ("clusters",),
    "clustering.build_neighborhood_graph": ("edges",),
    "clustering.union_clusters": ("merges",),
    "clustering.truncate_clusters": ("pixels_dropped", "clusters_out", "edges_out"),
    "geometry.trace_boundary": ("calls", "ring_vertices", "holes"),
    "geometry.decompose_rectangles": ("rects",),
    "geometry.color_clusters": ("conflicts",),
    "labeling.assign_documents": ("documents",),
    "labeling.ctfidf_labels": ("labeled",),
    "labeling.emit_sql_predicate": ("bytes",),
    "render.render_svg": ("bytes",),
}
UNITS = {"bytes": "bytes", "bytes_computed": "bytes"}   # any other counter: count


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(clusters) -> bytes:
    """Geometry and colour of (id, outer, holes, rects, color) rows as bytes."""
    return json.dumps([list(c) for c in clusters], separators=(",", ":")).encode()


def _tail(samples: list[float]) -> dict:
    """Median, plus the highest of p75/p90/p95/p99 with >= 10 samples beyond."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    ordered = sorted(samples)
    for q in (99, 95, 90, 75):
        if len(ordered) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = ordered[min(len(ordered) - 1, int(len(ordered) * q / 100))]
            break
    return out


class Reference:
    """A fixed unit of work, timed between operations to follow host speed.

    The benchmark shares a few cores of a host with other machines, whose
    load changes this process's speed within seconds and between minutes:
    medians of the same command moved by a quarter between runs minutes
    apart. Such a change slows the reference unit and the program alike, so
    each end-to-end timing is reported in seconds at a nominal host speed:
    every sample is scaled by REF_SECONDS over the median of the reference
    units timed in the same stretch of the run, the REF_WINDOW units before
    and after it (about one round each way), and the metric is the median
    of the scaled samples. The unit mixes what the program does, in about
    equal parts of time: parsing number text, counting in a dict and a JSON
    round trip in Python, and a 1-D filter over a float64 grid in scipy. It
    is benchmark code, so a change to the program does not change it.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.grid = rng.random((1000, 1000))
        self.weights = np.full(31, 1.0 / 31)
        self.words = [repr(float(v)) for v in rng.random(20_000)]
        self.rings = [[[float(x), float(y)] for x, y in rng.random((40, 2))]
                      for _ in range(100)]
        self.samples: list[float] = []

    def unit(self) -> float:
        from scipy import ndimage
        t0 = time.perf_counter()
        counts: dict[str, int] = {}
        total = 0.0
        for w in self.words:
            total += float(w)
            counts[w[-2:]] = counts.get(w[-2:], 0) + 1
        json.loads(json.dumps({"rings": self.rings}))
        for axis in (0, 1):
            ndimage.correlate1d(self.grid, self.weights, axis=axis)
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    def scaled(self, samples: list[float], at: list[int], start: int) -> list[float]:
        """Each sample at nominal host speed; `at` holds the number of units
        timed before each sample, and units before `start` are not used."""
        return [t * REF_SECONDS / statistics.median(
                    self.samples[max(start, a - REF_WINDOW):a + REF_WINDOW])
                for t, a in zip(samples, at)]


def collect_garbage() -> None:
    """Collect, then exempt every live object from later collections, so
    that an operation's garbage collections scan only what it allocates, as
    in a fresh CLI process, and not the benchmark's data or an earlier
    operation's garbage."""
    gc.collect()
    gc.freeze()


def measure_setup(ref: Reference) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing densitycluster.cli:
    scaled by the reference units timed between the imports, and raw."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import densitycluster.cli"]
    start = len(ref.samples)
    raw, at = [], []
    ref.unit()
    for _ in range(SETUP_SAMPLES):
        at.append(len(ref.samples))
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        raw.append(time.perf_counter() - t0)
        ref.unit()
    return statistics.median(ref.scaled(raw, at, start)), statistics.median(raw)


class Bench:
    """One workload's inputs, operations, output checks and samples."""

    def __init__(self, name: str, seed: int, work: Path, recorded: dict, ref: Reference):
        import numpy as np

        import densitycluster as dc
        import densitycluster.cli
        from inputs import WORKLOADS

        self.dc, self.cli = dc, densitycluster.cli
        self.name, self.seed = name, seed
        self.wl = WORKLOADS[name]
        self.params = dc.ClusterParams()
        if self.wl.merge_distance is not None:
            self.params = replace(self.params, merge_distance_px=self.wl.merge_distance)
        pts = np.load(work / "points.npz")
        self.xs, self.ys = pts["xs"], pts["ys"]
        self.batch = dc.PointBatch(self.xs, self.ys, np.ones(self.xs.size))
        self.csv = str(work / "points.csv")
        self.paths = {k: str(work / f) for k, f in (
            ("cluster", "clusters.json"), ("density", "density.bin"),
            ("svg", "clusters.svg"), ("labels", "labels.json"))}
        self.recorded = recorded
        self.samples: dict[str, list[float]] = defaultdict(list)   # raw seconds
        self.ref, self.ref_start = ref, len(ref.samples)
        self.ref_at: dict[str, list[int]] = defaultdict(list)   # see Reference.scaled
        self.digests: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.doc = None          # first cluster document, parsed
        self.sql_ids: list[int] = []
        self._pipeline_canon = None
        self._oracle = None

    # -- bookkeeping -------------------------------------------------------

    def _record(self, metric, key, seconds, ok, out: bytes, check) -> None:
        """Count one operation; check its output the first time `key` runs and
        require identical bytes on every later run."""
        self.attempted += 1
        self.samples[metric].append(seconds)
        self.ref_at[metric].append(len(self.ref.samples))
        digest = _sha(out)
        if not ok:
            problems = [f"{key}: command failed"]
        elif key not in self.digests:
            self.digests[key] = digest
            problems = check()
            if key in self.recorded and self.recorded[key] != digest:
                problems.append(f"{key}: output differs from the recorded digest")
        elif self.digests[key] != digest:
            # in traced runs the first round is untraced, so this also
            # checks that tracing leaves outputs byte-identical
            problems = [f"{key}: output differs from an earlier round"]
        else:
            problems = []
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def _cli(self, argv):
        """Run one command in-process; returns (ok, seconds, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        collect_garbage()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a crash is a failed operation, not a benchmark abort
                rc = None
                self.problems.append(traceback.format_exc())
            seconds = time.perf_counter() - t0
        if rc != 0:
            self.problems.append(f"{argv[0]} exited {rc}: {err.getvalue().strip()}")
        return rc == 0, seconds, out.getvalue()

    def _read(self, key) -> bytes:
        try:
            return Path(self.paths[key]).read_bytes()
        except OSError:
            return b""

    # -- operations --------------------------------------------------------

    def pipeline(self) -> float:
        dc, wl, params = self.dc, self.wl, self.params
        collect_garbage()
        t0 = time.perf_counter()
        vp = dc.auto_viewport(self.batch, wl.grid, wl.grid)
        bw = wl.bandwidth if wl.bandwidth is not None else dc.default_bandwidth(vp)
        dm = dc.smooth(dc.bin_points(self.batch, vp), bw)
        cmap, graph = dc.cluster_density_map(dm, params)
        shapes = [dc.to_data_space(dc.shape_for_cluster(cmap, cid, params.connectivity), vp)
                  for cid in sorted(graph.nodes)]
        colors = dc.color_clusters(graph, 10)
        seconds = time.perf_counter() - t0

        def rows():
            for s in shapes:
                yield (s.cluster_id, [list(v) for v in s.outer.vertices],
                       [[list(v) for v in h.vertices] for h in s.holes],
                       [list(r) for r in s.rects], colors[s.cluster_id])
        canon = _canonical(rows())
        self._pipeline_canon = self._pipeline_canon or canon

        def check():
            from checks import rect_cover_problems
            return rect_cover_problems(
                ((s.cluster_id, graph.nodes[s.cluster_id].area_px, s.rects) for s in shapes),
                vp.to_dict())
        self._record("pipeline_s", "pipeline", seconds, True, canon, check)
        return seconds

    def cluster(self) -> float:
        ok, seconds, _ = self._cli(
            ["cluster", "--input", self.csv, *self.wl.cluster_flags(),
             "--output", self.paths["cluster"], "--density-out", self.paths["density"]])
        doc_bytes = self._read("cluster")

        def check():
            from checks import cluster_doc_problems
            problems = cluster_doc_problems(doc_bytes)
            self.doc = json.loads(doc_bytes)
            same = _canonical((c["id"], c["outer"], c["holes"], c["rects"], c["color"])
                              for c in self.doc["clusters"])
            if same != self._pipeline_canon:
                problems.append("cluster command and library path disagree")
            return problems
        self._record("cluster_cmd_s", "cluster", seconds, ok,
                     doc_bytes + self._read("density"), check)
        return seconds

    def render(self) -> float:
        ok, seconds, _ = self._cli(
            ["render", "--cluster-json", self.paths["cluster"],
             "--output", self.paths["svg"], "--underlay", self.paths["density"]])
        svg = self._read("svg")

        def check():
            from checks import svg_problems
            return svg_problems(svg, len(self.doc["clusters"]))
        self._record("render_cmd_s", "render", seconds, ok, svg, check)
        return seconds

    def label(self) -> float:
        ok, seconds, _ = self._cli(
            ["label", "--input", self.csv, "--text-col", "text",
             "--cluster-json", self.paths["cluster"], "--output", self.paths["labels"]])
        labels = self._read("labels")

        def check():
            from checks import labels_problems
            return labels_problems(labels, [c["id"] for c in self.doc["clusters"]])
        self._record("label_cmd_s", "label", seconds, ok, labels, check)
        return seconds

    def sql(self, cid: int) -> float:
        ok, seconds, out = self._cli(
            ["sql", "--cluster-json", self.paths["cluster"], "--cluster-id", str(cid)])
        predicate = out.strip()

        def check():
            if self.name != "many-clusters":  # sqlite over 1M rows is too slow
                return [] if predicate else [f"sql:{cid}: empty predicate"]
            return self._sql_oracle().problems(cid, predicate)
        self._record("sql_cmd_s", f"sql:{cid}", seconds, ok, out.encode(), check)
        return seconds

    def _sql_oracle(self):
        if self._oracle is None:
            from checks import SqlOracle
            dc = self.dc
            shapes = [dc.ClusterShape(c["id"], dc.PolygonRing(()), [],
                                      [tuple(r) for r in c["rects"]])
                      for c in self.doc["clusters"]]
            vp = dc.Viewport.from_dict(self.doc["viewport"])
            assignment = dc.assign_documents(self.batch, shapes, vp)
            self._oracle = SqlOracle(self.xs, self.ys, assignment)
        return self._oracle

    def round(self, min_op_seconds: float, sql_part: slice) -> float:
        """Every operation, each repeated until it has taken min_op_seconds;
        the sql step queries the `sql_part` slice of the sampled ids each
        time. A reference unit follows each operation's repeats. Returns the
        summed operation time."""
        def repeat(op):
            total = op()
            while total < min_op_seconds:
                total += op()
            self.ref.unit()
            return total

        seconds = repeat(self.pipeline) + repeat(self.cluster)
        if self.doc is None:
            return seconds  # no document to render, label or query
        if not self.sql_ids:
            import numpy as np
            ids = sorted(c["id"] for c in self.doc["clusters"])
            rng = np.random.default_rng(self.seed)
            self.sql_ids = rng.choice(ids, size=SQL_SAMPLES,
                                      replace=len(ids) < SQL_SAMPLES).tolist()
        seconds += repeat(self.render) + repeat(self.label)
        seconds += repeat(lambda: sum(self.sql(cid) for cid in self.sql_ids[sql_part]))
        return seconds

    def close(self):
        if self._oracle is not None:
            self._oracle.close()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def e2e_metrics(bench: Bench, setup_s: float) -> dict:
    metrics = {m: _metric(statistics.median(bench.ref.scaled(
                   bench.samples[m], bench.ref_at[m], bench.ref_start)), "s")
               for m in TIMINGS}
    metrics["setup_s"] = _metric(setup_s, "s")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = _metric(rss_kb / 1024.0, "MB")
    return metrics


def layer_metrics(bench: Bench, tracer, walls: dict) -> dict:
    from spans import LAYERS, OVERHEAD, layer_name
    rounds = len(walls[True])
    own = tracer.self_times()
    cnt = tracer.counters
    metrics = {}
    for mod, funcs in LAYERS.items():
        for func in funcs:
            name = layer_name(mod, func)
            metrics[f"{name}.self_ms"] = _metric(own.get(name, 0.0) * 1000.0 / rounds, "ms")
            for key in COUNTERS.get(name, ()):
                total = cnt.get(f"{name}.{key}", 0.0)
                calls = cnt.get(f"{name}.calls", 0.0)
                value = total / calls if key == "taps" and calls else total / rounds
                metrics[f"{name}.{key}"] = _metric(value, UNITS.get(key, "count"))

    def frac(num, den):
        return cnt.get(num, 0.0) / cnt[den] if cnt.get(den) else 0.0
    metrics["clustering.union_clusters.merge_frac"] = _metric(
        frac("clustering.union_clusters.merges", "clustering.union_clusters.edges_in"), "frac")
    metrics["labeling.assign_documents.assigned_frac"] = _metric(
        frac("labeling.assign_documents.assigned", "labeling.assign_documents.documents"),
        "frac")
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["trace.overhead_ms"] = _metric(overhead * 1000.0, "ms")
    layers = sum(t for n, t in own.items() if n != OVERHEAD)
    metrics["trace.accounted_frac"] = _metric(layers / sum(walls[True]), "frac")
    metrics["failed_frac"] = _metric(bench.failed / bench.attempted, "frac")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="record this seed's output digests in digests.json")
    args = ap.parse_args(argv)

    if not (SRC / "densitycluster" / "cli.py").is_file():
        print(f"error: no densitycluster sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 1

    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    entry = digests.get(args.workload, {})
    recorded = entry.get("outputs", {}) if entry.get("seed") == args.seed else {}

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = None
    try:
        subprocess.run([sys.executable, str(HERE / "inputs.py"), args.workload,
                        str(args.seed), str(work)],
                       env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
        ref = Reference()
        setup_s, setup_raw = measure_setup(ref) if args.trace == 0 else (None, None)

        bench = Bench(args.workload, args.seed, work, recorded, ref)
        walls = {False: [], True: []}
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
        start = round_start = time.perf_counter()
        while True:
            if tracer is None:
                # alternate halves of the id sample: two rounds make every
                # sampled sql call once
                half = SQL_SAMPLES // 2 * (len(walls[False]) % 2)
                walls[False].append(bench.round(MIN_OP_SECONDS,
                                                slice(half, half + SQL_SAMPLES // 2)))
            else:
                # one pass per operation over the same calls each round, so
                # that counters per round do not depend on speed and traced
                # outputs can be compared with untraced ones
                traced = len(walls[False]) > len(walls[True])
                with tracer.installed() if traced else contextlib.nullcontext():
                    walls[traced].append(bench.round(0.0, slice(None)))
            # stop at the round boundary nearest to --seconds
            last = time.perf_counter() - round_start
            round_start = time.perf_counter()
            done = round_start - start + last / 2 >= args.seconds
            if done and (tracer is None or walls[True]):
                break

        if tracer is None:
            metrics = e2e_metrics(bench, setup_s)
        else:
            metrics = layer_metrics(bench, tracer, walls)
        detail = {"workload": args.workload, "seed": args.seed,
                  "rounds": len(walls[False]) + len(walls[True]),
                  "clusters": len(bench.doc["clusters"]) if bench.doc else 0,
                  "untraced_round_s": walls[False], "traced_round_s": walls[True],
                  "problems": bench.problems[:20]}
        if tracer is None:
            # raw seconds: median, tail and count of each timing
            detail["timings"] = {m: _tail(bench.samples[m]) for m in TIMINGS}
            detail["setup_median_s"] = setup_raw
            detail["reference_median_s"] = statistics.median(ref.samples[bench.ref_start:])
        print(json.dumps({"detail": detail}))
        if args.write_digests:
            digests[args.workload] = {"seed": args.seed, "outputs": bench.digests}
            DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                          "failed": bench.failed, "metrics": metrics}))
        return 0
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
