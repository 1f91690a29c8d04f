"""Command line entry point.

Subcommands: cluster (points -> cluster JSON), render (cluster JSON -> SVG),
label (c-TF-IDF labels), sql (WHERE predicate for one cluster), bench
(seeded timing table). Exit codes: 0 success, 1 usage/config error, 2 I/O
error, 3 data error (including inputs too large to allocate).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields

from .clustering import ClusterParams, cluster_density_map
from .density import (DEFAULT_PADDING_FRACTION, auto_viewport, bin_points,
                      default_bandwidth, smooth)
from .errors import ClusterNotFoundError, DataError, ParameterError
from .geometry import color_clusters, count_color_conflicts
from .io import (cluster_document, collector_paused, labels_json, load_points,
                 read_cluster_document, read_density_dump, write_density_dump,
                 write_json)
from .labeling import (assign_documents, check_sql_columns, ctfidf_labels,
                        emit_sql_predicate)
from .render import render_svg
from .synth import bench_run


@dataclass
class RunConfig:
    """Resolved settings for the cluster/label commands."""

    input: str
    format: str = "csv"
    x_col: str = "x"
    y_col: str = "y"
    weight_col: str | None = None
    text_col: str | None = None
    width: int = 512
    height: int = 512
    bandwidth: float | None = None   # None -> 1% of max(width, height)
    padding: float = DEFAULT_PADDING_FRACTION
    truncation_ratio: float = ClusterParams.truncation_ratio
    merge_distance: float = ClusterParams.merge_distance_px
    connectivity: int = ClusterParams.connectivity
    min_peak_density: float = ClusterParams.min_peak_density
    palette: int = 10
    output: str | None = None
    density_out: str | None = None

    def params(self) -> ClusterParams:
        return ClusterParams(
            truncation_ratio=self.truncation_ratio,
            merge_distance_px=self.merge_distance,
            connectivity=self.connectivity,
            min_peak_density=self.min_peak_density,
        )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems become exit code 1
        raise ParameterError(message)


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    # ValueError: not JSON, not UTF-8, or an integer too long to convert
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParameterError("config file must hold a JSON object")
    return cfg


def _resolve(args, key):
    """Flag value if given, else config file value; None if neither."""
    v = getattr(args, key, None)
    if v is not None:
        return v
    return getattr(args, "_config", {}).get(key)


_KINDS = {"str": str, "int": int, "float": float}


def _run_config(args) -> RunConfig:
    """RunConfig from flags and config values. Every config key must name a
    setting. As argparse reads the flags, a float setting takes an int too,
    and an int setting takes no float."""
    names = {f.name for f in fields(RunConfig)}
    for key in getattr(args, "_config", {}):
        if key not in names:
            raise ParameterError(f"unknown config key: {key!r}")
    values = {}
    for f in fields(RunConfig):
        v = _resolve(args, f.name)
        if v is None:
            continue
        kind = _KINDS[f.type.split(" |")[0]]
        try:
            accepted = (int, float) if kind is float else kind
            if isinstance(v, bool) or not isinstance(v, accepted):
                raise TypeError
            values[f.name] = kind(v)
        except (TypeError, ValueError, OverflowError):
            raise ParameterError(f"bad value for {f.name}: {v!r}") from None
    if "input" not in values:
        raise ParameterError("--input is required")
    cfg = RunConfig(**values)
    if cfg.format not in ("csv", "jsonl"):
        raise ParameterError("--format must be csv or jsonl")
    return cfg


def _add_io_flags(p):
    p.add_argument("--input", help="points file (CSV with header, or JSON lines)")
    p.add_argument("--format", choices=("csv", "jsonl"), default=None)
    p.add_argument("--x-col", dest="x_col")
    p.add_argument("--y-col", dest="y_col")
    p.add_argument("--weight-col", dest="weight_col")
    p.add_argument("--text-col", dest="text_col")
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    p.add_argument("--output", help="output file path")


def build_parser() -> _Parser:
    parser = _Parser(prog="densitycluster",
                     description="Cluster 2D point projections via a density map.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="points -> cluster JSON")
    _add_io_flags(p)
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--bandwidth", type=float, help="Gaussian sigma in pixels")
    p.add_argument("--padding", type=float, help="viewport padding fraction")
    p.add_argument("--truncation-ratio", dest="truncation_ratio", type=float)
    p.add_argument("--merge-distance", dest="merge_distance", type=float)
    p.add_argument("--connectivity", type=int, choices=(4, 8))
    p.add_argument("--min-peak-density", dest="min_peak_density", type=float)
    p.add_argument("--palette", type=int)
    p.add_argument("--density-out", dest="density_out",
                   help="also write the smoothed density grid (binary dump)")
    p.add_argument("--pixel-space", dest="pixel_space", action="store_true",
                   help="emit geometry in pixel units instead of data units")

    p = sub.add_parser("render", help="cluster JSON -> SVG")
    p.add_argument("--cluster-json", dest="cluster_json", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--underlay", help="density dump to draw under the clusters")

    p = sub.add_parser("label", help="attach c-TF-IDF labels to clusters")
    _add_io_flags(p)
    p.add_argument("--cluster-json", dest="cluster_json", required=True)
    p.add_argument("--top-k", dest="top_k", type=int, default=5)
    p.add_argument("--merge", action="store_true",
                   help="write the cluster JSON with labels embedded instead "
                        "of a separate labels file")

    p = sub.add_parser("sql", help="print the WHERE predicate for one cluster")
    p.add_argument("--cluster-json", dest="cluster_json", required=True)
    p.add_argument("--cluster-id", dest="cluster_id", type=int, required=True)
    p.add_argument("--x-col", dest="x_col", default="x")
    p.add_argument("--y-col", dest="y_col", default="y")

    p = sub.add_parser("bench", help="timing table on seeded synthetic mixtures")
    p.add_argument("--sizes", default="250,500,1000",
                   help="comma-separated grid sizes")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=100_000)
    p.add_argument("--json-out", dest="json_out")

    return parser


def cmd_cluster(args) -> int:
    cfg = _run_config(args)
    if cfg.output is None:
        raise ParameterError("--output is required")
    params = cfg.params()
    t_load = time.perf_counter()
    batch = load_points(cfg.input, cfg.format, cfg.x_col, cfg.y_col,
                        cfg.weight_col, cfg.text_col)
    load_ms = (time.perf_counter() - t_load) * 1000
    vp = auto_viewport(batch, cfg.width, cfg.height, cfg.padding)
    bandwidth = cfg.bandwidth if cfg.bandwidth is not None else default_bandwidth(vp)
    if bandwidth > 0:
        # smooth imports scipy on first use; import it first so that kde_ms
        # times the KDE alone
        import scipy.ndimage  # noqa: F401

    t0 = time.perf_counter()
    dm = smooth(bin_points(batch, vp), bandwidth)
    t1 = time.perf_counter()
    cmap, graph = cluster_density_map(dm, params)
    t2 = time.perf_counter()

    colors = color_clusters(graph, cfg.palette)
    conflicts = count_color_conflicts(graph, colors)
    if conflicts:
        print(f"warning: {conflicts} adjacent cluster pair(s) share a color",
              file=sys.stderr)
    space = "pixel" if getattr(args, "pixel_space", False) else "data"
    write_json(cfg.output,
               cluster_document(vp, params, bandwidth, cmap, graph, colors, space))
    if cfg.density_out:
        write_density_dump(cfg.density_out, dm)
    print(f"clusters={len(colors)} pixels={vp.width * vp.height} "
          f"load_ms={load_ms:.1f} kde_ms={(t1 - t0) * 1000:.1f} "
          f"cluster_ms={(t2 - t1) * 1000:.1f}")
    return 0


def cmd_render(args) -> int:
    doc = read_cluster_document(args.cluster_json)
    underlay = None
    if args.underlay:
        w, h, underlay = read_density_dump(args.underlay)
        vp = doc.viewport
        if (w, h) != (vp.width, vp.height):
            raise DataError(
                f"underlay grid {w}x{h} does not match viewport "
                f"{vp.width}x{vp.height}")
    svg = render_svg(doc, underlay)
    with open(args.output, "wb") as fh:
        fh.write(svg)
    print(f"paths={len(doc.clusters)} bytes={len(svg)}")
    return 0


def cmd_label(args) -> int:
    cfg = _run_config(args)
    if cfg.text_col is None:
        raise ParameterError("label requires --text-col")
    if cfg.output is None:
        raise ParameterError("--output is required")
    if args.top_k < 1:
        raise ParameterError("--top-k must be >= 1")
    doc = read_cluster_document(args.cluster_json)
    t_load = time.perf_counter()
    batch = load_points(cfg.input, cfg.format, cfg.x_col, cfg.y_col,
                        cfg.weight_col, cfg.text_col)
    load_ms = (time.perf_counter() - t_load) * 1000
    shapes = [doc.rect_shape(c) for c in doc.clusters]
    assignment = assign_documents(batch, shapes, doc.viewport)
    labels = ctfidf_labels(assignment, batch.texts, args.top_k)
    if args.merge:
        by_id = {lr.cluster_id: lr.top_terms for lr in labels}
        for c in doc.clusters:
            c.label = by_id.get(c.id, [])
        write_json(cfg.output, doc)
    else:
        write_json(cfg.output, labels_json([lr.cluster_id for lr in labels],
                                           [lr.top_terms for lr in labels]))
    assigned = sum(len(v) for v in assignment.values())
    print(f"labeled={len(labels)} documents={len(batch)} assigned={assigned} "
          f"load_ms={load_ms:.1f}")
    return 0


def cmd_sql(args) -> int:
    check_sql_columns(args.x_col, args.y_col)
    doc = read_cluster_document(args.cluster_json)
    for c in doc.clusters:
        if c.id == args.cluster_id:
            if not c.rects:  # a fault of the document, not of the command line
                raise DataError(f"cluster {c.id} has no rectangles to emit")
            print(emit_sql_predicate(doc.rect_shape(c), args.x_col, args.y_col))
            return 0
    raise ClusterNotFoundError(args.cluster_id)


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in str(args.sizes).split(",") if s.strip()]
    except ValueError:
        raise ParameterError(f"bad --sizes value: {args.sizes!r}") from None
    if not sizes:
        raise ParameterError("--sizes must name at least one grid size")
    if args.repeats < 1:
        raise ParameterError("--repeats must be >= 1")
    if args.points < 0:
        raise ParameterError("--points must be >= 0")
    if args.seed < 0:
        raise ParameterError("--seed must be >= 0")
    rows = bench_run(sizes, args.repeats, args.seed, args.points)
    header = f"{'size':>6} {'gauss':>6} {'points':>9} {'kde_ms':>9} {'cluster_ms':>11} {'clusters':>9}"
    print(header)
    for r in rows:
        print(f"{r['size']:>6} {r['gaussians']:>6} {r['points']:>9} "
              f"{r['kde_ms_median']:>9.1f} {r['cluster_ms_median']:>11.1f} "
              f"{r['clusters']:>9}")
    if args.json_out:
        write_json(args.json_out, {"seed": args.seed, "repeats": args.repeats,
                                   "points": args.points, "rows": rows})
    return 0


_COMMANDS = {
    "cluster": cmd_cluster,
    "render": cmd_render,
    "label": cmd_label,
    "sql": cmd_sql,
    "bench": cmd_bench,
}


# main()'s parser, built on its first call rather than at import. A parse
# leaves no state in it, and building it takes milliseconds against tens of
# microseconds for a parse.
_parser: _Parser | None = None


def main(argv=None) -> int:
    """Run one command; its exit code. The command runs with the cyclic
    garbage collector paused (see `io.collector_paused`): its data hold no
    cycles, and collections would walk all of it."""
    global _parser
    with collector_paused():
        if _parser is None:
            _parser = build_parser()
        try:
            args = _parser.parse_args(argv)
            if getattr(args, "config", None):
                args._config = _load_config(args.config)
            else:
                args._config = {}
            return _COMMANDS[args.command](args)
        except ParameterError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return 2
        except ClusterNotFoundError as exc:
            print(f"error: cluster {exc.args[0]} not found", file=sys.stderr)
            return 3
        except DataError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except MemoryError as exc:
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
