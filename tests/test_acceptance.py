"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Timing
criteria use generous absolute bounds plus scaling ratios, so they hold on
any contemporary desktop CPU.
"""
import json
import sqlite3
import time
from statistics import median

import numpy as np
import pytest

from densitycluster.cli import main
from densitycluster.clustering import (ClusterParams, cluster_density_map,
                                       initial_clusters)
from densitycluster.density import (DensityMap, PointBatch, Viewport,
                                    bin_points, smooth)
from densitycluster.geometry import shape_for_cluster, to_data_space
from densitycluster.labeling import (assign_documents, ctfidf_labels,
                                     emit_sql_predicate)
from densitycluster.oracles import (flood_fill_components, rasterize_rings,
                                    steepest_ascent_oracle)
from densitycluster.synth import (GaussianMixture, bench_run, random_mixture,
                                  sample_mixture)

from conftest import region_pixels


def _report(num: int, text: str):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def bench_rows():
    return bench_run(sizes=[500, 1000], repeats=3, seed=7, n_points=100_000)


def test_criterion_01_runtime_bound(bench_rows):
    row = next(r for r in bench_rows if r["size"] == 1000)
    assert row["cluster_ms_median"] <= 500.0, row
    _report(1, f"1000x1000 clustering median {row['cluster_ms_median']:.1f} ms "
               f"<= 500 ms (clusters={row['clusters']})")


def test_criterion_02_point_count_invariance():
    size, bandwidth = 1000, 20.0
    rng = np.random.default_rng(11)
    mix = random_mixture(size, 100, rng)
    vp = Viewport(0.0, float(size), 0.0, float(size), size, size)
    b_small = sample_mixture(mix, 10_000, np.random.default_rng(12))
    b_big = sample_mixture(mix, 1_000_000, np.random.default_rng(13))
    dm_small = smooth(bin_points(b_small, vp), bandwidth)
    dm_big = smooth(bin_points(b_big, vp), bandwidth)
    params = ClusterParams()
    cluster_density_map(dm_small, params)   # warmup
    cluster_density_map(dm_big, params)
    t_small, t_big = [], []
    for _ in range(7):
        t0 = time.perf_counter()
        cluster_density_map(dm_small, params)
        t1 = time.perf_counter()
        cluster_density_map(dm_big, params)
        t2 = time.perf_counter()
        t_small.append((t1 - t0) * 1000)
        t_big.append((t2 - t1) * 1000)
    ms, mb = median(t_small), median(t_big)
    diff = abs(ms - mb) / max(ms, mb)
    assert diff <= 0.10, (ms, mb)
    _report(2, f"clustering the same grid from 1e4 vs 1e6 points: "
               f"{ms:.1f} ms vs {mb:.1f} ms ({diff * 100:.1f}% <= 10%)")


def test_criterion_03_near_linear_scaling(bench_rows):
    t500 = next(r for r in bench_rows if r["size"] == 500)["cluster_ms_median"]
    t1000 = next(r for r in bench_rows if r["size"] == 1000)["cluster_ms_median"]
    ratio = t1000 / t500
    assert ratio <= 6.0, (t500, t1000)
    _report(3, f"cluster time ratio t(1000^2)/t(500^2) = {ratio:.2f} <= 6.0 "
               f"({t500:.1f} ms -> {t1000:.1f} ms)")


def test_criterion_04_oracle_equivalence_100_grids():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for trial in range(100):
        size = int(rng.integers(8, 65))
        vals = rng.random((size, size))
        vals[vals < 0.35] = 0.0
        dm = DensityMap(Viewport(0, size, 0, size, size, size), vals)
        if trial % 3 == 0:
            dm = smooth(dm, float(rng.uniform(0.5, 2.0)))  # smoothed noise
        if trial % 2 == 0:
            dm = DensityMap(dm.viewport, np.round(dm.values * 8) / 8)  # plateaus
        fast = initial_clusters(dm)
        slow = steepest_ascent_oracle(dm)
        if not np.array_equal(fast.ids, slow.ids):
            mismatches += 1
    assert mismatches == 0
    _report(4, "initial clusters equal the steepest-ascent oracle pixel-exact "
               "on 100 seeded grids (sizes 8-64, smoothed noise and plateaus)")


def test_criterion_05_truncation_contract(fixture_corpus):
    checked = 0
    for name, dm, params in fixture_corpus:
        cmap, graph = cluster_density_map(dm, params)
        for cid, node in graph.nodes.items():
            region = cmap.ids == cid
            vals = dm.values[region]
            assert (vals >= 0.1 * node.peak_density).all(), name
            assert (vals >= params.truncation_ratio * node.peak_density).all(), name
            assert flood_fill_components(cmap, cid, params.connectivity) == 1, name
            assert region[node.peak_xy[1], node.peak_xy[0]], name
            checked += 1
    assert checked > 0
    _report(5, f"{checked} clusters across the fixture corpus satisfy the "
               f"0.1-peak density floor and are single peak-connected components")


def test_criterion_06_geometry_round_trip(fixture_corpus):
    checked = 0
    for name, dm, params in fixture_corpus:
        cmap, graph = cluster_density_map(dm, params)
        for cid, node in graph.nodes.items():
            shape = shape_for_cluster(cmap, cid, params.connectivity)
            pixels = region_pixels(cmap, cid)
            assert rasterize_rings(shape.outer, shape.holes) == pixels, name
            covered = set()
            area = 0
            for x0, y0, x1, y1 in shape.rects:
                cells = {(x, y) for y in range(int(y0), int(y1))
                         for x in range(int(x0), int(x1))}
                assert not (covered & cells), name
                covered |= cells
                area += (int(x1) - int(x0)) * (int(y1) - int(y0))
            assert covered == pixels, name
            assert area == node.area_px == len(pixels), name
            checked += 1
    _report(6, f"{checked} traced polygons rasterize back to their pixel "
               f"regions exactly; rectangle covers are exact disjoint partitions")


def test_criterion_07_sql_assignment_equivalence(fixture_corpus):
    rng = np.random.default_rng(99)
    checked = 0
    for name, dm, params in fixture_corpus:
        cmap, graph = cluster_density_map(dm, params)
        if not graph.nodes:
            continue
        vp = dm.viewport
        shapes = [to_data_space(shape_for_cluster(cmap, cid, params.connectivity), vp)
                  for cid in sorted(graph.nodes)]
        n = 400
        xs = rng.uniform(vp.x_min - 1, vp.x_max + 1, n)
        ys = rng.uniform(vp.y_min - 1, vp.y_max + 1, n)
        r = shapes[0].rects[0]
        xs[0], ys[0] = r[0], r[1]   # exact corners pin the half-open contract
        xs[1], ys[1] = r[2], r[3]
        assignment = assign_documents(PointBatch(xs, ys, np.ones(n)), shapes, vp)
        con = sqlite3.connect(":memory:")
        con.execute("CREATE TABLE pts (i INTEGER, x REAL, y REAL)")
        con.executemany("INSERT INTO pts VALUES (?, ?, ?)",
                        [(i, float(xs[i]), float(ys[i])) for i in range(n)])
        for shape in shapes:
            predicate = emit_sql_predicate(shape, "x", "y")
            rows = {r[0] for r in
                    con.execute(f"SELECT i FROM pts WHERE {predicate}")}
            assert rows == set(assignment[shape.cluster_id].tolist()), name
            checked += 1
        con.close()
    _report(7, f"emitted WHERE predicates select exactly the assigned rows "
               f"for {checked} clusters (sqlite oracle)")


def test_criterion_08_label_recovery():
    topics = ["geology", "music", "biology"]
    mix = GaussianMixture(
        centers=np.array([[20.0, 20.0], [76.0, 24.0], [48.0, 76.0]]),
        sigmas=np.array([6.0, 6.0, 6.0]),
        weights=np.array([1 / 3, 1 / 3, 1 / 3]))
    rng = np.random.default_rng(55)
    batch = sample_mixture(mix, 12_000, rng, clip_sigmas=3.0,
                           texts=[f"{t} sample record" for t in topics])
    vp = Viewport(0.0, 96.0, 0.0, 96.0, 96, 96)
    dm = smooth(bin_points(batch, vp), 2.0)
    cmap, graph = cluster_density_map(dm)
    assert len(graph.nodes) == 3
    shapes = [to_data_space(shape_for_cluster(cmap, cid), vp)
              for cid in sorted(graph.nodes)]
    assignment = assign_documents(batch, shapes, vp)
    labels = {lr.cluster_id: lr for lr in
              ctfidf_labels(assignment, batch.texts, k=3)}
    hits = 0
    for cid, node in graph.nodes.items():
        px = vp.x_min + (node.peak_xy[0] + 0.5) * vp.sx
        py = vp.y_min + (node.peak_xy[1] + 0.5) * vp.sy
        planted = topics[int(np.argmin(np.hypot(mix.centers[:, 0] - px,
                                                mix.centers[:, 1] - py)))]
        assert labels[cid].top_terms[0][0] == planted, (cid, labels[cid])
        hits += 1
    assert hits == 3
    _report(8, "top-1 c-TF-IDF term equals the planted topic word for all "
               "three blobs (geology / music / biology)")


def test_criterion_09_merge_behavior(fixture_corpus):
    near = next(dm for name, dm, _ in fixture_corpus if name == "two_gauss_near")
    far = next(dm for name, dm, _ in fixture_corpus if name == "two_gauss_far")
    counts = {}
    for label, dm in (("near", near), ("far", far)):
        for md in (8.0, 0.0):
            _, graph = cluster_density_map(dm, ClusterParams(merge_distance_px=md))
            counts[(label, md)] = len(graph.nodes)
    assert counts[("near", 8.0)] == 1
    assert counts[("near", 0.0)] == 2
    assert counts[("far", 8.0)] == 2
    assert counts[("far", 0.0)] == 2
    _report(9, "6 px pair: 1 cluster at merge distance 8, 2 at 0; "
               "60 px pair: 2 clusters at both settings")


@pytest.fixture(scope="module")
def imagenet_scale_csv(tmp_path_factory):
    """1.28M synthetic points with a text column, written once."""
    path = tmp_path_factory.mktemp("imagenet") / "points.csv"
    rng = np.random.default_rng(123)
    mix = random_mixture(1000.0, 40, rng)
    words = [f"topic{i:02d}" for i in range(40)]
    batch = sample_mixture(mix, 1_280_000, rng, texts=words)
    xs, ys, ts = batch.xs, batch.ys, batch.texts
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,text\n")
        chunk = []
        for i in range(len(xs)):
            chunk.append(f"{xs[i]:.4f},{ys[i]:.4f},{ts[i]}\n")
            if len(chunk) == 100_000:
                fh.write("".join(chunk))
                chunk.clear()
        fh.write("".join(chunk))
    return path


def test_criterion_10_full_pipeline_determinism(imagenet_scale_csv, tmp_path):
    def run(tag: str) -> dict[str, bytes]:
        out = tmp_path / tag
        out.mkdir()
        clusters = out / "clusters.json"
        svg = out / "clusters.svg"
        labels = out / "labels.json"
        assert main(["cluster", "--input", str(imagenet_scale_csv),
                     "--width", "1000", "--height", "1000",
                     "--output", str(clusters)]) == 0
        assert main(["render", "--cluster-json", str(clusters),
                     "--output", str(svg)]) == 0
        assert main(["label", "--input", str(imagenet_scale_csv),
                     "--text-col", "text", "--cluster-json", str(clusters),
                     "--output", str(labels)]) == 0
        return {p.name: p.read_bytes() for p in (clusters, svg, labels)}

    first = run("run1")
    second = run("run2")
    assert first == second
    doc = json.loads(first["clusters.json"])
    assert len(doc["clusters"]) >= 2
    _report(10, f"two full cluster+render+label runs over 1.28M points are "
                f"byte-identical ({len(doc['clusters'])} clusters, "
                f"{len(first['clusters.json'])} JSON bytes)")
