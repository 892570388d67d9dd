import importlib
import pkgutil
from pathlib import Path

import pytest

import tcdm

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(tcdm.__path__))


@pytest.mark.parametrize("module", ["tcdm"] + [f"tcdm.{name}" for name in SUBMODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"



def test_benchmark_swap_targets_resolve(monkeypatch):
    # the benchmark's tracer swaps these module attributes by name; a
    # renamed or deleted one would only show up in a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    broken = [f"{entry[0].__name__}.{entry[1]}" for entry in spans._WRAPPED
              if not callable(getattr(entry[0], entry[1], None))]
    assert not broken, f"benchmark swap targets missing: {broken}"


@pytest.mark.parametrize("threads", [1, 2])
def test_traced_prepare_and_score(monkeypatch, threads):
    # the tracer's argument hooks read the arguments of the calls they
    # wrap (knn_batch's, say): a changed signature raises in the hook, and
    # spans that do not nest would fail the benchmark's traced runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    import tcdm.metric
    from tcdm import DegradationSpec, MetricConfig, degrade
    from tcdm.synthetic import sphere_cloud

    monkeypatch.setattr(tcdm.metric, "_POOL_MIN_SLOTS", 0)
    ref = sphere_cloud(1500, 5, radius=50.0)
    dist = degrade(ref, DegradationSpec("geometry_gaussian", 1.0, 6))
    cfg = MetricConfig(seeds=8, neighbors=10)
    want = tcdm.metric.score(ref, dist, cfg, threads=threads).q
    tracer = spans.Tracer()
    with spans.install(tracer), tracer.span("test"):
        state = tcdm.metric.prepare_reference(ref, cfg, threads=threads)
        got = tcdm.metric.score_with_reference(state, dist, threads=threads).q
    assert got == want
    tree = spans.SpanTree(tracer.spans)
    assert [r.name for r in tree.roots()] == ["test"]
    for s in tree.spans:
        parent = tree.by_id.get(s.parent)
        assert parent is None or parent.start <= s.start and s.end <= parent.end, s.name
    names = {s.name for s in tree.spans}
    assert {"metric.prepare", "metric.score", "savar.fit", "features.patch_features"} <= names
    # the hooks ran: the attributes they record are on their spans
    (score_span,) = tree.named("metric.score")
    assert score_span.attrs == {"workers": threads, "used": 8, "empty": 0}
    # every encoding's kNN call is traced inside it, and the hook reads the
    # call's query rows: each encoding asks once per row of the reference
    (prep,) = tree.named("metric.prepare")
    rows = sum(n for n in prep.attrs["patch_points"] if n >= 2)
    for purpose in ("savar.encode_self", "savar.encode_cross", "features.field_ids"):
        knn = [s for s in tree.named("spatial.knn_batch")
               if any(a.name == purpose for a in tree.ancestors(s))]
        assert knn and len(knn) == len(tree.named(purpose)), purpose
        for s in knn:
            parent = tree.by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, purpose
        assert sum(s.attrs["queries"] for s in knn) == rows, purpose
