import importlib
import json
import sys
import threading

import pytest

from spectraledge.cli import run_command
from tracer import COMMAND_SPAN, WRAPPED, Span, Tracer, layer_metrics, self_times


def span(id, start, end, parent=None, thread=1, name="x"):
    return Span(id, name, start, end, parent, thread, 1, False, ())


def test_self_time_of_nested_and_overlapping_children():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 4.0, parent=1),
        span(3, 3.0, 6.0, parent=1),   # overlaps span 2: the union [1, 6] is covered once
        span(4, 2.0, 3.0, parent=2),   # grandchild: covers its parent, not span 1 directly
        span(5, 7.0, 7.5, parent=1),
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 5.0 - 0.5)
    assert st[2] == pytest.approx(2.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.0)
    assert st[5] == pytest.approx(0.5)


def test_self_time_with_children_on_other_threads():
    spans = [
        span(1, 0.0, 10.0, thread=1),
        span(2, 1.0, 9.0, parent=1, thread=2),
        span(3, 2.0, 8.0, parent=1, thread=3),    # runs alongside span 2
        span(4, 9.5, 12.0, parent=1, thread=2),   # outlives its parent: clipped at 10
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 8.0 - 0.5)
    assert st[2] == pytest.approx(8.0)
    assert st[3] == pytest.approx(6.0)
    assert st[4] == pytest.approx(2.5)


def _wrapped_attributes():
    """Every (module, attribute, object) in spectraledge that holds a wrapped function."""
    originals = {id(getattr(importlib.import_module(f"spectraledge.{m}"), f)) for m, f in WRAPPED}
    found = []
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "spectraledge" or name.startswith("spectraledge.")):
            found += [(name, attr, value) for attr, value in vars(module).items() if id(value) in originals]
    return found


@pytest.fixture()
def spectrum(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"type": "uniform_sq", "v_min": 0.5, "v_max": 2.0, "M": 20, "N": 40}))
    return str(path)


def test_traced_run_restores_every_wrapped_attribute(spectrum, tmp_path):
    before = _wrapped_attributes()
    # the names the package imports by name are among those replaced
    held = {(m, a) for m, a, _ in before}
    for expected in (("spectraledge.cli", "solve_stieltjes"), ("spectraledge.cli", "sample_matrix"),
                     ("spectraledge.locallaw", "sample_matrix"), ("spectraledge.montecarlo", "f1_cdf"),
                     ("spectraledge", "find_edge")):
        assert expected in held

    tracer = Tracer()
    tracer.install()
    try:
        for name, attr, value in before:
            assert getattr(sys.modules[name], attr) is not value
        with tracer.command("simulate") as outcome:
            outcome["rc"] = run_command(["simulate", "--spectrum", spectrum, "--trials", "4",
                                         "--threads", "2", "--out", str(tmp_path / "sim.csv")])
        with tracer.command("locallaw") as outcome:
            outcome["rc"] = run_command(["locallaw", "--spectrum", spectrum, "--seeds", "2",
                                         "--threads", "2", "--out", str(tmp_path / "ll.csv")])
    finally:
        tracer.uninstall()

    for name, attr, value in before:
        assert getattr(sys.modules[name], attr) is value
    assert _wrapped_attributes() == before

    by_id = {s.id: s for s in tracer.spans}
    main = threading.get_ident()
    roots = [s for s in tracer.spans if s.name == COMMAND_SPAN]
    assert [s.failed for s in roots] == [False, False]
    # worker-thread spans hang under the span the command thread had open
    for s in tracer.spans:
        if s.name == "montecarlo.largest_eigenvalue":
            assert by_id[s.parent].name == "montecarlo.run_ensemble"
        if s.name == "locallaw.locallaw_deviation":
            assert by_id[s.parent].name == COMMAND_SPAN
    assert any(s.thread != main for s in tracer.spans)

    layers = layer_metrics(tracer.spans, 1)
    assert layers["montecarlo.largest_eigenvalue.calls"] == (4, "count")
    assert layers["locallaw.build_linearization.calls"] == (2, "count")
    assert layers["locallaw.build_linearization.bytes_computed"][0] == 2 * 60**2 * 16
    assert layers["montecarlo.sample_matrix.bytes_computed"][0] == 6 * 20 * 40 * 8
    assert 0 < layers["montecarlo.run_ensemble.parallel_eff"][0] <= 1.0 + 1e-9


def test_failed_calls_are_counted(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.command("edge") as outcome:
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({"type": "explicit", "d": [0.0, 5.0], "M": 2, "N": 1}))
            outcome["rc"] = run_command(["edge", "--spectrum", str(bad)])
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer.spans, 1)
    assert outcome["rc"] == 2
    assert layers["spectrum.load_spectrum.failed"] == (1, "count")
    assert layers[f"{COMMAND_SPAN}.failed"] == (1, "count")
