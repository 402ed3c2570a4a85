"""The benchmark's span tracer wraps kobex functions by name; renaming one of
them must fail here, not only in traced benchmark runs."""

import importlib.util
import pathlib
import sys

import kobex.cli  # noqa: F401  (loads every module the tracer wraps)

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_installs_and_uninstalls_on_the_package(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("kobex_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    def current():
        out = {}
        for modname, attr, _, _ in spans.TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            out[modname, attr] = owner.__dict__[attr]
        return out

    before = current()
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = current()
        assert all(wrapped[k] is not before[k] for k in before)
    finally:
        tracer.uninstall()
    assert current() == before


def test_cli_spans_are_entered_after_an_untraced_call(monkeypatch, capsys):
    # traced benchmark runs make an untraced pass first, so the CLI parser
    # exists before the tracer wraps cmd_distance and cmd_metric
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("kobex_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert kobex.cli.main(["distance", "ball2", "--at", "0.3,0.1"]) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert kobex.cli.main(["distance", "ball2", "--at", "0.3,0.1"]) == 0
        assert kobex.cli.main(["metric", "ball2", "--at", "0.3,0.1", "--dir", "1,0"]) == 0
    finally:
        tracer.uninstall()
    entered = {tracer.names[i] for i in tracer.name}
    assert {"cli.distance", "cli.metric"} <= entered
