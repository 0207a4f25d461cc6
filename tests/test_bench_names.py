"""The traced bench run (``bench/run.py --trace 1``) replaces package
functions by name. A name that ``bench/spans.py`` wraps but the package no
longer defines would fail only there, so this test resolves each one."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in spans.WRAPS
               if not callable(getattr(owner, attr, None))]
    assert missing == []
    assert callable(getattr(spans.ActivationCache, "get", None))


def test_every_workload_config_validates(monkeypatch):
    # a config API change that breaks a bench scenario fails here, not only in the bench
    monkeypatch.syspath_prepend(str(BENCH))
    import scenarios

    for build in scenarios.WORKLOADS.values():
        build(1).cfg.validate()


def test_traced_run_sees_every_lp(monkeypatch):
    # the tracer reads each LP's shape from how lp.solve calls lp.solve_lp
    # (c by position, A_ub by keyword): a set-up that stopped calling it so
    # would zero lp.rows, lp.cols and simplex.pivots and fail nowhere else
    monkeypatch.syspath_prepend(str(BENCH))
    import scenarios
    import spans

    from concolic_dnn import engine

    scenario = scenarios.WORKLOADS["nc-linf-dense"](3)
    tracer = spans.Tracer(0)
    with tracer.installed():
        engine.run(scenario.net, scenario.refs, scenario.seeds, scenario.cfg)
    lp_solves = [i for i, span in enumerate(tracer.spans) if span["name"] == "lp.solve"]
    solves = [span for span in tracer.spans if span["name"] == "simplex.solve"]
    assert lp_solves and sorted(span["parent"] for span in solves) == lp_solves
    assert all(span["rows"] > 0 and span["cols"] > 0 and span["pivots"] > 0 for span in solves)
    metrics = tracer.layer_metrics()
    assert metrics["lp.rows"] > 0 and metrics["lp.cols"] > 0 and metrics["simplex.pivots"] > 0
