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
