"""Tests of the outside-in tracer: python3 -m pytest perfbench/test_tracer.py"""

import sys
import threading
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer as tr  # noqa: E402


def _ticks():
    """A clock that advances by one on every reading."""
    count = iter(range(1_000_000))
    return lambda: float(next(count))


def test_nested_calls_link_parents_and_subtract_children():
    t = tr.Tracer(clock=_ticks())
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    spans = {s.name: s for s in t.spans if s.name == "outer"}
    outer_span = spans["outer"]
    kids = [s for s in t.spans if s.name == "inner"]
    assert [k.parent for k in kids] == [outer_span.id, outer_span.id]
    assert outer_span.parent == 0
    selfs = tr.self_times(t.spans)
    # clock reads: outer 0, inner 1-2, inner 3-4, outer 5
    assert outer_span.end - outer_span.start == 5.0
    assert selfs[outer_span.id] == 3.0
    assert all(selfs[k.id] == 1.0 for k in kids)


def test_span_recorded_when_the_call_raises():
    t = tr.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = t.wrap("boom", boom, attrs=lambda a, k, r: {"never": 1})
    try:
        wrapped()
    except ValueError:
        pass
    assert [(s.name, s.attrs) for s in t.spans] == [("boom", None)]
    assert t._stack() == []


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return 2 * x

    def internal(x):  # a module-global call inside the defining module
        return a.__dict__["f"](x)

    a.f, a.internal = f, internal
    b.g = f  # `from .a import f as g`
    b.h = lambda x: b.__dict__["g"](x)
    pkg.f = f
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    return pkg, a, b, f


def test_aliases_in_every_namespace_are_wrapped_and_undone():
    pkg, a, b, f = _fake_package()
    try:
        t = tr.Tracer()
        undo = tr.wrap_everywhere(t, "a.f", a, "f", "fakepkg")
        rebound = sorted((ns.__name__, key) for ns, key, _ in undo)
        assert rebound == [("fakepkg", "f"), ("fakepkg.a", "f"), ("fakepkg.b", "g")]
        assert b.h(3) == 6 and a.internal(4) == 8 and pkg.f(5) == 10
        assert [s.name for s in t.spans] == ["a.f"] * 3
        tr.undo(undo)
        assert a.f is f and b.g is f and pkg.f is f
    finally:
        for key in ("fakepkg", "fakepkg.a", "fakepkg.b"):
            sys.modules.pop(key, None)


def test_two_threads_keep_separate_stacks():
    t = tr.Tracer()
    both_inside = threading.Barrier(2, timeout=10)

    def inner_body():
        both_inside.wait()  # both outers are open at once
        return threading.get_ident()

    inner = t.wrap("inner", inner_body)
    outer = t.wrap("outer", lambda: inner())
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
    assert not any(th.is_alive() for th in threads)
    outers = {s.thread: s for s in t.spans if s.name == "outer"}
    inners = [s for s in t.spans if s.name == "inner"]
    assert len(outers) == 2 and len(inners) == 2
    for s in inners:
        assert s.parent == outers[s.thread].id


def test_duality_refit_is_seen_through_the_internal_family_builder():
    import haarweight
    import layers

    w = haarweight.make_weight(haarweight.WeightFamily(
        "power", 1, 1, 4, params={"alpha": 0.3}))
    t = tr.Tracer()
    undo = layers.instrument(t, haarweight)
    try:
        # the package, the experiments import and the module global all see it
        assert haarweight.experiments.build_reducing_family is \
            haarweight.reducing.build_reducing_family is \
            haarweight.build_reducing_family
        haarweight.duality_check(w, 3.0)
    finally:
        tr.undo(undo)
    assert not hasattr(haarweight.reducing.build_reducing_family, "__wrapped__")
    check = next(s for s in t.spans if s.name == "reducing.duality_check")
    builds = [s for s in t.spans if s.name == "reducing.build_reducing_family"]
    assert len(builds) == 2  # the primal family and the dual weight's refit
    assert all(s.parent == check.id for s in builds)
    metrics = layers.layer_metrics(t.spans, 1.0, 0.0)
    assert metrics["reducing.build_family.calls"] == 2
    assert metrics["reducing.build_family.dup"] == 0
    assert metrics["reducing.ellipsoid_cubes"] == 0  # n = 1: scalar shortcut


def test_span_cost_is_small_and_nonnegative():
    cost = tr.span_cost(calls=2000, rounds=2)
    assert 0.0 <= cost < 1e-3
