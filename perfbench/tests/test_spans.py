import inspect

import campaigns
import harness
import spans
from spans import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_arithmetic_on_nested_calls():
    clock = FakeClock()
    tracer = Tracer(layers={"a": (), "b": (), "c": ()}, clock=clock)

    def c():
        clock.now += 1.0

    def b(depth):
        clock.now += 2.0
        leaf_c()
        if depth:
            span_b(depth - 1)
        clock.now += 3.0

    def a():
        clock.now += 1.0
        span_b(1)
        leaf_c()
        clock.now += 0.5

    span_a, span_b = tracer.span(a, "a"), tracer.span(b, "b")
    leaf_c = tracer.leaf(c, "c")
    span_a()

    # b(0) = 2 + c + 3 = 6; b(1) = 2 + c + b(0) + 3 = 12;
    # a = 1 + b(1) + c + 0.5 = 14.5.
    assert tracer.layer_self("c") == 3.0
    assert tracer.layer_self("b") == 10.0
    assert tracer.layer_self("a") == 1.5
    assert tracer.layer_calls("b") == 2 and tracer.layer_calls("c") == 3
    assert tracer.outer_time("b") == 12.0  # the nested b(0) not twice
    assert tracer.covered_time() == 14.5
    assert sum(tracer.self_time) == tracer.covered_time()
    edges = {(e["parent"], e["layer"]): e["calls"] for e in tracer.edges()}
    assert edges == {(spans.ROOT, "a"): 1, ("a", "b"): 1, ("a", "c"): 1,
                     ("b", "b"): 1, ("b", "c"): 2}


def test_span_closes_on_exception():
    clock = FakeClock()
    tracer = Tracer(layers={"a": ()}, clock=clock)

    def boom():
        clock.now += 2.0
        raise ValueError

    traced = tracer.span(boom, "a")
    try:
        traced()
    except ValueError:
        pass
    assert tracer.layer_self("a") == 2.0
    assert tracer._stack == [[0, 2.0]]


def _attributes():
    return {(owner, name): (name in vars(owner),
                            inspect.getattr_static(owner, name))
            for _, owner, name in spans.entry_points()}


def test_every_layer_has_entry_points():
    layers = {layer for layer, _, _ in spans.entry_points()}
    assert layers == set(spans.LAYERS)


def test_install_restore_and_digest(small_full_handshake):
    camp, keys = small_full_handshake
    stream = camp.stream(0)
    plain = harness.timed_run(camp, camp.build(keys), stream)
    before = _attributes()
    tracer = Tracer()
    with tracer:
        assert all(inspect.getattr_static(owner, name) is not original
                   for (owner, name), (_, original) in before.items())
    assert _attributes() == before

    traced = harness.timed_run(camp, camp.build(keys), stream, tracer)
    assert _attributes() == before
    assert traced["digest"] == plain["digest"]
    assert traced["fingerprint"] == plain["fingerprint"]
    assert tracer.layer_calls("crypto.rsa") > 0
    assert tracer.layer_calls("crypto.aes") == 0
    # Inherited SslConnection methods were patched on the subclass only.
    from repro.ssl.server import SslServer
    assert "write" not in vars(SslServer)


def test_counting_lookups_restores_cache_get():
    from repro.ssl.session import SessionCache
    original = vars(SessionCache)["get"]
    counter = [0]
    with campaigns.counting_lookups(counter):
        SessionCache().get(b"x")
    assert counter == [1]
    assert vars(SessionCache)["get"] is original
