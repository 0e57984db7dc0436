"""Unit tests for the hierarchical profiler."""

import pytest

from repro import perf
from repro.perf import ChargePlan, Discard, Profiler, mix


class TestCharging:
    def test_charge_returns_cycles(self):
        p = Profiler()
        cycles = p.charge(mix(movl=100), function="f")
        assert cycles > 0
        assert p.total_cycles() == pytest.approx(cycles)

    def test_charge_times_scales(self):
        p, q = Profiler(), Profiler()
        p.charge(mix(movl=10), times=5, function="f")
        q.charge(mix(movl=50), function="f")
        assert p.total_cycles() == pytest.approx(q.total_cycles())

    def test_function_attribution(self):
        p = Profiler()
        p.charge(mix(movl=10), function="alpha")
        p.charge(mix(movl=30), function="beta")
        rows = p.function_breakdown()
        assert rows[0][0] == "beta"
        assert rows[0][2] == pytest.approx(0.75)

    def test_function_breakdown_top_n(self):
        p = Profiler()
        for i in range(10):
            p.charge(mix(movl=i + 1), function=f"f{i}")
        assert len(p.function_breakdown(top=3)) == 3

    def test_module_attribution(self):
        p = Profiler()
        p.charge(mix(movl=10), module="libcrypto", function="a")
        p.charge(mix(movl=10), module="libssl", function="b")
        shares = dict((name, share)
                      for name, _, share in p.module_breakdown())
        assert shares["libcrypto"] == pytest.approx(0.5)
        assert shares["libssl"] == pytest.approx(0.5)

    def test_charge_cycles_modelled(self):
        p = Profiler()
        p.charge_cycles(12345.0, function="tcp", module="vmlinux")
        assert p.total_cycles() == pytest.approx(12345.0)
        assert p.total_instructions() == 0

    def test_charge_cycles_rejects_negative(self):
        with pytest.raises(ValueError):
            Profiler().charge_cycles(-1)

    def test_call_counts(self):
        p = Profiler()
        for _ in range(7):
            p.charge(mix(movl=1), function="f")
        assert p.functions["f"].calls == 7

    def test_overall_cpi(self):
        p = Profiler()
        p.charge(mix(movl=100), function="f")
        assert p.overall_cpi() == pytest.approx(
            p.total_cycles() / 100)

    def test_virtual_clock_monotonic(self):
        p = Profiler()
        t0 = p.now()
        p.charge(mix(movl=5), function="f")
        t1 = p.now()
        p.charge(mix(movl=5), function="f")
        t2 = p.now()
        assert t0 < t1 < t2
        assert t2 - t1 == pytest.approx(t1 - t0)


class TestRegions:
    def test_nested_region_paths(self):
        p = Profiler()
        with p.region("outer"):
            with p.region("inner"):
                p.charge(mix(movl=10), function="f")
        node = p.find_region("outer/inner")
        assert node is not None
        assert node.path() == "outer/inner"
        assert node.inclusive_cycles() > 0

    def test_exclusive_vs_inclusive(self):
        p = Profiler()
        with p.region("outer"):
            p.charge(mix(movl=10), function="f")
            with p.region("inner"):
                p.charge(mix(movl=30), function="f")
        outer = p.find_region("outer")
        inner = p.find_region("outer/inner")
        assert outer.exclusive_cycles == pytest.approx(
            outer.inclusive_cycles() - inner.inclusive_cycles())

    def test_region_reentry_accumulates(self):
        p = Profiler()
        for _ in range(3):
            with p.region("step"):
                p.charge(mix(movl=10), function="f")
        node = p.find_region("step")
        assert node.entries == 3
        assert node.inclusive_cycles() == pytest.approx(p.total_cycles())

    def test_region_cycles_missing_path_is_zero(self):
        assert Profiler().region_cycles("nope/nothing") == 0.0

    def test_inclusive_cycles_add_children_left_to_right(self):
        """The same bits on every interpreter: from Python 3.12 ``sum()``
        of floats compensates rounding and would give 0.6 here."""
        p = Profiler()
        for name, cycles in (("a", 0.1), ("b", 0.2), ("c", 0.3)):
            p.root.child(name).exclusive_cycles = cycles
        assert p.root.inclusive_cycles() == 0.6000000000000001

    def test_walk_visits_all_nodes(self):
        p = Profiler()
        with p.region("a"):
            with p.region("b"):
                pass
        with p.region("c"):
            pass
        names = {n.name for n in p.root.walk()}
        assert {"a", "b", "c"} <= names

    def test_exception_inside_region_unwinds_stack(self):
        p = Profiler()
        with pytest.raises(RuntimeError):
            with p.region("outer"):
                raise RuntimeError("boom")
        # Stack is back at root; new charges land at top level.
        p.charge(mix(movl=1), function="f")
        assert p.root.exclusive_cycles > 0

    def test_exception_inside_nested_regions_unwinds_to_root(self):
        """Both entry points, nested three deep: the exception pops every
        region, each counted one entry, and ``with`` yields the node."""
        p = Profiler()
        with pytest.raises(RuntimeError), perf.activate(p):
            with p.region("a") as a:
                with perf.region("b") as b:
                    with p.region("c"):
                        raise RuntimeError("boom")
        assert p._stack == [p.root]
        assert (a, b) == (p.find_region("a"), p.find_region("a/b"))
        assert [n.entries for n in p.root.walk()][1:] == [1, 1, 1]

    def test_region_binds_the_profiler_active_at_entry(self):
        p, q = Profiler(), Profiler()
        scope = perf.region("late")
        with perf.activate(q):
            with scope:
                pass
        assert p.find_region("late") is None
        assert q.find_region("late").entries == 1

    def test_a_corrupted_stack_fails_the_region(self):
        p = Profiler()
        with pytest.raises(AssertionError, match="region stack corrupted"):
            with p.region("a"):
                p._stack.append(p.root.child("stray"))


class TestDiscard:
    """The sink for charges nobody reads checks each charge as a
    profiler does, keeps none of it, and nests regions as usual."""

    @pytest.mark.parametrize("cls", [Profiler, Discard])
    def test_argument_checks_match_the_profiler(self, cls):
        p = cls()
        with pytest.raises(ValueError, match="stall_factor"):
            p.charge(mix(movl=1), function="f", stall=0)
        with pytest.raises(ValueError, match="negative"):
            p.charge_cycles(-1)

    def test_keeps_nothing_and_unwinds_its_regions(self):
        d = Discard()
        plan = ChargePlan([(mix(movl=3), 2.0, "g", perf.LIBSSL, 1.5),
                           (mix(addl=1), 1.0, "h", perf.LIBCRYPTO, 1.0)])
        with perf.activate(d):
            perf.charge(mix(movl=10), function="f")
            with perf.region("outer"):
                perf.charge_plans([plan, plan, plan])
                with pytest.raises(RuntimeError):
                    with perf.region("inner"):
                        perf.charge_cycles(100.0, function="k")
                        raise RuntimeError("boom")
                d.charge(mix(addl=2), times=3, function="f", stall=2.0)
        assert d.total_cycles() == 0.0 == d.now()
        assert d.functions == {} and not d.modules
        assert d.global_mix.snapshot().total() == 0
        assert d._stack == [d.root]
        assert [n.path() for n in d.root.walk()][1:] == ["outer",
                                                         "outer/inner"]
        assert d.find_region("outer/inner").entries == 1


class TestActiveProfilerStack:
    def test_activate_routes_module_level_charge(self):
        p = Profiler()
        with perf.activate(p):
            perf.charge(mix(movl=10), function="f")
        assert p.total_cycles() > 0

    def test_nested_activation(self):
        outer, inner = Profiler(), Profiler()
        with perf.activate(outer):
            perf.charge(mix(movl=1), function="f")
            with perf.activate(inner):
                perf.charge(mix(movl=99), function="f")
            perf.charge(mix(movl=1), function="f")
        assert inner.functions["f"].calls == 1
        assert outer.functions["f"].calls == 2

    def test_module_level_region(self):
        p = Profiler()
        with perf.activate(p):
            with perf.region("step"):
                perf.charge(mix(movl=10), function="f")
        assert p.region_cycles("step") > 0

    def test_current_returns_active(self):
        p = Profiler()
        with perf.activate(p):
            assert perf.current() is p
        assert perf.current() is not p


class TestAccountingInvariants:
    """Structural invariants that must hold for any charge sequence."""

    from hypothesis import given, settings, strategies as st

    charge_ops = st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "deep/nested"]),
                  st.sampled_from(["f1", "f2", "f3"]),
                  st.sampled_from(["libcrypto", "libssl", "other"]),
                  st.integers(1, 500)),
        min_size=1, max_size=40)

    @given(charge_ops)
    @settings(max_examples=30, deadline=None)
    def test_module_cycles_sum_to_total(self, ops):
        p = Profiler()
        self._apply(p, ops)
        module_total = sum(c for _, c, _ in p.module_breakdown())
        assert module_total == pytest.approx(p.total_cycles())

    @given(charge_ops)
    @settings(max_examples=30, deadline=None)
    def test_function_cycles_sum_to_total(self, ops):
        p = Profiler()
        self._apply(p, ops)
        func_total = sum(f.cycles for f in p.functions.values())
        assert func_total == pytest.approx(p.total_cycles())

    @given(charge_ops)
    @settings(max_examples=30, deadline=None)
    def test_root_inclusive_equals_total(self, ops):
        p = Profiler()
        self._apply(p, ops)
        assert p.root.inclusive_cycles() == pytest.approx(p.total_cycles())

    @given(charge_ops)
    @settings(max_examples=30, deadline=None)
    def test_inclusive_is_exclusive_plus_children(self, ops):
        p = Profiler()
        self._apply(p, ops)
        for node in p.root.walk():
            expect = node.exclusive_cycles + sum(
                c.inclusive_cycles() for c in node.children.values())
            assert node.inclusive_cycles() == pytest.approx(expect)

    @given(charge_ops)
    @settings(max_examples=30, deadline=None)
    def test_shares_sum_to_one(self, ops):
        p = Profiler()
        self._apply(p, ops)
        assert sum(s for _, _, s in p.module_breakdown()) == \
            pytest.approx(1.0)

    @staticmethod
    def _apply(p, ops):
        for path, function, module, count in ops:
            parts = path.split("/")
            if len(parts) == 1:
                with p.region(parts[0]):
                    p.charge(mix(movl=count), function=function,
                             module=module)
            else:
                with p.region(parts[0]):
                    with p.region(parts[1]):
                        p.charge(mix(movl=count), function=function,
                                 module=module)
