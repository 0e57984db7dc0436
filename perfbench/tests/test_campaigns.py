import campaigns
import harness
import reference


def test_replay_matches_the_generator(small_full_handshake):
    camp, keys = small_full_handshake
    replayed = harness.timed_run(camp, camp.build(keys), camp.stream(3))
    generator = camp.workload(campaigns._workload_seed(camp.name, 3, 0))
    direct = harness.timed_run(camp, camp.build(keys), generator)
    assert replayed["digest"] == direct["digest"]
    assert not replayed["problems"] and not direct["problems"]


def test_replay_of_a_farm_matches_the_generator():
    camp = campaigns.BulkResume(requests=6)
    keys = camp.keys()
    replayed = harness.timed_run(camp, camp.build(keys), camp.stream(1))
    generator = camp.workload(campaigns._workload_seed(camp.name, 1, 0))
    direct = harness.timed_run(camp, camp.build(keys), generator)
    assert replayed["digest"] == direct["digest"]


def test_replay_rejects_another_count(small_full_handshake):
    camp, _ = small_full_handshake
    stream = camp.stream(0)
    try:
        stream.requests(len(stream) + 1)
    except ValueError:
        return
    raise AssertionError("replay accepted a different request count")


def test_identity_problems():
    out = campaigns.Outcome(
        offered=10, completed=6, failed=1, shed=2, abandoned=1, resumed=0,
        handshakes=0, cache_hits=3, cache_misses=1, tickets_accepted=0,
        tickets_rejected=0, batched_ops=0, flushes=0,
        offered_connections=0, admitted_connections=0)
    assert campaigns.identity_problems(out, lookups=4) == []
    out.completed = 5
    assert len(campaigns.identity_problems(out, lookups=3)) == 2


def test_probe_converts_to_reference_seconds():
    probe = reference.SpeedProbe()
    probe.samples = [2 * reference.REFERENCE_SECONDS] * 3
    probe.spent = 0.5
    # A host running the reference at half speed: 10.5 s less the
    # probe's 0.5 s, halved.
    assert probe.reference_seconds(10.5) == 5.0


def test_probe_samples_a_running_block():
    with reference.SpeedProbe(interval=0.01) as probe:
        end = reference.time.perf_counter() + 0.1
        while reference.time.perf_counter() < end:
            pass
    assert probe.samples and probe.spent > 0
    assert reference.signal.getitimer(reference.signal.ITIMER_REAL) == \
        (0.0, 0.0)
