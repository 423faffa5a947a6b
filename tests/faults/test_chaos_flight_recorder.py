"""Chaos + flight recorder: seeded replica failover pins an exact event
sequence.

The recorder's timestamps come from the loop's virtual clock and the
platform ``SimClock`` -- never a wall clock -- so the same seeded chaos run
must produce byte-identical dumps, and the ordered kind sequence is a
stable contract chaos tests can pin (DESIGN.md §17).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import faults
from repro.core import PlaintextPipeline
from repro.faults import FaultPlan, FaultRule
from repro.obs.metrics import use_registry
from repro.obs.recorder import use_recorder

from .conftest import chaos_seeds
from .test_chaos_fleet import make_fleet_loop

#: The pinned event sequence for one replica-0 loss at dispatch: three
#: admissions, the flush starts on the doomed replica, the fault fires,
#: the fleet retires it and fails the whole batch over, the flush lands.
FAILOVER_SEQUENCE = [
    "serve.admit",
    "serve.admit",
    "serve.admit",
    "serve.flush_start",
    "fault.fire",
    "fleet.retire",
    "fleet.failover",
    "serve.flush_done",
]


def _run_failover(batching_params, q_sigmoid, models, seed):
    # The recorder is armed once the deployment is built: the pinned
    # sequence is the serving run's, not provisioning's (which records the
    # graph optimizer's compile-time refusals when a level is active).
    with use_registry():
        loop, session = make_fleet_loop(batching_params, q_sigmoid)
        with use_recorder() as rec:
            images = models.dataset.test_images[:3]
            tickets = [
                loop.submit(
                    "digits",
                    session.encrypt("digits", images[i : i + 1]),
                    at_s=0.001 * i,
                )
                for i in range(3)
            ]
            rule = FaultRule(site="serve.fleet.replica", name="0", max_fires=1)
            plan = FaultPlan(seed, rules=[rule])
            with faults.armed(plan):
                loop.run()
            logits = [session.decrypt_logits(t.result()) for t in tickets]
            return rec, logits, q_sigmoid


class TestFailoverSequencePinned:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_exact_event_sequence(self, batching_params, q_sigmoid, models, seed):
        rec, logits, _ = _run_failover(batching_params, q_sigmoid, models, seed)
        assert rec.kinds() == FAILOVER_SEQUENCE

        events = {e.kind: e for e in rec.events()}
        failover = events["fleet.failover"]
        assert failover.severity == "warn"
        assert failover.fields["from_replica"] == 0
        assert failover.fields["to_replica"] == 1
        assert failover.fields["requests"] == 3
        retire = events["fleet.retire"]
        assert retire.severity == "error"
        assert retire.fields["replica"] == 0
        fire = events["fault.fire"]
        assert fire.fields["site"] == "serve.fleet.replica"
        start = events["serve.flush_start"]
        assert start.fields["replica"] == 0 and start.fields["requests"] == 3
        done = events["serve.flush_done"]
        assert done.fields["served"] == 3 and done.fields["failed"] == 0
        assert done.fields["generation"] == start.fields["generation"]

        seqs = [e.seq for e in rec.events()]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

        expected = PlaintextPipeline(q_sigmoid).infer(models.dataset.test_images[:3])
        for i, l in enumerate(logits):
            assert np.array_equal(l, expected.logits[i : i + 1])

    @pytest.mark.parametrize("seed", chaos_seeds()[:1])
    def test_dump_identical_across_runs(
        self, batching_params, q_sigmoid, models, seed
    ):
        """Same seed, same events: everything but the clock readings (which
        fold in measured host compute time) must match field-for-field."""
        rec_a, logits_a, _ = _run_failover(batching_params, q_sigmoid, models, seed)
        faults.disarm()
        rec_b, logits_b, _ = _run_failover(batching_params, q_sigmoid, models, seed)

        def strip_t(dump_json):
            events = json.loads(dump_json)
            for event in events:
                t_s = event.pop("t_s", None)
                assert t_s is None or isinstance(t_s, float)
            return events

        assert strip_t(rec_a.dump_json()) == strip_t(rec_b.dump_json())
        assert all(np.array_equal(a, b) for a, b in zip(logits_a, logits_b))
        assert [e.kind for e in rec_a.events()] == FAILOVER_SEQUENCE
