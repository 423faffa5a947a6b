"""Fleet routing: the least-loaded pick, its deterministic tie-break, and
the pinned replica-assignment sequence of a seeded serving run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.client import AttestedClient
from repro.errors import RecoveryExhausted
from repro.serve import LoopConfig, ServiceTimeModel, ServingLoop

MODEL = ServiceTimeModel(base_s=4e-3, per_image_s=5e-4)


class TestRoutePolicy:
    def test_ties_break_on_lowest_replica_id(self, make_server):
        fleet = make_server(fleet_size=3).fleet
        assert fleet.route("digits") == 0

    def test_least_loaded_wins(self, make_server):
        fleet = make_server(fleet_size=3).fleet
        fleet.note_dispatch(0, "digits", 4)
        fleet.note_dispatch(1, "digits", 2)
        assert fleet.route("digits") == 2
        fleet.note_dispatch(2, "digits", 8)
        assert fleet.route("digits") == 1
        assert fleet.dispatched_images() == {0: 4, 1: 2, 2: 8}

    def test_busy_and_exclude_filter_candidates(self, make_server):
        fleet = make_server(fleet_size=3).fleet
        assert fleet.route("digits", busy={0}) == 1
        assert fleet.route("digits", busy={0}, exclude=(1,)) == 2
        assert fleet.route("digits", busy={0, 1}, exclude=(2,)) is None

    def test_routing_table_lists_live_replicas_per_model(self, make_server):
        server = make_server(fleet_size=2)
        assert server.fleet.routing_table() == {"digits": (0, 1)}
        server.fleet.retire(0, "test")
        assert server.fleet.routing_table() == {"digits": (1,)}

    def test_retired_replica_never_routes(self, make_server):
        fleet = make_server(fleet_size=2).fleet
        fleet.retire(1, "test")
        fleet.retire(1, "again")  # idempotent
        assert fleet.route("digits", busy={0}) is None
        assert fleet.retired_replicas() == {1: "test"}
        with pytest.raises(RecoveryExhausted):
            fleet.replica(1)

    def test_authority_follows_lowest_live_id(self, make_server):
        fleet = make_server(fleet_size=3).fleet
        assert fleet.authority_id == 0
        fleet.retire(0, "test")
        assert fleet.authority_id == 1
        fleet.retire(1, "test")
        fleet.retire(2, "test")
        with pytest.raises(RecoveryExhausted):
            fleet.authority_id


class TestSeededAssignmentPins:
    def run_trace(self, make_server, verifier_for, models, *, seed):
        server = make_server(
            fleet_size=2, seed=seed, max_batch=2
        )
        client = AttestedClient(
            server, verifier_for(server), b"\x42" * 32
        ).establish()
        loop = ServingLoop(server, LoopConfig(service_model=MODEL, window_s=0.01))
        ct = client.encrypt("digits", models.dataset.test_images[:1])
        tickets = [loop.submit("digits", ct, at_s=k * 1e-3) for k in range(8)]
        loop.run()
        assert all(t.served for t in tickets)
        return [entry["replica"] for entry in loop.flush_log]

    def test_same_seed_same_replica_assignment(
        self, make_server, verifier_for, models
    ):
        first = self.run_trace(make_server, verifier_for, models, seed=13)
        second = self.run_trace(make_server, verifier_for, models, seed=13)
        assert first == second
        # The fleet actually spreads the work: both replicas serve flushes.
        assert set(first) == {0, 1}

    def test_concurrent_flushes_pick_distinct_replicas(
        self, make_server, verifier_for, models
    ):
        """With two replicas free and two full groups queued at t=0, the
        loop dispatches both at once -- one flush per replica, overlapping
        in time."""
        server = make_server(fleet_size=2, max_batch=2)
        client = AttestedClient(
            server, verifier_for(server), b"\x42" * 32
        ).establish()
        loop = ServingLoop(server, LoopConfig(service_model=MODEL))
        ct = client.encrypt("digits", models.dataset.test_images[:1])
        for _ in range(4):
            loop.submit("digits", ct, at_s=0.0)
        loop.run()
        assert [e["replica"] for e in loop.flush_log] == [0, 1]
        first, second = loop.flush_log
        assert second["started_at_s"] < first["done_at_s"]

    def test_report_counts_replicas(self, make_server, verifier_for, models):
        server = make_server(fleet_size=2, max_batch=2)
        client = AttestedClient(
            server, verifier_for(server), b"\x42" * 32
        ).establish()
        loop = ServingLoop(server, LoopConfig(service_model=MODEL))
        ct = client.encrypt("digits", models.dataset.test_images[:1])
        loop.submit("digits", ct, at_s=0.0)
        loop.run()
        assert loop.report()["replicas"] == 2

    def test_single_replica_serving_is_unchanged(
        self, make_server, verifier_for, models
    ):
        """fleet_size=1 keeps the exact legacy timeline (the generalized
        queue-wait estimate reduces bit-exactly): one group at a time, each
        flush on replica 0."""
        server = make_server(max_batch=2)
        client = AttestedClient(
            server, verifier_for(server), b"\x42" * 32
        ).establish()
        loop = ServingLoop(server, LoopConfig(service_model=MODEL))
        ct = client.encrypt("digits", models.dataset.test_images[:1])
        for _ in range(4):
            loop.submit("digits", ct, at_s=0.0)
        loop.run()
        assert [e["replica"] for e in loop.flush_log] == [0, 0]
        first, second = loop.flush_log
        assert second["started_at_s"] == pytest.approx(first["done_at_s"])


class TestFailoverBitIdentity:
    def test_mid_run_kill_fails_over_bit_identically(
        self, make_server, verifier_for, models
    ):
        """Kill replica 0 between two runs of the same request stream: the
        survivor serves the repeat and every decrypted logit matches."""
        server = make_server(fleet_size=2)
        client = AttestedClient(
            server, verifier_for(server), b"\x42" * 32
        ).establish()
        images = models.dataset.test_images[:2]
        before = client.decrypt_logits(client.infer("digits", images))
        server.fleet.kill_replica(0)
        server.fleet.retire(0, "host crash")
        after = client.infer("digits", images)
        assert after.replica == 1
        assert np.array_equal(client.decrypt_logits(after), before)
