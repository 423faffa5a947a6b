"""Chaos against the worker pool: a SIGKILLed flush worker must never
change a single output byte.

The ``parallel.worker`` site (DESIGN.md §15) kills one worker process at
unit dispatch.  The pool's recovery contract: the whole generation is
retired (a killed worker can die holding a queue lock), every
unacknowledged unit replays in-process through the identical unit
executor, and fresh workers respawn for the next flush -- so the decrypted
logits stay bit-identical to the plaintext reference and to a fault-free
single-process run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.core import PlaintextPipeline
from repro.faults import FaultPlan, FaultRule
from repro.he import parallel
from repro.obs.metrics import use_registry
from repro.serve import ServingLoop

from .conftest import chaos_seeds


@pytest.fixture(autouse=True)
def pristine_pool_state():
    """Chaos must not leak a worker configuration (or a dead pool) out."""
    parallel.configure(None)
    parallel.shutdown()
    yield
    parallel.configure(None)
    parallel.shutdown()


def submit_singles(loop, session, images):
    return [
        loop.submit("digits", session.encrypt("digits", images[i : i + 1]))
        for i in range(len(images))
    ]


class TestWorkerKilledMidFlush:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_kill_replays_bit_identically(
        self, server, session, q_sigmoid, models, seed
    ):
        """Kill worker 1 during the packed flush: every unit replays
        in-process and the logits match plaintext bit-for-bit."""
        images = models.dataset.test_images[:3]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        loop = ServingLoop(server)
        with use_registry() as reg:
            with parallel.use(3):
                responses = submit_singles(loop, session, images)
                plan = FaultPlan(
                    seed,
                    rules=[FaultRule(site="parallel.worker", name="1", max_fires=1)],
                )
                with faults.armed(plan):
                    loop.run()
                pool = parallel.active_pool()
                assert plan.fires("parallel.worker") == 1
                assert pool.deaths == 1
                assert pool.replayed_units >= 1
                # The respawned generation is alive and serving.
                assert all(proc.is_alive() for proc in pool._procs.values())
            flat = reg.collect().flat()
            assert flat["repro_parallel_worker_deaths_total"] == 1.0
            assert flat["repro_parallel_replayed_units_total"] >= 1.0
        assert loop.queue_depth == 0
        for i, response in enumerate(responses):
            logits = session.decrypt_logits(response.result())
            assert np.array_equal(logits[0], expected[i])

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_kill_matches_single_process_run(
        self, server, session, q_sigmoid, models, seed
    ):
        """The fault-free workers=1 flush and the killed workers=3 flush
        produce identical decrypted logits for the same submissions."""
        images = models.dataset.test_images[:2]
        loop = ServingLoop(server)
        baseline = submit_singles(loop, session, images)
        loop.run()  # workers=1, disarmed: the authority
        reference = [session.decrypt_logits(r.result()) for r in baseline]

        with parallel.use(2):
            responses = submit_singles(loop, session, images)
            plan = FaultPlan(
                seed,
                rules=[FaultRule(site="parallel.worker", name="0", max_fires=1)],
            )
            with faults.armed(plan):
                loop.run()
            assert plan.fires("parallel.worker") == 1
            assert parallel.active_pool().deaths == 1
        for response, expected in zip(responses, reference):
            assert np.array_equal(
                session.decrypt_logits(response.result()), expected
            )

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_pool_survives_repeated_kills(
        self, server, session, q_sigmoid, models, seed
    ):
        """Three kills across successive flushes: each retires a generation,
        each respawn serves the next flush, results stay exact."""
        images = models.dataset.test_images[:2]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        loop = ServingLoop(server)
        with parallel.use(2):
            plan = FaultPlan(
                seed,
                rules=[FaultRule(site="parallel.worker", probability=0.5, max_fires=3)],
            )
            with faults.armed(plan):
                for _ in range(3):
                    responses = submit_singles(loop, session, images)
                    loop.run()
                    for i, response in enumerate(responses):
                        logits = session.decrypt_logits(response.result())
                        assert np.array_equal(logits[0], expected[i])
            pool = parallel.active_pool()
            assert pool.deaths == plan.fires("parallel.worker")
